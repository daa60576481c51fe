"""Heights on P^1(Q): the Weil height, canonical heights with stated
error bounds, and the generalized gcd heights (sums of local minima of
the v+ functions over all places).

The canonical height of P under a degree-d map is the limit of
h(f^n(P)) / d^n.  The per-step discrepancy |h(f(x)) - d*h(x)| is bounded
by an explicit constant computed from the coefficients, the resultant
of the homogenized pair and its Bezout cofactor height (both read from
``maps.bezout_record``, a subresultant PRS per chart), which turns the
limit into a finite computation with a geometric tail bound.  The orbit
heights themselves are evaluated in renormalized form, so no doubly
exponential integers are ever
materialized: the archimedean part runs in power-of-two fixed point (an
integer pair cut back to its top bits after each exact step, with the
dropped powers of two counted in an exact exponent, and one logarithm at
the end), and p-adic gcd corrections at the primes dividing the resultant
run modulo a fixed power of each prime.  When oo is a fixed point of the
map (G(1, 0) = 0: every polynomial, and maps such as (x^2+1)/2x), a pair
that reaches (x, 0), in the kept bits or modulo the prime power, stays on
it, and both loops finish the remaining steps in closed form (for a
polynomial, the local Green function at its superattracting fixed point
oo): the p-adic exponent is the same integer the steps give, and the
archimedean log stays within the same rounding.  The returned value is still h(f^N(P)) / d^N up to
the stated error.

Weil, canonical and discrepancy heights are ints in units of 2^-prec, and
the tail and escape decisions compare ints: prec is ARCH_PREC = 128, or for
canonical heights a precision derived from the tolerance, high enough
that the stated error bound stays within it; C_f is taken once per map,
at 128 bits and rounded up, and read at any precision.  Results are those
ints over 2^prec as exact Fractions (:class:`~orbitgcd.exact.Real`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .exact import (ARCH_PREC, LogValue, Place, Real, factor, int_gcd, int_mul,
                    is_prime, log_abs, log_fixed, valuation)
from .maps import ProjPoint, RationalMap, bezout_record, map_resultant, orbit

_PREPERIODIC_SCAN_LIMIT = 500


@dataclass(frozen=True)
class HeightEstimate:
    """A bracketing estimate: the true limit lies in value +- error_bound."""

    value: Real
    error_bound: Real
    iterations_used: int

    @property
    def is_exact_zero(self) -> bool:
        return self.value == 0 and self.error_bound == 0


@dataclass(frozen=True)
class PlaceSet:
    """A finite, deduplicated set of finite places, stored by prime."""

    primes: frozenset[int]

    def __init__(self, primes=()):
        ps = set()
        for p in primes:
            q = p.prime if isinstance(p, Place) else p
            if q is None or int(q) != q or not is_prime(int(q)):
                raise DomainError(f"{p!r} is not a finite place")
            ps.add(int(q))
        object.__setattr__(self, "primes", frozenset(ps))

    def __contains__(self, p) -> bool:
        return (p.prime if isinstance(p, Place) else p) in self.primes

    def __iter__(self):
        return iter(sorted(self.primes))

    def __repr__(self):
        return f"PlaceSet({sorted(self.primes)})"


def weil_height(point) -> Real:
    """log max(|p|, |q|) for p/q in lowest terms; h(oo) = h(0) = 0.

    >>> float(weil_height(Fraction(3, 2)))
    1.0986122886681098
    """
    return log_abs(max(map(abs, ProjPoint.of(point).pair())))


# --- discrepancy constant |h(f(x)) - d h(x)| <= C_f ---

@functools.lru_cache(maxsize=256)
def discrepancy_bound(f: RationalMap) -> Real:
    """A constant C_f with |h(f(x)) - d*h(x)| <= C_f on all of P^1(Q).

    Upper side: coefficient count times height of the coefficients.  Lower
    side: the Bezout identities u*F + v*G = R*X^(2d-1) (and Y^(2d-1)) give
    max(|F|,|G|) >= |R| M^d / (2 d H_u) and bound the gcd of the value
    pair by |R|.  Any finite valid constant is acceptable; tightness is not
    a goal.  In units of 2^-ARCH_PREC, cached per map, and rounded up: the
    log of the larger side's argument to the nearest unit (within 1/2 +
    2^-9), plus one unit, so it is a proven upper bound.
    """
    if f.degree < 2:
        raise DomainError("discrepancy bound needs degree >= 2")
    return Real(log_fixed(_discrepancy_base(f), ARCH_PREC) + 1, 1 << ARCH_PREC)


def _discrepancy_base(f: RationalMap) -> int:
    # the int whose log is C_f: the larger of the two sides' arguments
    d = f.degree
    height_f = max(abs(c) for form in f.forms for c in form)
    return max((d + 1) * height_f, 2 * d * bezout_record(f)[1])


# --- canonical height ---


def _renormalize(x: int, y: int, bits: int) -> tuple[int, int, int]:
    # (x, y) / 2^sh with the larger of |x|, |y| at exactly ``bits`` bits:
    # exact for sh <= 0, else truncated (a relative error below 2^(1 - bits))
    sh = max(x.bit_length(), y.bit_length()) - bits
    return (x >> sh, y >> sh, sh) if sh >= 0 else (x << -sh, y << -sh, sh)


def _steps_sum(d: int, k: int) -> int:
    # 1 + d + ... + d^(k-1): the power of a_d that k steps from (x, 0) gather
    return (d**k - 1) // (d - 1) if d > 1 else k


def _arch_green_log(f: RationalMap, r0: int, s0: int, n_steps: int, prec: int,
                    drop: int = 0) -> int:
    # log max(|p_N|, |q_N|) of the un-reduced orbit pair p_{n+1} = F(p_n, q_n),
    # homogeneous of degree d, in units of 2^-prec: (x, y) * 2^t tracks the
    # pair with x, y ints of prec bits, so each step is one exact form
    # evaluation, a shift and t -> d t + sh, and the height takes one
    # logarithm, of max(|x|, |y|) * 2^t, to within 2^drop units.  When
    # G(1, 0) = 0 (oo is fixed), a pair (x, 0) goes to (a_d x^d, 0), so with
    # k steps left the loop stops and the log is the closed form
    # d^k log|x 2^t| + (1 + d + ... + d^(k-1)) log|a_d|.
    d = f.degree
    lead, fixed = f.forms[0][d], f.forms[1][d] == 0
    x, y, t = _renormalize(r0, s0, prec)
    k = 0
    for n in range(n_steps):
        if fixed and y == 0:
            k = n_steps - n
            break
        x, y, sh = _renormalize(*f.form_values(x, y), prec)
        t = d * t + sh
    # each log is off by at most 1/2 + 2^-9 units of 2^-wp, times its
    # multiplier; e extra bits keep that sum below 0.21 units of
    # 2^-(prec - drop), so the rounding to those units lands within one
    # (with k = 0, e = 0: one log at prec - drop bits, no rounding)
    c = _steps_sum(d, k)
    e = (4 * (d**k + c - 1)).bit_length()
    wp = prec - drop + e
    log = d**k * log_fixed(max(abs(x), abs(y)), wp, t)
    if c and abs(lead) > 1:
        log += c * log_fixed(abs(lead), wp)
    return (log + (1 << e >> 1)) >> e << drop


def _padic_gcd_exponent(f: RationalMap, r0: int, s0: int, p: int, v_res: int,
                        n_steps: int) -> int:
    # v_p(gcd(p_N, q_N)) for the un-reduced orbit pair.  Each step extracts
    # at most v_p(resultant) powers of p, so step n (from 0) knows the pair
    # only mod p^K with K = (N - n) v_res + v_res + 1, and works mod that.
    d = f.degree
    lead, fixed = f.forms[0][d], f.forms[1][d] == 0
    K = n_steps * v_res + v_res + 1
    mod, shrink = p**K, p**v_res
    a, b = r0 % mod, s0 % mod
    gamma = 0
    for n in range(n_steps):
        if fixed and b == 0:
            # b = 0 leaves a a p-unit, and (a, 0) goes to (a_d a^d, 0) mod
            # p^K with v_p(a_d) <= v_res < K (Bezout at (1, 0)), so each of
            # the k steps left extracts exactly v_p(a_d)
            k = n_steps - n
            gamma = d**k * gamma + valuation(p, lead) * _steps_sum(d, k)
            break
        va_, vb_ = (v % mod for v in f.form_values(a, b))
        # residues below p^K: a nonzero one has v_p < K, a zero one counts
        # K > v_res, so the other one decides m
        m = min(K if v == 0 else valuation(p, v) for v in (va_, vb_))
        gamma = d * gamma + m
        K, mod = K - v_res, mod // shrink
        pm = p**m
        a, b = va_ // pm % mod, vb_ // pm % mod
    return gamma


def _orbit_scan(f: RationalMap, point: ProjPoint, limit: int) -> tuple[str, int] | None:
    """Exact scan of point, f(point), ..., f^limit(point): ("cycle", n) when
    f^n(point) repeats an earlier point, ("escape", n) when f^n(point) = r/s,
    n < limit, has (d-1) h > C_f, tested as max(|r|, |s|)^(d-1) > e^C_f (a
    certified wanderer, as |hhat - h| <= C_f/(d-1)), else None."""
    seen = set()
    ceiling, power = _discrepancy_base(f), f.degree - 1
    for step, (cur,) in enumerate(orbit([(f, point)], limit)):
        if cur in seen:
            return "cycle", step
        if step < limit and max(map(abs, cur.pair())) ** power > ceiling:
            return "escape", step
        seen.add(cur)
    return None


def _tail_steps(f: RationalMap, tol: float) -> tuple[int, int]:
    """The working precision and the step count N of canonical_height."""
    d = f.degree
    num, den = tol.as_integer_ratio()
    # the bit length k of floor((d+1)/(d tol)) is the least k with
    # 2^-k < tol - tol/(d+1), the room error_bound leaves beside the tail
    prec = max(ARCH_PREC, 2 * ((d + 1) * den // (d * num)).bit_length())
    # with C_f = cn/cd and tol = num/den, N is the least n with d^n >= q:
    # a float estimate of log_d q, confirmed by exact tests at n and n - 1
    c_f = discrepancy_bound(f)
    q = -(-c_f.numerator * (d + 1) * den // (c_f.denominator * num * (d - 1)))
    n_steps = math.ceil(math.log(q) / math.log(d))
    while d**n_steps < q:
        n_steps += 1
    while n_steps and d ** (n_steps - 1) >= q:
        n_steps -= 1
    return prec, n_steps


def canonical_height(f: RationalMap, point, tol) -> HeightEstimate:
    """Canonical height of a point under a degree >= 2 rational map.

    Returns h(f^N(P)) / d^N for the least N whose geometric tail bound
    C_f / (d^N (d-1)) is at most tol/(d+1) (headroom d+1, so
    functional-equation comparisons at tolerance 2*tol hold).  error_bound
    is that tail plus a rounding allowance 2^-(prec//2), a heuristic and
    not a proven bound on the rounding; prec makes the sum at most tol.
    Preperiodic points found by the exact orbit pre-scan return value 0
    with error_bound 0.

    The tail test is exact, on C_f as :func:`discrepancy_bound` rounds it
    up.  prec = max(ARCH_PREC, 2 log2((d+1)/(d tol))) bits, the last
    rounded up so that 2^-(prec//2) < tol - tol/(d+1), and the height runs
    in units of 2^-(prec + 64), from an integer pair of prec + 64 bits and
    an exact binary exponent: a step is one exact form evaluation and a
    shift, and the archimedean part takes one logarithm.  When G(1, 0) = 0
    (oo fixed, as for every polynomial) and the pair reaches (x, 0), the k
    steps left are the closed form d^k log|x| + (d^k - 1)/(d - 1) log|a_d|,
    within the same rounding, and the same p-adic exponents exactly;
    iterations_used and error_bound still count all N.

    N needs no budget: N <= log_d(C_f (d+1) / ((d-1) tol)) + 1, tol >= 2^-1074
    and C_f grows with the log of the coefficients, so N stays near 1,100
    at d = 2 for any map that fits in memory (1,077 for x^2 + 1 at 5e-324).

    >>> canonical_height(RationalMap([0, 0, 1]), 1, 1e-9).is_exact_zero
    True
    """
    d = f.degree
    if d < 2:
        raise DomainError("canonical height needs degree >= 2")
    tol = float(tol)
    if not 0 < tol < math.inf:
        raise DomainError("tolerance must be finite and positive")
    point = ProjPoint.of(point)

    # a cycle makes the height exactly 0; an escape or nothing goes on below
    scan = _orbit_scan(f, point, _PREPERIODIC_SCAN_LIMIT)
    if scan is not None and scan[0] == "cycle":
        return HeightEstimate(Real(0), Real(0), scan[1])

    prec, n_steps = _tail_steps(f, tol)
    r0, s0 = point.pair()
    wide, scale = prec + 64, d**n_steps
    # the division by d^N leaves a log within d^N units within one unit
    slog = _arch_green_log(f, r0, s0, n_steps, wide, scale.bit_length() - 1)
    res = map_resultant(f)
    if abs(res) > 1:
        for p, e in factor(abs(res)).factors:
            gamma = _padic_gcd_exponent(f, r0, s0, p, e, n_steps)
            if gamma:
                slog -= gamma * log_fixed(p, wide)
    # the tail tol/(d+1) rounded up, plus the rounding allowance
    num, den = tol.as_integer_ratio()
    err = -(-(num << wide) // (den * (d + 1))) + (1 << (wide - prec // 2))
    return HeightEstimate(Real(slog // scale, 1 << wide), Real(err, 1 << wide), n_steps)


# --- generalized gcd heights ---


def hgcd(x, y) -> LogValue:
    """Generalized gcd height: sum over all places of min(v+(x), v+(y)).

    For integers it equals log gcd(|x|, |y|).  A zero argument has
    v+ = +infinity at every place, so the min collapses to the other
    argument; both arguments zero is a domain error (the gcd(0,0) = 0
    convention is the caller's to apply).

    >>> hgcd(Fraction(5, 3), Fraction(10, 7)).finite
    {5: Fraction(1, 1)}
    """
    x, y = Fraction(x), Fraction(y)
    finite = _gcd_exponents(x, y)
    return LogValue(finite, arch_gcd_term(x.as_integer_ratio(), y.as_integer_ratio()))


def arch_gcd_term(u: tuple[int, int], v: tuple[int, int]) -> Real:
    """min(v+(u), v+(v)) at the archimedean place, for rationals not both
    zero given as (numerator, denominator) in lowest terms, denominators
    positive: v+ of the larger |z|, and 0 with no log when that is >= 1."""
    (a, b), (c, d) = u, v
    if abs(a) >= b or abs(c) >= d:
        return Real(0)
    if int_mul(abs(a), d) < int_mul(abs(c), b):
        a, b = c, d
    return Real(max(0, -log_abs(a, b)))


def _gcd_exponents(x: Fraction, y: Fraction) -> dict[int, int]:
    # hgcd's finite part: the prime exponents of the gcd of the numerators
    if x == 0 and y == 0:
        raise DomainError("hgcd(0, 0) excluded; callers apply the gcd(0,0)=0 convention")
    g = int_gcd(x.numerator, y.numerator)    # gcd(0, n) = |n|
    return factor(g).exponents() if g > 1 else {}


def hgcd_fin(x, y) -> LogValue:
    """hgcd without the archimedean term."""
    return LogValue.from_finite(_gcd_exponents(Fraction(x), Fraction(y)))


def hgcd_excluding(places: PlaceSet, x, y) -> LogValue:
    """hgcd restricted to finite places outside ``places``.

    >>> hgcd_excluding(PlaceSet([2, 3]), 12, 18).finite
    {}
    """
    finite = _gcd_exponents(Fraction(x), Fraction(y))
    return LogValue.from_finite({p: c for p, c in finite.items() if p not in places})

