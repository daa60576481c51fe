"""Classification predicates for the dynamical hypotheses: exceptional
targets, preperiodic starting points, multiplicative independence, power
and Chebyshev normal forms, commuting polynomials, and a desk-scale probe
for polynomial relations along a pair of orbits.

None of these touch algebraic numbers: exceptionality reduces to two exact
one-point tests on one-step fibers, special forms are decided in depressed
normal form with rational affine conjugations, and the genericity probe
screens kernels modulo large primes before verifying any candidate
relation exactly on the rational orbit points.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count

from .bivariate import BivariatePolynomial, homogeneous_powers
from .errors import BudgetExceededError, DomainError, IndeterminateError
from .exact import _iroot, factor, next_prime
from .heights import _orbit_scan, canonical_height
from .linalg import kernel_modp, rational_reconstruct
from .maps import (DEFAULT_DEGREE_BUDGET, DEFAULT_ORBIT_DIGIT_BUDGET, INFINITY, Mobius,
                   ProjPoint, RationalMap, compose, conjugate, fiber_polynomial, iterate)
from .polys import Polynomial, exact_div, primitive

POWER_CONJUGATE = "power"
CHEBYSHEV_CONJUGATE = "chebyshev"
NOT_SPECIAL = "not-special"


def _sole_preimage(f: RationalMap, target: ProjPoint) -> ProjPoint | None:
    """The one point of f^{-1}(target), or None: all d preimages at
    infinity, or the fiber is c (v x - u)^d with u/v = -c_{d-1}/(d c_d),
    which d exact divisions by v x - u decide."""
    fib, at_infinity = fiber_polynomial(f, target)
    d = f.degree
    if at_infinity:
        return INFINITY if at_infinity == d else None
    r = Fraction(-fib[d - 1], d * fib[d])
    root = [-r.numerator, r.denominator]
    for _ in range(d):
        if (fib := exact_div(fib, root)) is None:
            return None
    return ProjPoint(r)


def is_exceptional(f: RationalMap, target) -> bool:
    """Whether the backward orbit of ``target`` is finite.

    For degree >= 2 the backward orbit is finite exactly when
    f^{-2}(target) = {target}, that is when target has a single preimage
    beta and beta has the single preimage target (beta = target for a
    totally ramified fixed point, or the two swap).  So two one-step fibers
    decide it; a single point f^{-2}(target) elsewhere is not enough
    (6/(3 - x^2) pulls 2 back to 0 and 0 back to infinity).

    >>> is_exceptional(RationalMap([0, 0, 1]), 0)
    True
    >>> is_exceptional(RationalMap([-1, 0, 1]), 0)
    False
    """
    if f.degree < 2:
        raise DomainError("exceptionality needs degree >= 2")
    target = ProjPoint.of(target)
    pre = _sole_preimage(f, target)
    return pre is not None and _sole_preimage(f, pre) == target


def is_preperiodic(f: RationalMap, point, budget: int = 64) -> bool:
    """Whether the forward orbit is finite.

    Decides by the exact orbit scan that :func:`canonical_height` runs,
    over ``budget`` steps (a revisit is a proof; a Weil height above
    C_f/(d-1) certifies positive canonical height, hence wandering), and
    falls back to the certified canonical-height sign test.  Raises
    :class:`IndeterminateError` when neither side can be certified within
    budget; never returns a silent False.
    """
    if f.degree < 2:
        raise DomainError("preperiodicity needs degree >= 2")
    if budget < 1:
        raise DomainError("budget must be >= 1")
    point = ProjPoint.of(point)
    scan = _orbit_scan(f, point, budget)
    if scan is not None:
        return scan[0] == "cycle"
    est = canonical_height(f, point, 1e-12)
    if est.is_exact_zero:
        return True
    if est.value > est.error_bound:
        return False
    raise IndeterminateError(
        f"no cycle within budget {budget} and canonical height "
        f"{float(est.value)} +- {float(est.error_bound)} cannot be certified positive"
    )


def _exponent_vector(x: Fraction) -> dict[int, int]:
    vec: dict[int, int] = {}
    num, den = abs(x.numerator), x.denominator
    if num > 1:
        vec.update(factor(num).exponents())
    if den > 1:
        for p, e in factor(den).exponents().items():
            vec[p] = vec.get(p, 0) - e
    return vec


def mult_indep(a, b) -> bool:
    """Multiplicative independence of two nonzero rationals: no relation
    a^m * b^n = 1 with (m, n) != (0, 0).

    Equivalent to the prime exponent vectors being nonzero and not
    rationally parallel; +-1 are torsion and therefore dependent.

    >>> mult_indep(125, 25)
    False
    >>> mult_indep(2, 3)
    True
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise DomainError("multiplicative independence needs nonzero inputs")
    if abs(a) == 1 or abs(b) == 1:
        return False
    va = _exponent_vector(a)
    vb = _exponent_vector(b)
    primes = sorted(set(va) | set(vb))
    for i in range(len(primes)):
        for j in range(i + 1, len(primes)):
            p, q = primes[i], primes[j]
            if va.get(p, 0) * vb.get(q, 0) != va.get(q, 0) * vb.get(p, 0):
                return True
    return False


@dataclass(frozen=True)
class SpecialForm:
    """Outcome of the power/Chebyshev normal form test.

    ``witness`` is the affine conjugation onto the normal form, present
    exactly when the tag is not NOT_SPECIAL and verified by exact
    conjugation.  ``caveat`` marks polynomials whose depressed form matches
    a family but whose conjugation would need an irrational scale factor
    (the search is restricted to rational affine maps).
    """

    tag: str
    witness: Mobius | None = None
    caveat: bool = False


def chebyshev_polynomial(d: int) -> Polynomial:
    """T_d in the normalization T_d(x + 1/x-style), i.e. T_d(2cos t) = 2cos(dt):
    T_2 = x^2 - 2, T_3 = x^3 - 3x."""
    if d < 0:
        raise DomainError("Chebyshev index must be >= 0")
    t0, t1 = [2], [0, 1]
    if d == 0:
        return Polynomial(t0)
    for _ in range(d - 1):
        # T_(k+1) = x T_k - T_(k-1)
        nxt = [0] + t1
        for i, c in enumerate(t0):
            nxt[i] -= c
        t0, t1 = t1, nxt
    return Polynomial(t1)


def _rational_nth_root(c: Fraction, k: int) -> Fraction | None:
    if c < 0 and k % 2 == 0:
        return None
    num, den = abs(c.numerator), c.denominator
    rn, rd = _iroot(num, k), _iroot(den, k)
    if rn**k != num or rd**k != den:
        return None
    return Fraction(-rn if c < 0 else rn, rd)


def _verify_conjugation(f: RationalMap, sigma: Mobius, target) -> bool:
    return conjugate(f, sigma) == RationalMap(target)


def special_form(poly: Polynomial) -> SpecialForm:
    """Decide conjugacy (by a rational affine map) to x^d or to the
    Chebyshev normal form T_d.

    The polynomial is first depressed by the unique translation killing
    the degree-(d-1) coefficient; the remaining freedom is a scaling, and
    comparing coefficients against the two closed-form families determines
    it (or shows no rational scaling exists, which sets the caveat flag).

    >>> special_form(Polynomial([-2, 0, 1])).tag   # x^2 - 2
    'chebyshev'
    >>> special_form(Polynomial([0, 1, 0, 1])).tag  # x^3 + x
    'not-special'
    """
    d = poly.degree
    if d < 2:
        raise DomainError("special-form test needs degree >= 2")
    f = RationalMap(poly)
    v = poly.coeff(d - 1) / (d * poly.leading)
    # the depressed form poly(x - v) + v is the conjugate by x -> x + v,
    # stored as integers (a_0..a_d) over the constant b_0
    num, den = conjugate(f, Mobius.translation(v)).forms
    dep = [Fraction(a, den[0]) for a in num]

    # power family: depressed form must be a pure monomial c * x^d, with the
    # scaling u solving u^(d-1) = c
    if not any(dep[:d]):
        u = _rational_nth_root(dep[d], d - 1)
        if u is not None:
            sigma = Mobius.affine(u, u * v)
            if _verify_conjugation(f, sigma, [0] * d + [1]):
                return SpecialForm(POWER_CONJUGATE, sigma)
        return SpecialForm(NOT_SPECIAL, None, caveat=True)

    # Chebyshev family: need dep = T_d(u x) / u, i.e. coeff_k = t_k u^(k-1)
    cheb = chebyshev_polynomial(d)
    candidates: list[Fraction] = []
    caveat = False
    if d == 2:
        candidates.append(dep[d])
    else:
        c_sub = dep[d - 2]
        if c_sub != 0:
            u_sq = Fraction(-d) * dep[d] / c_sub
            u = _rational_nth_root(u_sq, 2)
            if u is not None:
                candidates.extend([u, -u])
            elif d % 2 == 1:
                # all exponents k-1 are even, so consistency is a statement
                # about u^2 alone; a match here means the conjugation exists
                # but only with an irrational scale
                ok = all(
                    dep[k]
                    == cheb.coeff(k) * u_sq ** ((k - 1) // 2)
                    if k % 2 == 1
                    else dep[k] == 0
                    for k in range(d + 1)
                )
                caveat = bool(ok)
            else:
                # d even: u = c_d / (u^2)^((d-2)/2) is forced rational
                denom = u_sq ** ((d - 2) // 2)
                if denom != 0:
                    candidates.append(dep[d] / denom)
    for u in candidates:
        if u == 0:
            continue
        if all(dep[k] == cheb.coeff(k) * u ** (k - 1) for k in range(d + 1)):
            sigma = Mobius.affine(u, u * v)
            if _verify_conjugation(f, sigma, cheb):
                return SpecialForm(CHEBYSHEV_CONJUGATE, sigma)
    return SpecialForm(NOT_SPECIAL, None, caveat=caveat)


def commutes(h: Polynomial, f: Polynomial, k_max: int,
             degree_budget: int = DEFAULT_DEGREE_BUDGET) -> int | None:
    """Least 1 <= k <= k_max with h o f^k = f^k o h as an exact polynomial
    identity, or None.  Both sides are compared as maps in lowest terms,
    which are unique.

    >>> commutes(Polynomial([0, -1]), Polynomial([0, 1, 0, 1]), 1)  # -x, x^3+x
    1
    """
    if h.degree < 1 or f.degree < 2:
        raise DomainError("need deg h >= 1 and deg f >= 2")
    if k_max < 1:
        raise DomainError("k_max must be >= 1")
    h, f = RationalMap(h), RationalMap(f)
    fk = f
    for k in range(1, k_max + 1):
        if fk.degree * h.degree > degree_budget:
            raise BudgetExceededError(
                f"symbolic degree {fk.degree * h.degree} exceeds budget at k={k}"
            )
        if compose(h, fk) == compose(fk, h):
            return k
        if k < k_max:
            fk = compose(fk, f)
    return None


# --- genericity probe ---


@dataclass(frozen=True)
class CurveRelation:
    """A verified polynomial relation along the tested orbit window."""

    polynomial: BivariatePolynomial
    degree_bound: int
    points_tested: int


def _monomials(deg_max: int) -> list[tuple[int, int]]:
    return sorted(
        ((i, j) for i in range(deg_max + 1) for j in range(deg_max + 1)),
        key=lambda m: (m[0] + m[1], m[0], m[1]),
    )


def _orbit_rows_modp(f, g, a, b, monomials, deg_max, skip, n_rows, p):
    xr, xs = (c % p for c in a.pair())
    yr, ys = (c % p for c in b.pair())
    rows = []
    for n in range(1, n_rows + 1):
        xr, xs = (c % p for c in f.form_values(xr, xs))
        yr, ys = (c % p for c in g.form_values(yr, ys))
        if (xr == 0 and xs == 0) or (yr == 0 and ys == 0):
            return None
        if n in skip:
            continue
        if xs == 0 or ys == 0:
            return None
        # the affine row x^i y^j times the unit (xs ys)^deg_max: the same
        # row space, so the same RREF and kernel basis
        xcol = [v % p for v in homogeneous_powers(xr, xs, deg_max)]
        ycol = [v % p for v in homogeneous_powers(yr, ys, deg_max)]
        rows.append([xcol[i] * ycol[j] % p for i, j in monomials])
    return rows


_SCREEN_MARGIN = 8   # mod-p window rows beyond the monomial count
_SCREEN_PRIMES = 3   # random 61-bit primes whose kernels are screened


@lru_cache(maxsize=256)
def _screen_prime(seed, i: int) -> int:
    """The i-th prime of ``seed``'s screening stream: one random.Random(seed)
    whose k-th draw r from [2^60, 2^61) gives the k-th prime next_prime(r).
    Searched once per (seed, i) and kept; replaying the i cheap draws before
    it costs no primality test."""
    rng = random.Random(seed)
    for _ in range(i):
        rng.randrange(1 << 60, 1 << 61)
    return next_prime(rng.randrange(1 << 60, 1 << 61))


def probe_genericity(f: RationalMap, g: RationalMap, a, b,
                     deg_max: int, n_points: int, seed: int | None = 0,
                     *, digit_budget: int = DEFAULT_ORBIT_DIGIT_BUDGET,
                     ) -> CurveRelation | None:
    """Search for a polynomial relation (box degrees <= deg_max) along the
    paired orbits of a and b.

    Kernels of the monomial matrix are screened modulo _SCREEN_PRIMES
    random 61-bit primes drawn from ``seed`` (an integer seed's primes
    are memoized, so a repeated seed skips the prime search and gets the
    same primes, and results, as a fresh draw; seed None draws new primes
    on every call), iterating the orbits in modular arithmetic from
    scratch over a window _SCREEN_MARGIN rows past the monomial count (so
    interpolation artifacts on short windows die);
    an empty mod-p kernel certifies there is no relation.  Surviving
    kernel vectors are lifted by rational reconstruction and verified
    exactly, in integers, at the first ``n_points`` exact orbit points;
    only a verified relation is ever returned.
    """
    if deg_max < 1:
        raise DomainError("deg_max must be >= 1")
    if n_points < 1:
        raise DomainError("n_points must be >= 1")
    a, b = ProjPoint.of(a), ProjPoint.of(b)
    monomials = _monomials(deg_max)
    n_screen = max(n_points, len(monomials) + _SCREEN_MARGIN)

    # on budget exhaustion, degrade to the points actually collected
    def _orbit_with_budget(h, start):
        try:
            return iterate(h, start, n_points, digit_budget)
        except BudgetExceededError as err:
            return err.partial
    orbit_a = _orbit_with_budget(f, a)
    orbit_b = _orbit_with_budget(g, b)
    n_usable = min(len(orbit_a), len(orbit_b)) - 1
    if n_usable < 1:
        raise BudgetExceededError(
            "orbit digit budget too small to collect a single probe point"
        )
    skip = {
        n for n in range(1, n_usable + 1)
        if orbit_a[n].is_infinity or orbit_b[n].is_infinity
    }
    exact_points = [
        (orbit_a[n].pair(), orbit_b[n].pair())
        for n in range(1, n_usable + 1) if n not in skip
    ]
    if not exact_points:
        return None

    if seed is None:   # fresh entropy on every call: nothing to memoize
        rng = random.Random()
        primes = (next_prime(rng.randrange(1 << 60, 1 << 61)) for _ in count())
    else:
        primes = (_screen_prime(seed, i) for i in count())
    collected: list[tuple[int, list[list[int]]]] = []
    for window in (n_screen, n_usable):
        attempts = 0
        while (len(collected) < _SCREEN_PRIMES
               and attempts < 8 * _SCREEN_PRIMES):
            attempts += 1
            p = next(primes)
            rows = _orbit_rows_modp(f, g, a, b, monomials, deg_max, skip, window, p)
            if rows is None or not rows:
                continue
            basis = kernel_modp(rows, p)
            if not basis:
                return None
            collected.append((p, basis))
        if collected:
            break
    if not collected:
        raise IndeterminateError("mod-p screening failed for every sampled prime")

    candidates: list[BivariatePolynomial] = []
    seen_polys = set()
    for p, basis in collected:
        for vec in basis:
            lifted = [rational_reconstruct(v, p) for v in vec]
            if any(c is None for c in lifted):
                continue
            ints = primitive(lifted)
            poly = BivariatePolynomial({
                m: c for m, c in zip(monomials, ints) if c
            })
            if poly.is_zero or poly in seen_polys:
                continue
            seen_polys.add(poly)
            candidates.append(poly)

    verified = [
        poly for poly in candidates
        if all(poly.vanishes_at(x, y) for x, y in exact_points)
    ]
    if not verified:
        return None
    verified.sort(key=lambda poly: (
        len(poly.terms), poly.total_degree(),
        sorted(poly.terms, key=lambda m: (m[0] + m[1], m[0], m[1])),
    ))
    return CurveRelation(verified[0], deg_max, len(exact_points))
