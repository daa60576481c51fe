"""Classification predicates for the dynamical hypotheses: exceptional
targets, preperiodic starting points, multiplicative independence, power
and Chebyshev normal forms, commuting polynomials, and a desk-scale probe
for polynomial relations along a pair of orbits.

None of these touch algebraic numbers: exceptionality reduces to two exact
one-point tests on one-step fibers, special forms are decided in depressed
normal form with rational affine conjugations, and the genericity probe
screens kernels modulo large primes (its rows reduce the exact orbit
points it verifies on), reconstructs candidates once modulo the product
of those primes, and verifies every candidate relation exactly on the
rational orbit points.  Its None is certified only when a kernel is
empty; after failed verification it is not.
"""

from __future__ import annotations

import contextlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count

from .bivariate import BivariatePolynomial, homogeneous_powers
from .errors import BudgetExceededError, DomainError, IndeterminateError
from .exact import _iroot, factor, next_prime
from .heights import _orbit_scan, canonical_height
from .linalg import kernels_modp, rational_reconstruct
from .maps import (DEFAULT_DEGREE_BUDGET, DEFAULT_ORBIT_DIGIT_BUDGET, INFINITY, ProjPoint,
                   RationalMap, compose, conjugate, fiber_polynomial, orbit)
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

    ``witness`` is the affine conjugation x -> u x + w onto the normal
    form, a degree-1 :class:`RationalMap`, present exactly when the tag is
    not NOT_SPECIAL and verified by exact conjugation.  ``caveat`` marks
    polynomials whose depressed form matches a family but whose
    conjugation would need an irrational scale factor (the search is
    restricted to rational affine maps).
    """

    tag: str
    witness: RationalMap | None = None
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


def special_form(poly: Polynomial) -> SpecialForm:
    """Decide conjugacy (by a rational affine map) to x^d or to the
    Chebyshev normal form T_d.

    The polynomial is first depressed by the unique translation killing
    the degree-(d-1) coefficient; the remaining freedom is a scaling
    x -> u x, which turns the depressed form's leading coefficient c into
    c u^(1-d).  Both normal forms are monic, so u is a rational (d-1)-th
    root of c.  When d - 1 is even, -u is one too, but both normal forms
    are then odd functions, so -u matches exactly when u does.  The target
    is x^d when the depressed form is a monomial and T_d otherwise; u is
    accepted when every coefficient is t_k u^(k-1) and the conjugation is
    verified exactly.  Otherwise the caveat flag marks a depressed form
    that matches a family at an irrational scale: a monomial, or, for odd
    d, T_d(u x)/u with u^2 rational but u irrational.

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
    num, den = conjugate(f, RationalMap([v, 1])).forms
    dep = [Fraction(a, den[0]) for a in num]
    monomial = not any(dep[:d])
    target = [0] * d + [1] if monomial else chebyshev_polynomial(d).coeffs
    u = _rational_nth_root(dep[d], d - 1)
    # dep_k = t_k u^(k-1) for every k; a zero t_k needs no power of u
    if u is not None and all(dep[k] == (t and t * u ** (k - 1)) for k, t in enumerate(target)):
        sigma = RationalMap([u * v, u])
        if conjugate(f, sigma) == RationalMap(target):
            return SpecialForm(POWER_CONJUGATE if monomial else CHEBYSHEV_CONJUGATE, sigma)
    caveat = monomial
    if not monomial and d % 2 and dep[d - 2]:
        # odd d: every exponent k - 1 of a nonzero t_k is even, so matching
        # T_d(u x)/u is a statement about u^2 = -d c / dep_(d-2) alone, and
        # a match here has an irrational u (a rational one matched above)
        u_sq = -d * dep[d] / dep[d - 2]
        caveat = all(dep[k] == (t and t * u_sq ** ((k - 1) // 2))
                     for k, t in enumerate(target))
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


def _orbit_rows_modp(f, g, pairs, monomials, deg_max, n_rows, primes):
    """(live primes, rows modulo their product) for orbit steps 1..n_rows.

    ``pairs`` holds the exact orbit pairs at steps 0..n_usable.  Rows up to
    n_usable reduce them modulo the product m of ``primes``, skipping the
    steps where either point is at infinity; rows past n_usable come from
    one walk of both orbits modulo m, started at the last exact pair.  A
    walked pair is the exact one times a unit, so each row is a unit
    multiple of the exact row and the row space is the same.  A prime dies
    where a row's point is at infinity modulo it, which includes a walked
    point that is (0 : 0) modulo it."""
    m = math.prod(primes)
    dead = set()
    rows = []

    def add_row(xr, xs, yr, ys):
        if (d := math.gcd(xs * ys, m)) > 1:
            dead.update(p for p in primes if d % p == 0)
        # the affine row x^i y^j times the unit (xs ys)^deg_max: the same
        # row space, so the same RREF and kernel basis
        xcol = [v % m for v in homogeneous_powers(xr, xs, deg_max)]
        ycol = [v % m for v in homogeneous_powers(yr, ys, deg_max)]
        rows.append([xcol[i] * ycol[j] % m for i, j in monomials])
    for (xr, xs), (yr, ys) in pairs[1:n_rows + 1]:
        if xs and ys:
            add_row(xr % m, xs % m, yr % m, ys % m)
    (xr, xs), (yr, ys) = pairs[-1]
    xr, xs, yr, ys = xr % m, xs % m, yr % m, ys % m
    for _ in range(len(pairs), n_rows + 1):
        xr, xs = (c % m for c in f.form_values(xr, xs))
        yr, ys = (c % m for c in g.form_values(yr, ys))
        add_row(xr, xs, yr, ys)
    live = [p for p in primes if p not in dead]
    if dead:
        m = math.prod(live)
        rows = [[v % m for v in row] for row in rows] if live else []
    return live, rows


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
    on every call), over a window _SCREEN_MARGIN rows past the monomial
    count (so interpolation artifacts on short windows die).  The rows up
    to ``n_points`` (fewer when the digit budget cuts the orbits short)
    reduce the exact orbit points; only the rows past them come from a
    walk of both orbits in modular arithmetic, started at the last exact
    point.  The primes are drawn in batches of those still needed, and a
    batch costs one elimination modulo the product of its primes; a prime
    at which a screened orbit point is at infinity is dropped and the next
    is drawn, as if the primes were screened one at a time.
    An empty mod-p kernel certifies there is no relation.  Surviving
    kernel vectors are lifted by rational reconstruction once, modulo the
    product of the screening primes (coefficients up to about 2^89), or
    modulo each prime (about 2^30) when the primes disagree on a pivot,
    and verified exactly, in integers, at the first ``n_points`` exact
    orbit points; only a verified relation is ever returned.  A None after
    every candidate failed verification is not a certificate: a relation
    with larger coefficients may exist.  When no orbit step has both points
    finite, no point can be tested, and it raises :class:`IndeterminateError`.
    """
    if deg_max < 1:
        raise DomainError("deg_max must be >= 1")
    if n_points < 1:
        raise DomainError("n_points must be >= 1")
    a, b = ProjPoint.of(a), ProjPoint.of(b)
    monomials = _monomials(deg_max)
    n_screen = max(n_points, len(monomials) + _SCREEN_MARGIN)

    # the exact orbit pairs at steps 0..n_usable, each orbit on the full budget
    orbits = ([], [])
    for points, walk in zip(orbits, ((f, a), (g, b))):
        with contextlib.suppress(BudgetExceededError):
            points.extend(p for (p,) in orbit([walk], n_points, digit_budget))
    pairs = [(pa.pair(), pb.pair()) for pa, pb in zip(*orbits)]
    n_usable = len(pairs) - 1
    if n_usable < 1:
        raise BudgetExceededError(
            "orbit digit budget too small to collect a single probe point"
        )
    # steps where either point is at infinity are skipped
    exact_points = [(x, y) for x, y in pairs[1:] if x[1] and y[1]]
    if not exact_points:
        raise IndeterminateError("no probe point could be tested: every orbit "
                                 f"step 1..{n_usable} has a point at infinity")

    if seed is None:   # fresh entropy on every call: nothing to memoize
        rng = random.Random()
        primes = (next_prime(rng.randrange(1 << 60, 1 << 61)) for _ in count())
    else:
        primes = (_screen_prime(seed, i) for i in count())
    groups: list[tuple[int, list[list[int]]]] = []   # (modulus, kernel basis)
    screened = 0
    for window in (n_screen, n_usable):
        attempts = 0
        while screened < _SCREEN_PRIMES and attempts < 8 * _SCREEN_PRIMES:
            # the primes the one-at-a-time screen would surely draw next
            batch = [next(primes) for _ in range(min(_SCREEN_PRIMES - screened,
                                                     8 * _SCREEN_PRIMES - attempts))]
            attempts += len(batch)
            live, rows = _orbit_rows_modp(f, g, pairs, monomials, deg_max, window, batch)
            if not rows:
                continue
            for modulus, basis in kernels_modp(rows, live):
                if not basis:
                    return None
                groups.append((modulus, basis))
            screened += len(live)
        if groups:
            break
    if not groups:
        raise IndeterminateError("mod-p screening failed for every sampled prime")

    candidates: list[BivariatePolynomial] = []
    seen_polys = set()
    for modulus, basis in groups:
        for vec in basis:
            lifted = [rational_reconstruct(v, modulus) for v in vec]
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
