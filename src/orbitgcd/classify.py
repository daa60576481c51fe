"""Classification predicates for the dynamical hypotheses: exceptional
targets, preperiodic starting points, multiplicative independence, power
and Chebyshev normal forms, commuting polynomials, and a desk-scale probe
for polynomial relations along a pair of orbits.

None of these touch algebraic numbers: exceptionality reduces to two exact
one-point tests on one-step fibers, multiplicative independence is decided
by gcds (Euclid's algorithm on the exponents, with no factoring and no
budget), special forms are decided in depressed normal form with
rational affine conjugations, and the genericity probe screens a kernel
modulo one 182-bit prime (its rows reduce the exact orbit points it
verifies on), reconstructs candidates modulo that prime, and verifies
every candidate form exactly on the orbit points of P^1 x P^1, infinity
included.  Its None is certified by an empty kernel; a nonempty kernel
with no verified candidate raises.
"""

from __future__ import annotations

import contextlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count, islice

from .bivariate import BivariatePolynomial, homogeneous_powers
from .errors import BudgetExceededError, DomainError, IndeterminateError
from .exact import _iroot, next_prime
from .heights import _orbit_scan, canonical_height
from .linalg import kernel_modp, rational_reconstruct
from .maps import (DEFAULT_DEGREE_BUDGET, DEFAULT_ORBIT_DIGIT_BUDGET, INFINITY, ProjPoint,
                   RationalMap, compose, conjugate, fiber_polynomial, orbit)
from .polys import Polynomial, exact_div

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


def mult_indep(a, b) -> bool:
    """Multiplicative independence of two nonzero rationals: no relation
    a^m * b^n = 1 with (m, n) != (0, 0).

    Decided by Euclid's algorithm on exponents, with no factoring: +-1 are
    torsion and therefore dependent, and otherwise a and b are dependent
    exactly when |a|^+-1 = c^i and |b|^+-1 = c^j for one rational c > 1.

    >>> mult_indep(125, 25)
    False
    >>> mult_indep(2, 3)
    True
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise DomainError("multiplicative independence needs nonzero inputs")
    # xn/xd = max(|a|, 1/|a|) in lowest terms, which is 1 exactly when xn is
    (xn, xd), (yn, yd) = (sorted((abs(v.numerator), v.denominator), reverse=True)
                          for v in (a, b))
    while xn > 1 and yn > 1:
        if xn < yn:
            xn, xd, yn, yd = yn, yd, xn, xd
        # if x = c^i and y = c^j, the largest k with yn^k <= xn is i // j;
        # c's numerator is at least 2, so the float estimate is well conditioned
        k = max(1, int(math.log(xn) / math.log(yn)))
        while yn ** k > xn:
            k -= 1
        while yn ** (k + 1) <= xn:
            k += 1
        (qn, rn), (qd, rd) = divmod(xn, yn ** k), divmod(xd, yd ** k)
        if rn or rd:
            return True      # were x = c^i and y = c^j, y^k = c^(jk) would divide x
        # x / y^k and y generate what x and y do, and 1 makes both powers of y;
        # xn xd shrinks by (yn yd)^k >= 2, so the loop ends
        xn, xd = sorted((qn, qd), reverse=True)
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
    # f^k and f^k o h, each built with f as the outer map: compose costs
    # grow with the outer degree, which f^k would make d^k
    fk, fkh = RationalMap([0, 1]), h
    for k in range(1, k_max + 1):
        degree = fk.degree * f.degree * h.degree
        if degree > degree_budget:
            raise BudgetExceededError(f"symbolic degree {degree} exceeds budget at k={k}")
        fk, fkh = compose(f, fk), compose(f, fkh)
        if compose(h, fk) == fkh:
            return k
    return None


# --- genericity probe ---


@dataclass(frozen=True)
class CurveRelation:
    """A verified relation along the tested orbit window, ``polynomial``
    read as a form of bidegree (D, D) on P^1 x P^1, D = ``degree_bound``."""

    polynomial: BivariatePolynomial
    degree_bound: int
    points_tested: int


def _monomials(deg_max: int) -> list[tuple[int, int]]:
    return sorted(
        ((i, j) for i in range(deg_max + 1) for j in range(deg_max + 1)),
        key=lambda m: (m[0] + m[1], m[0], m[1]),
    )


def _orbit_rows_modp(f, g, pairs, monomials, deg_max, n_rows, p):
    """Rows modulo p for orbit steps 1..n_rows, or None when the draw of p
    is void.

    ``pairs`` holds the exact orbit pairs at steps 0..n_usable.  Rows up to
    n_usable reduce them modulo p; rows past n_usable come from one walk of
    both orbits modulo p, started at the last exact pair.  A walked pair is
    the exact one times a unit, so each row is a unit multiple of the exact
    row, until a walked point is (0 : 0) modulo p, or modulo a factor of p
    should p be a composite that passed BPSW, which voids the draw.  Every
    step gives its homogeneous row x_r^i x_s^(D-i) y_r^j y_s^(D-j),
    D = deg_max, points at infinity included, so the kernel is that of the
    exact rows."""
    steps = [(xr % p, xs % p, yr % p, ys % p) for (xr, xs), (yr, ys) in pairs[1:n_rows + 1]]
    (xr, xs), (yr, ys) = pairs[-1]
    xr, xs, yr, ys = xr % p, xs % p, yr % p, ys % p
    for _ in range(len(pairs), n_rows + 1):
        xr, xs = (c % p for c in f.form_values(xr, xs))
        yr, ys = (c % p for c in g.form_values(yr, ys))
        if math.gcd(xr, xs, p) > 1 or math.gcd(yr, ys, p) > 1:
            return None
        steps.append((xr, xs, yr, ys))
    rows = []
    for xr, xs, yr, ys in steps:
        xcol = [v % p for v in homogeneous_powers(xr, xs, deg_max)]
        ycol = [v % p for v in homogeneous_powers(yr, ys, deg_max)]
        rows.append([xcol[i] * ycol[j] % p for i, j in monomials])
    return rows


_SCREEN_MARGIN = 8   # mod-p window rows beyond the monomial count
_SCREEN_DRAWS = 8    # screening primes drawn before the screen gives up


def _screen_draw(rng: random.Random) -> int:
    """One draw of a screening stream, from [2^181, 2^182).  The prime after
    it reconstructs coefficients up to sqrt(p/2), in [2^90, 2^90.5): past
    10^27 and short of 10^28."""
    return rng.randrange(1 << 181, 1 << 182)


@lru_cache(maxsize=256)
def _screen_prime(seed, i: int) -> int:
    """The i-th prime of ``seed``'s screening stream: one random.Random(seed)
    whose k-th draw r gives the k-th prime next_prime(r).  Searched once per
    (seed, i) and kept; replaying the i cheap draws before it costs no
    primality test."""
    rng = random.Random(seed)
    for _ in range(i):
        _screen_draw(rng)
    return next_prime(_screen_draw(rng))


def probe_genericity(f: RationalMap, g: RationalMap, a, b,
                     deg_max: int, n_points: int, seed: int | None = 0,
                     *, digit_budget: int = DEFAULT_ORBIT_DIGIT_BUDGET,
                     ) -> CurveRelation | None:
    """Search for a relation of bidegree (deg_max, deg_max) along the
    paired orbits of a and b, as points of P^1 x P^1.

    The kernel of the monomial matrix is screened modulo one random
    182-bit prime p drawn from ``seed`` (an integer seed's primes are
    memoized, so a repeated seed skips the prime search and gets the same
    primes, and results, as a fresh draw; seed None draws new primes on
    every call), over a window _SCREEN_MARGIN rows past the monomial count
    (so interpolation artifacts on short windows die).  The rows up to
    ``n_points`` (fewer when the digit budget cuts the orbits short)
    reduce the exact orbit points; only the rows past them come from a
    walk of both orbits modulo p, started at the last exact point.  Every
    step gives a homogeneous row, points at infinity included.  A draw
    costs one walk and at most one elimination.  It is void when the walk
    reaches (0 : 0) modulo p, or when a pivot is not a unit, which only a
    composite p that passed BPSW can give; then the next prime is drawn,
    up to _SCREEN_DRAWS of them, and after that it raises
    :class:`IndeterminateError`.  An empty kernel with unit pivots
    certifies there is no relation over any modulus, and is the only None
    returned.  The kernel
    vectors are lifted by rational reconstruction modulo p (coefficients
    up to sqrt(p/2), at least 2^90) and verified exactly, in integers, at
    every exact orbit step 1..``n_points`` (fewer when the digit budget cuts
    the orbits short); only a verified relation is ever returned.  When no
    candidate verifies, a relation with larger coefficients may exist, and
    it raises :class:`IndeterminateError`.
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

    if seed is None:   # fresh entropy on every call: nothing to memoize
        rng = random.Random()
        primes = (next_prime(_screen_draw(rng)) for _ in count())
    else:
        primes = (_screen_prime(seed, i) for i in count())
    for p in islice(primes, _SCREEN_DRAWS):
        rows = _orbit_rows_modp(f, g, pairs, monomials, deg_max, n_screen, p)
        if rows is not None:
            with contextlib.suppress(ValueError):   # a pivot that is no unit: p is composite
                basis = kernel_modp(rows, p)
                break
    else:
        raise IndeterminateError("mod-p screening failed for every sampled prime "
                                 f"({_SCREEN_DRAWS} primes)")
    if not basis:
        return None

    # distinct candidates in order of first appearance; positive multiples are one key
    candidates: dict[BivariatePolynomial, None] = {}
    for vec in basis:
        lifted = [rational_reconstruct(v, p) for v in vec]
        if all(c is not None for c in lifted):
            poly = BivariatePolynomial(zip(monomials, lifted))
            if not poly.is_zero:
                candidates[poly] = None

    verified = [
        poly for poly in candidates
        if all(poly.vanishes_at(x, y, deg_max) for x, y in pairs[1:])
    ]
    if not verified:
        raise IndeterminateError(
            f"no candidate relation verifies on the {n_usable} window points: "
            f"{len(candidates)} tried from kernel dimension {len(basis)} "
            f"modulo {p.bit_length()} bits")
    verified.sort(key=lambda poly: (
        len(poly.terms), poly.total_degree(),
        sorted(poly.terms, key=lambda m: (m[0] + m[1], m[0], m[1])),
    ))
    return CurveRelation(verified[0], deg_max, n_usable)
