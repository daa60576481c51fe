import math
import random
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbitgcd import classify, linalg
from orbitgcd.bivariate import BivariatePolynomial
from orbitgcd.classify import (CHEBYSHEV_CONJUGATE, NOT_SPECIAL,
                               POWER_CONJUGATE, CurveRelation, chebyshev_polynomial,
                               commutes, is_exceptional, is_preperiodic, mult_indep,
                               probe_genericity, special_form)
from orbitgcd.errors import BudgetExceededError, DomainError, IndeterminateError
from orbitgcd.exact import next_prime
from orbitgcd.linalg import kernel_modp, rational_reconstruct
from orbitgcd.maps import (DEFAULT_ORBIT_DIGIT_BUDGET, INFINITY, ProjPoint, RationalMap,
                           conjugate, evaluate, fiber_polynomial, iterate, self_compose)
from orbitgcd.polys import Polynomial, multiplicity_at, primitive

X2 = RationalMap([0, 0, 1])
X2P1 = RationalMap([1, 0, 1])
X2M1 = RationalMap([-1, 0, 1])
X3X = RationalMap([0, 1, 0, 1])


def test_exceptional_examples():
    assert is_exceptional(X2, 0) is True
    assert is_exceptional(X2, INFINITY) is True
    assert is_exceptional(X2M1, 0) is False
    assert is_exceptional(X2, 1) is False
    assert is_exceptional(X3X, INFINITY) is True
    with pytest.raises(DomainError):
        is_exceptional(RationalMap([0, 1]), 0)


def test_exceptional_swap_pair():
    # 1/x^2 swaps 0 and infinity; both are exceptional
    inv_sq = RationalMap([1], [0, 0, 1])
    assert is_exceptional(inv_sq, 0) is True
    assert is_exceptional(inv_sq, INFINITY) is True
    assert is_exceptional(inv_sq, 1) is False


def test_exceptional_singleton_second_fiber_but_infinite_backward_orbit():
    # f = 6/(3 - x^2): f^{-1}(2) = {0}, f^{-1}(0) = {oo}, yet f^{-1}(oo) has
    # two points, so 2 is not exceptional even though f^{-2}(2) is a singleton
    f = RationalMap([6], [3, 0, -1])
    assert is_exceptional(f, 2) is False


def test_exceptional_mobius_invariance():
    rng = random.Random(19)
    cases = [(X2, ProjPoint(0)), (X2, INFINITY), (X2M1, ProjPoint(0)),
             (X2, ProjPoint(1)), (X3X, INFINITY)]
    for f, alpha in cases:
        base = is_exceptional(f, alpha)
        for _ in range(10):
            kind = rng.randrange(3)
            if kind == 0:
                m = RationalMap([rng.randint(-3, 3), 1])      # x + t
            elif kind == 1:
                m = RationalMap([0, rng.randint(1, 4)])       # u x
            else:
                m = RationalMap([1], [0, 1])                  # 1/x
            image = m(alpha)
            assert is_exceptional(conjugate(f, m), image) == base


# --- is_exceptional against the fiber of f o f ---


def reference_exceptional(f, alpha):
    """f^{-2}(alpha) = {alpha}, read from the fiber of f o f itself: it is
    (x - alpha)^(d^2) with nothing at infinity, or, for alpha = infinity,
    lies wholly at infinity (a constant fiber polynomial)."""
    fib, at_infinity = fiber_polynomial(self_compose(f, 2), alpha)
    if alpha.is_infinity:
        return len(fib) == 1
    return at_infinity == 0 and multiplicity_at(Polynomial(fib), alpha.value) == f.degree**2


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


SMALL = st.integers(-3, 3)
RATIONALS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
# x -> (p x + q) / (r x + s) with p s != q r, drawn as (p, q, r, s)
MOBIUS = (st.tuples(SMALL, SMALL, SMALL, SMALL)
          .filter(lambda m: m[0] * m[3] != m[1] * m[2])
          .map(lambda m: RationalMap([m[1], m[0]], [m[3], m[2]])))


@st.composite
def exceptional_cases(draw):
    """(f, targets, planted) for f of degree 2 or 3.

    - Mobius conjugates of x^d and 1/x^d: the images of 0 and infinity are
      planted exceptional points (fixed, or swapped).
    - f = alpha + k (x - beta)^d / Q: alpha has the single preimage beta
      (infinity when the top is the constant k), and is planted when
      beta = alpha.
    - random num/den with small coefficients."""
    d = draw(st.integers(2, 3))
    kind = draw(st.sampled_from(["conjugate", "single-preimage", "random"]))
    targets = [INFINITY, ProjPoint(draw(RATIONALS))]
    if kind == "conjugate":
        m = draw(MOBIUS)
        base = RationalMap([0] * d + [1]) if draw(st.booleans()) else \
            RationalMap([1], [0] * d + [1])
        planted = [m(0), m(INFINITY)]
        return conjugate(base, m), targets + planted, planted
    den = draw(st.lists(SMALL, min_size=1, max_size=d + 1).filter(any))
    planted = []
    if kind == "single-preimage":
        alpha = draw(RATIONALS)
        beta = draw(st.one_of(st.just(alpha), RATIONALS, st.none()))
        top = [draw(SMALL.filter(bool))]
        if beta is not None:
            for _ in range(d):
                top = poly_mul(top, [-beta, 1])
        num = [t + alpha * c for t, c in zip_longest(top, den, fillvalue=0)]
        targets += [ProjPoint(alpha), ProjPoint(beta)]       # beta None is infinity
        if beta == alpha:
            planted.append(ProjPoint(alpha))
    else:
        num = draw(st.lists(SMALL, min_size=1, max_size=d + 1))
    try:
        f = RationalMap(num, den)
    except DomainError:
        assume(False)
    assume(f.degree == d)
    return f, targets + [evaluate(f, targets[1])], planted


@settings(max_examples=400, deadline=None, derandomize=True)
@given(exceptional_cases())
def test_is_exceptional_matches_the_fiber_of_f_squared(case):
    f, targets, planted = case
    for alpha in targets:
        assert is_exceptional(f, alpha) == reference_exceptional(f, alpha)
    assert all(is_exceptional(f, alpha) for alpha in planted)


def test_preperiodic_examples():
    assert is_preperiodic(X2, 1) is True
    assert is_preperiodic(X2M1, 0) is True
    assert is_preperiodic(X2, 3) is False
    assert is_preperiodic(X2, Fraction(1, 2)) is False
    assert is_preperiodic(X2, INFINITY) is True
    # budget 1 settles neither: the canonical-height fallback decides, by
    # its exact zero (-1 -> 1 -> 1) and by its numeric sign test
    assert is_preperiodic(X2, -1, budget=1) is True
    assert is_preperiodic(X2, 3, budget=1) is False


def test_mult_indep_examples_and_invariances():
    assert mult_indep(125, 25) is False
    assert mult_indep(2, 3) is True
    assert mult_indep(6, 12) is True
    assert mult_indep(1, 5) is False
    assert mult_indep(-1, 5) is False
    with pytest.raises(DomainError):
        mult_indep(0, 3)
    rng = random.Random(21)
    for _ in range(100):
        a = Fraction(rng.randint(2, 50), rng.randint(1, 9))
        b = Fraction(rng.randint(2, 50), rng.randint(1, 9))
        if abs(a) == 1 or abs(b) == 1:
            continue
        base = mult_indep(a, b)
        assert mult_indep(b, a) == base
        assert mult_indep(1 / a, b) == base
        k = rng.choice([2, 3, -2])
        assert mult_indep(a**k, b) == base


def test_special_form_examples():
    assert special_form(Polynomial([0, 0, 0, 1])).tag == POWER_CONJUGATE
    res = special_form(Polynomial([-2, 0, 1]))
    assert res.tag == CHEBYSHEV_CONJUGATE and res.witness is not None
    res = special_form(Polynomial([0, 1, 0, 1]))
    assert res.tag == NOT_SPECIAL and not res.caveat
    with pytest.raises(DomainError):
        special_form(Polynomial([1, 1]))


def test_special_form_recognizes_hidden_conjugates():
    rng = random.Random(31)
    for d in (2, 3, 4):
        for _ in range(10):
            u = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            v = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            m_inv = RationalMap([-v, 1], [u])      # the inverse of x -> u x + v
            for target, tag in ((Polynomial([0] * d + [1]), POWER_CONJUGATE),
                                (chebyshev_polynomial(d), CHEBYSHEV_CONJUGATE)):
                conj = conjugate(RationalMap(target), m_inv)
                poly = Polynomial([c / conj.den.coeff(0) for c in conj.num.coeffs])
                got = special_form(poly)
                assert got.tag == tag, (d, u, v, tag)
                # witness verified by exact conjugation
                back = conjugate(RationalMap(poly), got.witness)
                assert back == RationalMap(target)


@pytest.mark.parametrize("poly, tag, target", [
    # c x^2 ~ x^2 by x -> c x; c = 10^17 + 7 has no exact float root
    (Polynomial([0, 0, 10**17 + 7]), POWER_CONJUGATE, Polynomial([0, 0, 1])),
    # u^2 x^3 - 3x = T_3(u x) / u with u = 10^20 + 3
    (Polynomial([0, -3, 0, (10**20 + 3) ** 2]), CHEBYSHEV_CONJUGATE,
     chebyshev_polynomial(3)),
])
def test_special_form_large_scale(poly, tag, target):
    got = special_form(poly)
    assert got.tag == tag and not got.caveat
    assert conjugate(RationalMap(poly), got.witness) == RationalMap(target)


def test_special_form_recognizes_hidden_conjugates_at_large_scales():
    rng = random.Random(47)
    for d in (2, 3, 4, 5):
        for _ in range(6):
            u = Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**30),
                         rng.randint(1, 10**12))
            v = Fraction(rng.randint(-10**20, 10**20), rng.randint(1, 10**9))
            m_inv = RationalMap([-v, 1], [u])      # the inverse of x -> u x + v
            for target, tag in ((Polynomial([0] * d + [1]), POWER_CONJUGATE),
                                (chebyshev_polynomial(d), CHEBYSHEV_CONJUGATE)):
                conj = conjugate(RationalMap(target), m_inv)
                poly = Polynomial([c / conj.den.coeff(0) for c in conj.num.coeffs])
                got = special_form(poly)
                assert got.tag == tag, (d, u, v, tag)
                assert conjugate(RationalMap(poly), got.witness) == RationalMap(target)


def test_special_form_caveat_cases():
    # 2x^3 ~ x^3 only via scale sqrt(2); -x^3 ~ x^3 only via imaginary scale
    assert special_form(Polynomial([0, 0, 0, 2])) == \
        special_form(Polynomial([0, 0, 0, 2]))
    res = special_form(Polynomial([0, 0, 0, 2]))
    assert res.tag == NOT_SPECIAL and res.caveat
    res = special_form(Polynomial([0, 0, 0, -1]))
    assert res.tag == NOT_SPECIAL and res.caveat
    # T_3 scaled by sqrt(2): 2x^3 - 3x
    res = special_form(Polynomial([0, -3, 0, 2]))
    assert res.tag == NOT_SPECIAL and res.caveat
    # a genuinely non-special cubic has no caveat
    res = special_form(Polynomial([0, 1, 0, 1]))
    assert not res.caveat


def test_chebyshev_polynomial_recurrence_and_defining_property():
    assert chebyshev_polynomial(2) == Polynomial([-2, 0, 1])
    assert chebyshev_polynomial(3) == Polynomial([0, -3, 0, 1])
    assert chebyshev_polynomial(4) == Polynomial([2, 0, -4, 0, 1])
    # T_d(z + 1/z) = z^d + 1/z^d at sample rational z
    for d in (2, 3, 4, 5):
        td = chebyshev_polynomial(d)
        for z in (Fraction(2), Fraction(3, 2), Fraction(-5, 3)):
            assert td.evaluate(z + 1 / z) == z**d + 1 / z**d


def test_commutes_examples():
    assert commutes(Polynomial([0, -1]), Polynomial([0, 1, 0, 1]), 1) == 1
    assert commutes(Polynomial([0, 0, 1]), Polynomial([0, 0, 1]), 1) == 1
    assert commutes(Polynomial([1, 1]), Polynomial([0, 0, 1]), 3) is None
    # h commutes with f^2 but not f: h = x^2, f = -x^3 (f^2 = x^9)
    assert commutes(Polynomial([0, 0, 1]), Polynomial([0, 0, 0, -1]), 2) == 2
    with pytest.raises(BudgetExceededError):
        commutes(Polynomial([1, 0, 1]), Polynomial([0] * 8 + [1]), 5,
                 degree_budget=100)


def test_probe_detects_odd_symmetry_relation():
    rel = probe_genericity(X3X, X3X, 1, -1, 1, 8, seed=7)
    assert rel is not None
    assert rel.polynomial.terms == {(1, 0): 1, (0, 1): 1}
    assert rel.degree_bound == 1 and rel.points_tested == 8


def test_probe_detects_power_relation():
    rel = probe_genericity(X2, X2, 125, 25, 3, 12, seed=7)
    assert rel is not None
    # x^2 = y^3 up to sign/scaling
    terms = rel.polynomial.terms
    assert set(terms) == {(2, 0), (0, 3)}
    assert terms[(2, 0)] == -terms[(0, 3)]


def test_probe_returns_none_for_generic_pair():
    assert probe_genericity(X2P1, X2M1, 1, 2, 4, 12, seed=7) is None


def test_probe_never_returns_unverified_relation():
    rng = random.Random(47)
    configs = [
        (X3X, X3X, ProjPoint(1), ProjPoint(-1), 1, 8),
        (X2, X2, ProjPoint(125), ProjPoint(25), 3, 12),
        (X2, X2, ProjPoint(2), ProjPoint(4), 2, 10),      # y = x^2 relation
        (X2P1, X2M1, ProjPoint(1), ProjPoint(2), 3, 10),  # none expected
    ]
    for f, g, a, b, deg_max, n_points in configs:
        rel = probe_genericity(f, g, a, b, deg_max, n_points,
                               seed=rng.randrange(10**6))
        if rel is None:
            continue
        xs = iterate(f, a, n_points)
        ys = iterate(g, b, n_points)
        for n in range(1, n_points + 1):
            assert rel.polynomial.evaluate(xs[n].value, ys[n].value) == 0


def test_probe_seed_determinism():
    r1 = probe_genericity(X2, X2, 125, 25, 3, 12, seed=11)
    r2 = probe_genericity(X2, X2, 125, 25, 3, 12, seed=11)
    assert r1.polynomial == r2.polynomial


def test_probe_partial_result_under_tight_budget():
    # when the digit budget truncates the exact orbits the probe degrades to
    # the points actually collected instead of failing
    rel = probe_genericity(X3X, X3X, 1, -1, 1, 8, seed=7, digit_budget=60)
    assert rel is not None
    assert rel.polynomial.terms == {(1, 0): 1, (0, 1): 1}
    assert 1 <= rel.points_tested < 8


def test_probe_with_no_finite_step_is_indeterminate():
    # x^2 + 1 fixes oo, so every step pairs oo with a point of x^2 - 1's
    # orbit: no point can be tested (the orbit lies on the line x = oo),
    # and the probe says so instead of returning a bare None
    for deg_max, n_points in ((1, 8), (2, 12)):
        with pytest.raises(IndeterminateError, match="no probe point could be tested"):
            probe_genericity(X2P1, X2M1, INFINITY, 2, deg_max, n_points)


def reference_probe(f, g, a, b, deg_max, n_points, seed=0, *,
                    digit_budget=DEFAULT_ORBIT_DIGIT_BUDGET):
    """The probe as it was before its primes were memoized: a fresh prime
    search per call, affine mod-p rows through modular inverses, and
    Fraction verification by ``BivariatePolynomial.evaluate``."""
    if deg_max < 1:
        raise DomainError("deg_max must be >= 1")
    if n_points < 1:
        raise DomainError("n_points must be >= 1")
    a, b = ProjPoint.of(a), ProjPoint.of(b)
    monomials = classify._monomials(deg_max)
    n_screen = max(n_points, len(monomials) + 8)

    def orbit(h, start):
        try:
            return iterate(h, start, n_points, digit_budget)
        except BudgetExceededError as err:
            return err.partial
    orbit_a, orbit_b = orbit(f, a), orbit(g, b)
    n_usable = min(len(orbit_a), len(orbit_b)) - 1
    if n_usable < 1:
        raise BudgetExceededError(
            "orbit digit budget too small to collect a single probe point")
    skip = {n for n in range(1, n_usable + 1)
            if orbit_a[n].is_infinity or orbit_b[n].is_infinity}
    exact_points = [(orbit_a[n].value, orbit_b[n].value)
                    for n in range(1, n_usable + 1) if n not in skip]
    if not exact_points:
        return None

    def rows_modp(window, p):
        xr, xs = (c % p for c in a.pair())
        yr, ys = (c % p for c in b.pair())
        rows = []
        for n in range(1, window + 1):
            xr, xs = (c % p for c in f.form_values(xr, xs))
            yr, ys = (c % p for c in g.form_values(yr, ys))
            if (xr == 0 and xs == 0) or (yr == 0 and ys == 0):
                return None
            if n in skip:
                continue
            if xs == 0 or ys == 0:
                return None
            xv, yv = xr * pow(xs, -1, p) % p, yr * pow(ys, -1, p) % p
            rows.append([pow(xv, i, p) * pow(yv, j, p) % p for i, j in monomials])
        return rows

    rng = random.Random(seed)
    collected = []
    for window in (n_screen, n_usable):
        attempts = 0
        while len(collected) < 3 and attempts < 24:
            attempts += 1
            p = next_prime(rng.randrange(1 << 60, 1 << 61))
            rows = rows_modp(window, p)
            if not rows:
                continue
            basis = kernel_modp(rows, p)
            if not basis:
                return None
            collected.append((p, basis))
        if collected:
            break
    if not collected:
        raise IndeterminateError("mod-p screening failed for every sampled prime")
    candidates = []
    for p, basis in collected:
        for vec in basis:
            lifted = [rational_reconstruct(v, p) for v in vec]
            if any(c is None for c in lifted):
                continue
            poly = BivariatePolynomial(
                {m: c for m, c in zip(monomials, primitive(lifted)) if c})
            if not poly.is_zero and poly not in candidates:
                candidates.append(poly)
    verified = [poly for poly in candidates
                if all(poly.evaluate(x, y) == 0 for x, y in exact_points)]
    if not verified:
        return None
    verified.sort(key=lambda poly: (
        len(poly.terms), poly.total_degree(),
        sorted(poly.terms, key=lambda m: (m[0] + m[1], m[0], m[1]))))
    return CurveRelation(verified[0], deg_max, len(exact_points))


def _outcome(probe, *args, **kwargs):
    try:
        return probe(*args, **kwargs)
    except (BudgetExceededError, DomainError, IndeterminateError) as err:
        return type(err), str(err)


def _probe_sweep():
    """(args, kwargs, K) per case: K for the planted y = K x past one prime's
    reconstruction reach, None for the cases that match reference_probe."""
    rng = random.Random(13)
    cases = []
    for k in range(2, 9):                                  # planted y = K x
        K = rng.randint(10**k, 10**(k + 1) - 1) if k < 8 else 10**8
        g = RationalMap([0, 0, Fraction(1, K)])
        for seed in (0, 1, rng.randrange(10**6)):
            a = rng.randint(2, 9)
            cases.append(((X2, g, a, K * a, 1, 8), {"seed": seed}, None))
    for K in (10**10, 10**20):      # past one prime's reach, within the product's
        for deg_max in (1, 2):
            g = RationalMap([0, 0, Fraction(1, K)])
            cases.append(((X2, g, 3, 3 * K, deg_max, 12), {"seed": 0}, K))
    for c1, c2 in ((1, -1), (-2, 3), (Fraction(1, 3), -1), (2, 2)):   # x^2 + c pairs
        f, g = RationalMap([c1, 0, 1]), RationalMap([c2, 0, 1])
        for deg_max in (1, 2, 3):
            for seed in (0, 7):
                cases.append(((f, g, 1, 2, deg_max, 10), {"seed": seed}, None))
    for budget in (1, 20, 40, 60):                         # tight digit budgets
        cases.append(((X3X, X3X, 1, -1, 1, 8), {"seed": 7, "digit_budget": budget}, None))
        cases.append(((X2, X2, 125, 25, 3, 12), {"seed": 3, "digit_budget": budget}, None))
    cases.append(((X2, X2, 2, 4, 2, 10), {"seed": 5}, None))      # y = x^2
    cases.append(((X2, X2, 2, 4, 0, 10), {"seed": 5}, None))      # deg_max < 1
    return cases


def test_probe_matches_reference_probe():
    outcomes = set()
    matched = 0
    for args, kwargs, planted in _probe_sweep():
        want = _outcome(reference_probe, *args, **kwargs)
        got = _outcome(probe_genericity, *args, **kwargs)
        if planted:
            # reference_probe reconstructs modulo one 61-bit prime (about 2^30
            # reach) and rejects the wrong lifts; the product of the three
            # primes reaches about 2^89, so y = K x is found and verified
            assert want is None, (args, kwargs)
            assert got.polynomial.terms == {(0, 1): -1, (1, 0): planted}, (args, kwargs)
            assert got.points_tested == 12
            continue
        assert got == want, (args, kwargs)
        matched += 1
        outcomes.add(want if want is None or isinstance(want, tuple) else "relation")
    assert matched == 55
    # the sweep reaches relations, None and both raised errors
    assert {None, "relation"} <= outcomes
    assert {o[0] for o in outcomes if isinstance(o, tuple)} == {BudgetExceededError,
                                                               DomainError}


def _planted(K):
    """x^2 and x^2 / K from 3 and 3 K: y = K x at every orbit step."""
    return X2, RationalMap([0, 0, Fraction(1, K)]), 3, 3 * K


def test_probe_finds_planted_scales_within_the_product_reach():
    # the kernel vector's entry 1/K reconstructs modulo the product m of the
    # three 61-bit primes while K <= sqrt(m / 2): at least 2^89.5, and about
    # 1.7e27 for the primes of seed 0
    for k in range(2, 28):
        K = 10**k
        rel = probe_genericity(*_planted(K), 1, 8, seed=0)
        assert rel is not None, k
        assert rel.polynomial.terms == {(0, 1): -1, (1, 0): K}, k
        assert rel.points_tested == 8


def test_probe_past_the_product_reach_returns_an_uncertified_none():
    # y = 10^28 x holds on the orbit, but 10^28 is past the reconstruction
    # reach: the kernel modulo the primes is nonempty, no lift verifies, and
    # the probe returns None.  This None is not a certificate of genericity
    # (the multi-prime lift that removes it is an open roadmap item).
    K = 10**28
    assert probe_genericity(*_planted(K), 1, 8, seed=0) is None
    m = math.prod(classify._screen_prime(0, i) for i in range(3))
    assert K > math.isqrt(m // 2)


def test_planted_relations_match_sympy_nullspace_over_q():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    monomials = classify._monomials(1)
    for k in list(range(2, 29)) + [40]:
        K = 10**k
        f, g, a, b = _planted(K)
        xs, ys = iterate(f, ProjPoint(a), 8), iterate(g, ProjPoint(b), 8)
        matrix = DomainMatrix(
            [[sympy.QQ(xs[n].value ** i * ys[n].value ** j) for i, j in monomials]
             for n in range(1, 9)], (8, len(monomials)), sympy.QQ)
        # over Q the kernel is the line of y - K x, at every scale
        (null,) = matrix.nullspace().to_Matrix().tolist()
        want = dict(zip(monomials, null))
        assert want[(0, 0)] == want[(1, 1)] == 0 and want[(1, 0)] == -K * want[(0, 1)]
        rel = probe_genericity(f, g, a, b, 1, 8, seed=0)
        if k <= 27:
            # the found relation is a nonzero vector of that one-dimensional kernel
            got = [rel.polynomial.terms.get(mono, 0) for mono in monomials]
            assert any(got)
            assert matrix.to_Matrix() * sympy.Matrix(got) == sympy.zeros(8, 1)
        else:
            # a relation exists over Q, so this None is uncertified
            assert rel is None


def test_planted_relation_is_reconstructed_once_modulo_the_product(monkeypatch):
    moduli = []
    real = classify.rational_reconstruct

    def counting(v, modulus):
        moduli.append(modulus)
        return real(v, modulus)
    monkeypatch.setattr(classify, "rational_reconstruct", counting)
    rel = probe_genericity(*_planted(10**5), 1, 8, seed=0)
    assert rel.polynomial.terms == {(0, 1): -1, (1, 0): 10**5}
    # one kernel vector of four entries, each lifted once
    assert moduli == [math.prod(classify._screen_prime(0, i) for i in range(3))] * 4


def test_vanishes_at_matches_fraction_evaluation():
    rng = random.Random(5)
    for _ in range(200):
        poly = BivariatePolynomial({
            (rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            for _ in range(rng.randint(0, 4))})
        x = (rng.randint(-20, 20), rng.randint(1, 20))
        y = (rng.randint(-20, 20), rng.choice([-1, 1]) * rng.randint(1, 20))
        if rng.random() < 0.5 and not poly.is_zero:
            # move the constant term so that the point is a root
            poly = BivariatePolynomial({
                **poly.terms, (0, 0): poly.terms.get((0, 0), 0)
                - poly.evaluate(Fraction(*x), Fraction(*y))})
        want = poly.evaluate(Fraction(*x), Fraction(*y)) == 0
        assert poly.vanishes_at(x, y) is want
    with pytest.raises(DomainError):
        BivariatePolynomial({(1, 0): 1}).vanishes_at((1, 0), (1, 1))


def _stream_primes(seed, count):
    rng = random.Random(seed)
    return [next_prime(rng.randrange(1 << 60, 1 << 61)) for _ in range(count)]


def test_screen_prime_memo_returns_the_seed_stream():
    for seed in (0, 1, 7, 12345):
        want = _stream_primes(seed, 6)
        # ask out of order: each index replays the stream, not the calls made
        for i in (4, 0, 5, 2, 1, 3):
            assert classify._screen_prime(seed, i) == want[i]


def test_repeated_probes_search_primes_only_on_the_first_call(monkeypatch):
    calls = []

    def counting_next_prime(n):
        calls.append(n)
        return next_prime(n)
    monkeypatch.setattr(classify, "next_prime", counting_next_prime)
    classify._screen_prime.cache_clear()
    first = probe_genericity(X3X, X3X, 1, -1, 1, 8, seed=424242)
    assert len(calls) == 3
    for _ in range(3):
        assert probe_genericity(X3X, X3X, 1, -1, 1, 8, seed=424242) == first
    assert len(calls) == 3
    assert first == reference_probe(X3X, X3X, 1, -1, 1, 8, seed=424242)


def test_seed_none_draws_fresh_primes_on_every_call(monkeypatch):
    calls = []

    def counting_next_prime(n):
        calls.append(n)
        return next_prime(n)
    monkeypatch.setattr(classify, "next_prime", counting_next_prime)
    classify._screen_prime.cache_clear()
    for k in (1, 2):
        rel = probe_genericity(X3X, X3X, 1, -1, 1, 8, seed=None)
        assert rel is not None and rel.polynomial.terms == {(1, 0): 1, (0, 1): 1}
        assert len(calls) == 3 * k
    assert classify._screen_prime.cache_info().currsize == 0


def test_degenerate_first_prime_draws_the_next_of_the_stream(monkeypatch):
    seed = 99
    stream = _stream_primes(seed, 5)
    real_rows = classify._orbit_rows_modp
    used = []

    def rows_failing_the_first_prime(*args):
        # the batched walk, with stream[0] degenerate: dropped from the live primes
        *walk, batch = args
        used.extend(batch)
        return real_rows(*walk, [p for p in batch if p != stream[0]])
    monkeypatch.setattr(classify, "_orbit_rows_modp", rows_failing_the_first_prime)
    rel = probe_genericity(X3X, X3X, 1, -1, 1, 8, seed=seed)
    assert used == stream[:4]
    assert rel is not None and rel.polynomial.terms == {(1, 0): 1, (0, 1): 1}


def reference_orbit_rows_modp(f, g, pairs, monomials, deg_max, n_rows, p):
    """The screening rows for one prime, in affine coordinates through
    modular inverses: the exact pairs reduced modulo p at steps up to
    n_usable (points at infinity skipped), then a walk modulo p from the
    last exact pair; None when a row's point is at infinity modulo p."""
    def row(xr, xs, yr, ys):
        if xs % p == 0 or ys % p == 0:
            return None
        x, y = xr * pow(xs, -1, p) % p, yr * pow(ys, -1, p) % p
        return [pow(x, i, p) * pow(y, j, p) % p for i, j in monomials]
    rows = []
    for (xr, xs), (yr, ys) in pairs[1:n_rows + 1]:
        if xs and ys:
            rows.append(row(xr, xs, yr, ys))
    (xr, xs), (yr, ys) = pairs[-1]
    for _ in range(len(pairs), n_rows + 1):
        xr, xs = (c % p for c in f.form_values(xr, xs))
        yr, ys = (c % p for c in g.form_values(yr, ys))
        rows.append(row(xr, xs, yr, ys))
    return None if None in rows else rows


def test_batched_walk_matches_one_walk_per_prime():
    rng = random.Random(2424)
    big = _stream_primes(5, 3)
    dropped = kept = skipped = tails = 0
    for _ in range(400):
        num = [rng.randint(-4, 4) for _ in range(rng.choice([2, 3]))] + [rng.randint(1, 3)]
        fg = [RationalMap(num) if rng.random() < 0.5 else
                 RationalMap(num, [rng.randint(-3, 3), rng.randint(1, 3)]) for _ in range(2)]
        points = [ProjPoint(Fraction(rng.randint(-9, 9), rng.randint(1, 9))) for _ in range(2)]
        if rng.random() < 0.3:   # start at a pole: the first point is at infinity
            pole = [p for p in range(-9, 10)
                    if evaluate(fg[0], ProjPoint(p)).is_infinity]
            if pole:
                points[0] = ProjPoint(rng.choice(pole))
        deg_max = rng.randint(1, 2)
        n_usable = rng.randint(1, 4)
        n_rows = n_usable + rng.randint(0, 3)
        # the exact orbits at steps 0..n_usable, as the probe passes them
        pairs = [(pa.pair(), pb.pair()) for pa, pb in
                 zip(iterate(fg[0], points[0], n_usable), iterate(fg[1], points[1], n_usable))]
        primes = rng.sample(rng.choice([(2, 3, 5, 7, 11, 13), big, (3, 7) + tuple(big)]),
                            rng.randint(1, 3))
        args = (*fg, pairs, classify._monomials(deg_max), deg_max, n_rows)
        live, rows = classify._orbit_rows_modp(*args, primes)
        want = {p: reference_orbit_rows_modp(*args, p) for p in primes}
        assert live == [p for p in primes if want[p] is not None]
        for p in live:
            got = [[v % p for v in row] for row in rows]
            assert len(got) == len(want[p])
            # each row is the affine row times a unit: the (0, 0) entry
            for row, ref in zip(got, want[p]):
                assert row[0] and all(v == row[0] * r % p for v, r in zip(row, ref))
            assert kernel_modp(got, p) == kernel_modp(want[p], p)
        assert live or rows == []
        dropped += len(primes) - len(live)
        kept += len(live)
        skipped += any(not (x[1] and y[1]) for x, y in pairs[1:])
        tails += n_rows > n_usable
    assert dropped > 50 and kept > 50 and skipped > 20 and tails > 100


def test_generic_pair_is_decided_by_one_elimination(monkeypatch):
    calls = []
    real = linalg.kernel_modp

    def counting_kernel(rows, p):
        calls.append(p)
        return real(rows, p)
    monkeypatch.setattr(linalg, "kernel_modp", counting_kernel)
    for deg_max in (1, 2, 3):
        calls.clear()
        assert probe_genericity(X2P1, X2M1, 1, 2, deg_max, 10, seed=7) is None
        assert len(calls) == 1
        # modulo the product of the three screening primes
        assert calls[0] == math.prod(classify._screen_prime(7, i) for i in range(3))


def test_special_form_negative_scale_witness():
    # conjugation with a negative scale factor is found and verified
    m_inv = RationalMap([-3, 1], [Fraction(-1, 2)])    # the inverse of x -> -x/2 + 3
    conj = conjugate(RationalMap(chebyshev_polynomial(3)), m_inv)
    poly = Polynomial([c / conj.den.coeff(0) for c in conj.num.coeffs])
    got = special_form(poly)
    assert got.tag == CHEBYSHEV_CONJUGATE
    assert conjugate(RationalMap(poly), got.witness) == RationalMap(chebyshev_polynomial(3))


def reference_special_form(poly):
    """special_form as it was before the monic-scale rule: a power block,
    and Chebyshev scales from u^2 = -d dep_d / dep_(d-2) with a d = 2
    branch and an even-d quotient."""
    d = poly.degree
    if d < 2:
        raise DomainError("special-form test needs degree >= 2")
    f = RationalMap(poly)
    v = poly.coeff(d - 1) / (d * poly.leading)
    num, den = conjugate(f, RationalMap([v, 1])).forms
    dep = [Fraction(a, den[0]) for a in num]
    if not any(dep[:d]):
        u = classify._rational_nth_root(dep[d], d - 1)
        if u is not None:
            sigma = RationalMap([u * v, u])
            if conjugate(f, sigma) == RationalMap([0] * d + [1]):
                return classify.SpecialForm(POWER_CONJUGATE, sigma)
        return classify.SpecialForm(NOT_SPECIAL, None, caveat=True)
    cheb = chebyshev_polynomial(d)
    candidates = []
    caveat = False
    if d == 2:
        candidates.append(dep[d])
    elif dep[d - 2] != 0:
        u_sq = Fraction(-d) * dep[d] / dep[d - 2]
        u = classify._rational_nth_root(u_sq, 2)
        if u is not None:
            candidates.extend([u, -u])
        elif d % 2 == 1:
            caveat = all(dep[k] == cheb.coeff(k) * u_sq ** ((k - 1) // 2) if k % 2 == 1
                         else dep[k] == 0 for k in range(d + 1))
        elif u_sq ** ((d - 2) // 2) != 0:
            candidates.append(dep[d] / u_sq ** ((d - 2) // 2))
    for u in candidates:
        if u != 0 and all(dep[k] == cheb.coeff(k) * u ** (k - 1) for k in range(d + 1)):
            sigma = RationalMap([u * v, u])
            if conjugate(f, sigma) == RationalMap(cheb):
                return classify.SpecialForm(CHEBYSHEV_CONJUGATE, sigma)
    return classify.SpecialForm(NOT_SPECIAL, None, caveat=caveat)


def affine_conjugate_coeffs(target, u, w):
    """Coefficients of (T(u x + w) - w) / u, the conjugate of T by the
    inverse of x -> u x + w, by Horner's rule on coefficient lists."""
    out = [Fraction(0)]
    for c in reversed(target):
        out = poly_mul(out, [w, u])
        out[0] += c
    out[0] -= w
    return [c / u for c in out]


def _special_form_sweep():
    rng = random.Random(2303)

    def scale(top):
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, top), rng.randint(1, 10**3))

    def shift():
        return Fraction(rng.randint(-10**4, 10**4), rng.randint(1, 50))

    polys = []
    for d in range(2, 10):
        power = [0] * d + [1]
        cheb = chebyshev_polynomial(d).coeffs
        for _ in range(140):
            u = scale(rng.choice([3, 10**3, 10**6]))
            for target in (power, cheb):
                planted = affine_conjugate_coeffs(target, u, shift())
                polys.append(planted)
                near = list(planted)                       # one coefficient off
                near[rng.randrange(d)] += rng.choice([-1, 1, Fraction(1, 7)])
                polys.append(near)
        for _ in range(80):                                 # random polynomials
            polys.append([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d)]
                         + [rng.choice([-3, -1, 1, 2, 5])])
        for _ in range(20):                                 # monomial, any leading c
            c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 40), rng.randint(1, 9))
            polys.append(affine_conjugate_coeffs([0] * d + [c], 1, shift()))
        if d % 2:                         # T_d(u x)/u at an irrational or imaginary u
            for u_sq in (2, 3, 5, 6, Fraction(2, 3), -2, -4, Fraction(-9, 4), 12):
                dep = [cheb[k] * Fraction(u_sq) ** ((k - 1) // 2) for k in range(d + 1)]
                for _ in range(4):
                    polys.append(affine_conjugate_coeffs(dep, 1, shift()))
                near = list(dep)
                near[1] += 1
                polys.append(near)
    return [Polynomial(c) for c in polys]


def test_special_form_matches_reference_special_form():
    polys = _special_form_sweep()
    assert len(polys) >= 5000
    tags = set()
    for poly in polys:
        want = reference_special_form(poly)
        got = special_form(poly)
        assert got == want, poly
        tags.add((want.tag, want.caveat))
    # the sweep reaches both families, and non-special forms with and without caveat
    assert tags == {(POWER_CONJUGATE, False), (CHEBYSHEV_CONJUGATE, False),
                    (NOT_SPECIAL, False), (NOT_SPECIAL, True)}
