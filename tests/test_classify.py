import math
import random
import re
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbitgcd import classify, exact
from orbitgcd.bivariate import BivariatePolynomial
from orbitgcd.classify import (CHEBYSHEV_CONJUGATE, NOT_SPECIAL,
                               POWER_CONJUGATE, CurveRelation, chebyshev_polynomial,
                               commutes, is_exceptional, is_preperiodic, mult_indep,
                               probe_genericity, special_form)
from orbitgcd.errors import BudgetExceededError, DomainError, IndeterminateError
from orbitgcd.exact import Real, next_prime
from orbitgcd.heights import HeightEstimate
from orbitgcd.linalg import kernel_modp, rational_reconstruct
from orbitgcd.maps import (DEFAULT_DEGREE_BUDGET, DEFAULT_ORBIT_DIGIT_BUDGET, INFINITY,
                           ProjPoint, RationalMap, compose, conjugate, evaluate,
                           fiber_polynomial, iterate, self_compose)
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
    with pytest.raises(DomainError, match="degree >= 2"):
        is_preperiodic(RationalMap([1, 2]), 1)
    with pytest.raises(DomainError, match="budget must be >= 1"):
        is_preperiodic(X2, 1, budget=0)


def test_preperiodic_with_an_uncertified_height_is_indeterminate(monkeypatch):
    # budget 1 leaves the decision to the canonical height; a value inside
    # its error bound certifies neither side
    uncertain = HeightEstimate(Real(1, 100), Real(1, 10), 5)
    monkeypatch.setattr(classify, "canonical_height", lambda f, point, tol: uncertain)
    with pytest.raises(IndeterminateError, match="cannot be certified positive"):
        is_preperiodic(X2, 3, budget=1)


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


# the primes after 10^40, 10^41 and 10^42
P40, P41, P42 = (next_prime(10**k) for k in (40, 41, 42))


def exponent_rank_oracle(sympy, a: Fraction, b: Fraction) -> bool:
    """True when the prime exponent vectors of a and b have rank 2."""
    def vector(x):
        vec = dict(sympy.factorint(abs(x.numerator)))
        for p, e in sympy.factorint(x.denominator).items():
            vec[p] = -e
        return vec

    va, vb = vector(a), vector(b)
    return any(va.get(p, 0) * vb.get(q, 0) != va.get(q, 0) * vb.get(p, 0)
               for p in va.keys() | vb.keys() for q in va.keys() | vb.keys())


@st.composite
def power_pairs(draw):
    """(a, b, rank 2?): a = +-p^i q^j and b = +-p^k q^l for distinct primes p
    and q, planted as a = +-c^m, b = +-c^n for c = p^s q^t half the time, or
    (a, b, None) for two random small rationals.  Planted powers m, n reach
    60 over the 40-digit primes and 20,000 over the small ones."""
    sign = st.sampled_from((1, -1))
    if draw(st.integers(0, 3)) == 0:
        a, b = (draw(sign) * Fraction(draw(st.integers(1, 10**6)), draw(st.integers(1, 10**4)))
                for _ in range(2))
        return a, b, None
    big = draw(st.booleans())
    pool = (P40, P41, P42, 2, 7) if big else (2, 3, 5, 7)
    p, q = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=2, unique=True))
    if draw(st.booleans()):
        s, t = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any))
        top = 60 if big else 20000
        m, n = draw(st.integers(-top, top)), draw(st.integers(-top, top))
        ea, eb = (s * m, t * m), (s * n, t * n)
    else:
        ea, eb = (draw(st.tuples(st.integers(-9, 9), st.integers(-9, 9))) for _ in range(2))
    a, b = (draw(sign) * Fraction(p) ** i * Fraction(q) ** j for i, j in (ea, eb))
    return a, b, ea[0] * eb[1] != ea[1] * eb[0]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(power_pairs())
def test_mult_indep_is_the_rank_of_the_exponent_vectors(case):
    sympy = pytest.importorskip("sympy")
    a, b, independent = case
    got = mult_indep(a, b)
    if independent is not None:
        assert got is independent
        assert mult_indep(b, a) is independent
    if all(abs(x.numerator) < 10**20 and x.denominator < 10**20 for x in (a, b)):
        assert got is exponent_rank_oracle(sympy, a, b)


def test_mult_indep_answers_for_40_digit_primes():
    # factoring (pq)^3 needs rho to find a 40-digit prime: far past any budget
    p, q, r = P40, P41, P42
    assert mult_indep(p * q, (p * q) ** 3) is False
    assert mult_indep(p * q, p * r) is True
    assert mult_indep(p * q**2, p**2 * q**4) is False
    assert mult_indep(Fraction(p * q, 7) ** 200, Fraction(7, p * q) ** 3) is False
    assert mult_indep(Fraction(p * q, 7) ** 200, Fraction(p * q, 5) ** 3) is True
    assert mult_indep(Fraction(2) ** 20000, 2) is False
    # log(7^40 - 1) / log 7 rounds to 40, but 7^40 > 7^40 - 1: k comes down
    # to 39, and the remainder of 7^40 - 1 by 7^39 makes the pair independent
    assert int(math.log(7**40 - 1) / math.log(7)) == 40
    assert mult_indep(7**40 - 1, 7) is True


def test_mult_indep_of_million_bit_powers_divides_through_gmp(monkeypatch):
    # the Euclid steps divide 2.66-million-bit numerators; the answers are
    # those of plain divmod, with or without libgmp
    calls = []
    real = exact._gmp.divmod
    monkeypatch.setattr(exact._gmp, "divmod", lambda x, y: calls.append(1) or real(x, y))
    x, y = P40**20000, P40**13000
    assert mult_indep(x, y) is False
    assert mult_indep(y, x) is False
    assert mult_indep(x, y * P41) is True
    assert mult_indep(x * P41**3, y * P41**2) is True
    assert calls or exact._gmp._load() is None
    monkeypatch.setattr(exact._gmp, "_load", lambda: None)
    x, y = P40**2000, P40**1300
    assert mult_indep(x, y) is False and mult_indep(x * P41**3, y * P41**2) is True


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
    assert chebyshev_polynomial(0) == Polynomial([2])
    with pytest.raises(DomainError):
        chebyshev_polynomial(-1)
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
    with pytest.raises(DomainError, match="deg h >= 1"):
        commutes(Polynomial([3]), Polynomial([0, 0, 1]), 1)
    with pytest.raises(DomainError, match="k_max must be >= 1"):
        commutes(Polynomial([0, -1]), Polynomial([0, 1, 0, 1]), 0)


def reference_commutes(h, f, k_max, degree_budget=DEFAULT_DEGREE_BUDGET):
    """commutes with f^k grown as f^(k-1) o f and compared against f^k o h:
    the same identities, with f^k as the outer map."""
    h, f = RationalMap(h), RationalMap(f)
    fk = f
    for k in range(1, k_max + 1):
        if fk.degree * h.degree > degree_budget:
            raise BudgetExceededError(
                f"symbolic degree {fk.degree * h.degree} exceeds budget at k={k}")
        if compose(h, fk) == compose(fk, h):
            return k
        if k < k_max:
            fk = compose(fk, f)
    return None


def test_commutes_matches_reference_order():
    rng = random.Random(29)

    def rand_poly(degree):
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(degree)]
        return Polynomial(coeffs + [rng.choice([-2, -1, 1, 2])])

    pairs = [(rand_poly(rng.randint(1, 3)), rand_poly(2)) for _ in range(12)]
    pairs += [(Polynomial([0, -1]), rand_poly(3)),                  # -x, random cubic
              (Polynomial([0, -1]), Polynomial([0, 2, 0, -1])),     # -x, an odd cubic
              (Polynomial([0, 0, 1]), Polynomial([0, 0, 0, -1])),   # x^2, -x^3: k = 2
              (chebyshev_polynomial(3), chebyshev_polynomial(2)),
              (Polynomial([1, 0, 1]), Polynomial([2, 0, 1]))]
    f = rand_poly(2)
    pairs.append((Polynomial(self_compose(RationalMap(f), 2).num.coeffs), f))   # f^2, f
    answers = set()
    for h, f in pairs:
        k_max = 6 if f.degree == 2 else 4
        for budget in (DEFAULT_DEGREE_BUDGET, 50):
            want = _outcome(reference_commutes, h, f, k_max, budget)
            assert _outcome(commutes, h, f, k_max, budget) == want, (h, f, budget)
            answers.add(want if want is None or isinstance(want, int) else want[0])
    assert {None, 1, 2, BudgetExceededError} <= answers


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


def test_probe_with_no_finite_step_finds_the_line_at_infinity():
    # x^2 + 1 fixes oo, so every step pairs oo with a point of x^2 - 1's
    # orbit: the orbit lies on the line x = oo.  The constant 1, read as a
    # form of bidegree (D, D), is x_s^D y_s^D, which vanishes there
    for deg_max, n_points in ((1, 8), (2, 12)):
        rel = probe_genericity(X2P1, X2M1, INFINITY, 2, deg_max, n_points)
        assert rel.polynomial.terms == {(0, 0): 1}
        assert (rel.degree_bound, rel.points_tested) == (deg_max, n_points)
        assert rel == reference_probe(X2P1, X2M1, INFINITY, 2, deg_max, n_points)


def _value_at(terms, x, y, deg_max):
    """The form of bidegree (D, D), D = deg_max, with coefficients ``terms``
    at the point x = (xr, xs), y = (yr, ys) of P^1 x P^1, in Fractions, up
    to a nonzero factor: F(xr/xs, yr/ys) at finite points, sum_j c_Dj y^j
    at (oo, y), sum_i c_iD x^i at (x, oo), and c_DD at (oo, oo)."""
    def power(point, k):
        r, s = point
        return Fraction(r, s) ** k if s else int(k == deg_max)
    return sum((c * power(x, i) * power(y, j) for (i, j), c in terms.items()), Fraction(0))


def _row_modp(xr, xs, yr, ys, monomials, deg_max, p):
    """The screening row of (xr : xs), (yr : ys) modulo p by the same route:
    the affine row through modular inverses, where a point at infinity
    modulo p keeps only the monomials of degree deg_max in it."""
    def powers(r, s):
        if s % p == 0:
            return [int(i == deg_max) for i in range(deg_max + 1)]
        v = r * pow(s, -1, p) % p
        return [pow(v, i, p) for i in range(deg_max + 1)]
    xcol, ycol = powers(xr, xs), powers(yr, ys)
    return [xcol[i] * ycol[j] % p for i, j in monomials]


def reference_probe(f, g, a, b, deg_max, n_points, seed=0, *,
                    digit_budget=DEFAULT_ORBIT_DIGIT_BUDGET):
    """The probe as it was before its primes were memoized, screening one
    prime at a time: a fresh prime search per call, affine mod-p rows
    through modular inverses (a walk that reaches (0 : 0) modulo p rejects
    p), and Fraction verification.  Rows come from ``_row_modp`` and values
    from ``_value_at``, so a step at infinity, exactly or modulo p, gives a
    row and a test point."""
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
    exact_points = [(orbit_a[n].pair(), orbit_b[n].pair()) for n in range(1, n_usable + 1)]

    def rows_modp(p):
        xr, xs = (c % p for c in a.pair())
        yr, ys = (c % p for c in b.pair())
        rows = []
        for _ in range(n_screen):
            xr, xs = (c % p for c in f.form_values(xr, xs))
            yr, ys = (c % p for c in g.form_values(yr, ys))
            if (xr == 0 and xs == 0) or (yr == 0 and ys == 0):
                return None
            rows.append(_row_modp(xr, xs, yr, ys, monomials, deg_max, p))
        return rows

    rng = random.Random(seed)
    collected = []
    attempts = 0
    while len(collected) < 3 and attempts < 24:
        attempts += 1
        p = next_prime(rng.randrange(1 << 60, 1 << 61))
        rows = rows_modp(p)
        if not rows:
            continue
        basis = kernel_modp(rows, p)
        if not basis:
            return None
        collected.append((p, basis))
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
                if all(_value_at(poly.terms, x, y, deg_max) == 0 for x, y in exact_points)]
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
    """(args, kwargs, K) per case: K for the planted y = K x past the reach
    of reference_probe's 61-bit primes, None for the cases that match it."""
    rng = random.Random(13)
    cases = []
    for k in range(2, 9):                                  # planted y = K x
        K = rng.randint(10**k, 10**(k + 1) - 1) if k < 8 else 10**8
        g = RationalMap([0, 0, Fraction(1, K)])
        for seed in (0, 1, rng.randrange(10**6)):
            a = rng.randint(2, 9)
            cases.append(((X2, g, a, K * a, 1, 8), {"seed": seed}, None))
    for K in (10**10, 10**20):      # past a 61-bit prime's reach, within a 182-bit one's
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
    cases.append(((X2, X2, 2, 4, 2, 0), {"seed": 5}, None))       # n_points < 1
    # 1/(x^2 - 1) takes 0 to -1 to oo to 0: the 12 rows, the steps at oo
    # included, have an empty kernel (y runs 2, 5, 26, 677, ...)
    cases.append(((RationalMap([1], [-1, 0, 1]), X2P1, 0, 1, 1, 2), {"seed": 0}, None))
    # x^2 + 1 fixes oo: the orbit lies on the line x = oo, the relation 1
    for deg_max, n_points in ((1, 8), (2, 12)):
        cases.append(((X2P1, X2M1, INFINITY, 2, deg_max, n_points), {"seed": 0}, None))
    return cases


def test_probe_matches_reference_probe():
    outcomes = set()
    matched = 0
    for args, kwargs, planted in _probe_sweep():
        want = _outcome(reference_probe, *args, **kwargs)
        got = _outcome(probe_genericity, *args, **kwargs)
        if planted:
            # reference_probe reconstructs modulo 61-bit primes (about 2^30
            # reach) and rejects the wrong lifts; the probe's 182-bit prime
            # reaches 2^90, so y = K x is found and verified
            assert want is None, (args, kwargs)
            assert got.polynomial.terms == {(0, 1): -1, (1, 0): planted}, (args, kwargs)
            assert got.points_tested == 12
            continue
        assert got == want, (args, kwargs)
        matched += 1
        outcomes.add(want if want is None or isinstance(want, tuple) else "relation")
    assert matched == 59
    # the sweep reaches relations, None and both raised errors
    assert {None, "relation"} <= outcomes
    assert {o[0] for o in outcomes if isinstance(o, tuple)} == {BudgetExceededError,
                                                               DomainError}


def _planted(K):
    """x^2 and x^2 / K from 3 and 3 K: y = K x at every orbit step."""
    return X2, RationalMap([0, 0, Fraction(1, K)]), 3, 3 * K


def test_probe_finds_planted_scales_within_the_prime_reach():
    # the kernel vector's entry K reconstructs modulo the screening prime p
    # while K <= sqrt(p / 2), which is at least 2^90 > 10^27 for every seed
    for seed in range(50):
        for k in range(2, 28) if seed == 0 else (27,):
            K = 10**k
            rel = probe_genericity(*_planted(K), 1, 8, seed=seed)
            assert rel is not None, (seed, k)
            assert rel.polynomial.terms == {(0, 1): -1, (1, 0): K}, (seed, k)
            assert rel.points_tested == 8


def test_probe_past_the_prime_reach_is_indeterminate():
    # y = 10^28 x holds on the orbit, but 10^28 is past the reconstruction
    # reach sqrt(p / 2) < 2^91 of every 182-bit prime: the kernel modulo p is
    # nonempty and no lift verifies.  A None here would not certify
    # genericity, so the probe raises and says what it spent (the
    # multi-prime lift that finds the relation is an open roadmap item)
    K = 10**28
    for seed in range(50):
        p = classify._screen_prime(seed, 0)
        assert p.bit_length() == 182 and K > math.isqrt(p // 2)
        with pytest.raises(IndeterminateError) as err:
            probe_genericity(*_planted(K), 1, 8, seed=seed)
        assert re.fullmatch("no candidate relation verifies on the 8 window points: "
                            "[01] tried from kernel dimension 1 modulo 182 bits",
                            str(err.value)), (seed, str(err.value))


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
        if k <= 27:
            # the found relation is a nonzero vector of that one-dimensional kernel
            rel = probe_genericity(f, g, a, b, 1, 8, seed=0)
            got = [rel.polynomial.terms.get(mono, 0) for mono in monomials]
            assert any(got)
            assert matrix.to_Matrix() * sympy.Matrix(got) == sympy.zeros(8, 1)
        else:
            # a relation exists over Q, so a None would be uncertified
            with pytest.raises(IndeterminateError, match="no candidate relation verifies"):
                probe_genericity(f, g, a, b, 1, 8, seed=0)


def test_planted_relation_is_reconstructed_once_modulo_the_prime(monkeypatch):
    moduli = []
    real = classify.rational_reconstruct

    def counting(v, modulus):
        moduli.append(modulus)
        return real(v, modulus)
    monkeypatch.setattr(classify, "rational_reconstruct", counting)
    rel = probe_genericity(*_planted(10**5), 1, 8, seed=0)
    assert rel.polynomial.terms == {(0, 1): -1, (1, 0): 10**5}
    # one kernel vector of four entries, each lifted once
    assert moduli == [classify._screen_prime(0, 0)] * 4


def test_vanishes_at_matches_fraction_evaluation():
    rng = random.Random(5)
    roots = {"finite": 0, "infinite": 0}
    for _ in range(400):
        poly = BivariatePolynomial({
            (rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            for _ in range(rng.randint(0, 4))})
        degree = max((max(m) for m in poly.terms), default=1) + rng.randint(0, 1)
        x = (rng.randint(-20, 20), rng.choice([0, 1, 1, 1]) * rng.randint(1, 20))
        y = (rng.choice([-1, 1]) * rng.randint(1, 20), rng.choice([-1, 0, 1, 1]) * rng.randint(1, 20))
        if not x[1]:   # (0 : 0) is no point
            x = (rng.choice([-1, 1]) * rng.randint(1, 20), 0)
        if rng.random() < 0.5 and not poly.is_zero:
            # move the one coefficient whose monomial is 1 at the point, so
            # that the point is a root: x^0 or x^D, and y^0 or y^D
            mono = (0 if x[1] else degree, 0 if y[1] else degree)
            poly = BivariatePolynomial({
                **poly.terms, mono: poly.terms.get(mono, 0) - _value_at(poly.terms, x, y, degree)})
        want = _value_at(poly.terms, x, y, degree) == 0
        if x[1] and y[1]:
            assert want is (poly.evaluate(Fraction(*x), Fraction(*y)) == 0)
        assert poly.vanishes_at(x, y, degree) is want
        roots["finite" if x[1] and y[1] else "infinite"] += want
    assert min(roots.values()) > 40, roots
    # the bidegree bounds every exponent of the polynomial
    with pytest.raises(DomainError):
        BivariatePolynomial({(2, 0): 1}).vanishes_at((1, 1), (1, 1), 1)


def test_bivariate_repr_and_total_degree():
    poly = BivariatePolynomial({(0, 0): -4, (1, 0): 2, (0, 2): 6, (1, 1): 0, (2, 3): 8})
    assert repr(poly) == "BivariatePolynomial(-2 + 1*x + 3*y^2 + 4*x^2y^3)"
    assert poly.total_degree() == 5
    zero = BivariatePolynomial({(1, 0): 0})
    assert zero.is_zero and repr(zero) == "BivariatePolynomial(0)"
    with pytest.raises(DomainError, match="zero polynomial has no degree"):
        zero.total_degree()


_MONOMIAL = st.tuples(st.integers(0, 3), st.integers(0, 3))
_COEFFICIENT = st.fractions(min_value=-9, max_value=9, max_denominator=6)
_POSITIVE = st.fractions(min_value=Fraction(1, 50), max_value=50, max_denominator=50)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.dictionaries(_MONOMIAL, _COEFFICIENT, max_size=6), st.integers(1, 60),
       st.tuples(st.integers(-20, 20), st.integers(1, 20)),
       st.tuples(st.integers(-20, 20), st.integers(-20, 20).filter(bool)),
       st.booleans(), _POSITIVE)
def test_relations_are_stored_in_primitive_integers(coeffs, shared, x, y, plant, unit):
    # the input polynomial, its coefficients sharing the factor ``shared``,
    # evaluated in Fractions without the class
    coeffs = {m: shared * c for m, c in coeffs.items()}
    xv, yv = Fraction(*x), Fraction(*y)

    def value(cs):
        return sum((c * xv**i * yv**j for (i, j), c in cs.items()), Fraction(0))
    if plant:
        # move the constant term so that the point is a root (it may become 0)
        coeffs[0, 0] = coeffs.get((0, 0), 0) - value(coeffs)
    poly = BivariatePolynomial(coeffs)
    nonzero = {m: c for m, c in coeffs.items() if c}
    assert set(poly.terms) == set(nonzero)
    assert all(type(c) is int for c in poly.terms.values())
    assert all((c > 0) == (nonzero[m] > 0) for m, c in poly.terms.items())
    assert math.gcd(*poly.terms.values()) == (1 if nonzero else 0)
    assert poly.vanishes_at(x, y, 3) is (value(coeffs) == 0)
    # as a form of bidegree (3, 3): sum_j c_3j y^j at (oo, y), sum_i c_i3 x^i at (x, oo)
    at_x_infinity = sum((c * yv**j for (i, j), c in coeffs.items() if i == 3), Fraction(0))
    at_y_infinity = sum((c * xv**i for (i, j), c in coeffs.items() if j == 3), Fraction(0))
    assert poly.vanishes_at((1, 0), y, 3) is (at_x_infinity == 0)
    assert poly.vanishes_at(x, (-1, 0), 3) is (at_y_infinity == 0)
    multiple = BivariatePolynomial({m: unit * c for m, c in coeffs.items()})
    assert multiple == poly and hash(multiple) == hash(poly)
    if nonzero:
        assert BivariatePolynomial({m: -c for m, c in coeffs.items()}) != poly


def _stream_primes(seed, count):
    rng = random.Random(seed)
    return [next_prime(rng.randrange(1 << 181, 1 << 182)) for _ in range(count)]


def test_screen_prime_memo_returns_the_seed_stream():
    for seed in (0, 1, 7, 12345):
        want = _stream_primes(seed, 6)
        # ask out of order: each index replays the stream, not the calls made
        for i in (4, 0, 5, 2, 1, 3):
            assert classify._screen_prime(seed, i) == want[i]


def test_screen_primes_are_the_primes_after_the_draws():
    # BPSW confirms each 182-bit prime; sympy's nextprime is the reference
    sympy = pytest.importorskip("sympy")
    for seed in range(50):
        draw = random.Random(seed).randrange(1 << 181, 1 << 182)
        assert classify._screen_prime(seed, 0) == sympy.nextprime(draw), seed


def test_repeated_probes_search_primes_only_on_the_first_call(monkeypatch):
    calls = []

    def counting_next_prime(n):
        calls.append(n)
        return next_prime(n)
    monkeypatch.setattr(classify, "next_prime", counting_next_prime)
    classify._screen_prime.cache_clear()
    first = probe_genericity(X3X, X3X, 1, -1, 1, 8, seed=424242)
    assert len(calls) == 1
    for _ in range(3):
        assert probe_genericity(X3X, X3X, 1, -1, 1, 8, seed=424242) == first
    assert len(calls) == 1
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
        assert len(calls) == k
    assert classify._screen_prime.cache_info().currsize == 0


def test_degenerate_batch_draws_the_next_of_the_stream(monkeypatch):
    # a walk that reaches (0 : 0) modulo the first prime voids that draw
    seed = 99
    stream = _stream_primes(seed, 2)
    real_rows = classify._orbit_rows_modp
    used = []

    def rows_voiding_the_first_draw(*args):
        *walk, p = args
        used.append(p)
        return None if p == stream[0] else real_rows(*walk, p)
    monkeypatch.setattr(classify, "_orbit_rows_modp", rows_voiding_the_first_draw)
    rel = probe_genericity(X3X, X3X, 1, -1, 1, 8, seed=seed)
    assert used == stream
    assert rel is not None and rel.polynomial.terms == {(1, 0): 1, (0, 1): 1}


def test_every_draw_void_is_indeterminate_after_8_primes(monkeypatch):
    used = []

    def void(*args):
        used.append(args[-1])
    monkeypatch.setattr(classify, "_orbit_rows_modp", void)
    with pytest.raises(IndeterminateError, match=r"\(8 primes\)"):
        probe_genericity(X3X, X3X, 1, -1, 1, 8, seed=99)
    assert used == _stream_primes(99, 8)


def _recording_kernels(monkeypatch):
    """Patch the probe's kernel_modp to log (modulus, whether it raised)."""
    log = []
    real = classify.kernel_modp

    def recording(rows, p):
        try:
            basis = real(rows, p)
        except ValueError:
            log.append((p, True))
            raise
        log.append((p, False))
        return basis
    monkeypatch.setattr(classify, "kernel_modp", recording)
    return log


_COMPOSITE_DRAWS = [   # (probe arguments, a composite whose elimination meets a zero divisor)
    ((X2P1, X2M1, 1, 2, 2, 10), 15),                                         # generic: None
    ((X2, RationalMap([0, 0, Fraction(1, 10**5)]), 3, 3 * 10**5, 1, 8), 21),  # y = 10^5 x
]


def test_composite_draw_is_void_and_the_next_prime_decides(monkeypatch):
    # only a composite that passed BPSW can give a pivot that is no unit;
    # the draw is then void, and the next prime of the stream decides
    for args, composite in _COMPOSITE_DRAWS:
        want = probe_genericity(*args, seed=0)
        real_prime = classify._screen_prime
        with monkeypatch.context() as patch:
            patch.setattr(classify, "_screen_prime",
                          lambda seed, i: composite if i == 0 else real_prime(seed, i))
            log = _recording_kernels(patch)
            assert probe_genericity(*args, seed=0) == want
        assert log == [(composite, True), (real_prime(0, 1), False)], args


def test_every_draw_composite_is_indeterminate_after_8_primes(monkeypatch):
    monkeypatch.setattr(classify, "_screen_prime", lambda seed, i: 15)
    log = _recording_kernels(monkeypatch)
    with pytest.raises(IndeterminateError, match=r"\(8 primes\)"):
        probe_genericity(X2P1, X2M1, 1, 2, 2, 10, seed=0)
    assert log == [(15, True)] * 8


def test_steps_at_infinity_give_homogeneous_rows(monkeypatch):
    # 1/(x^2 - 1) from 0 runs -1, oo, 0, -1, oo, ...; x^2 + 1 from 1 runs
    # 2, 5, 26, 677, ...: no relation, though step 1 alone fits y = 2.  Each
    # of the 12 screening steps gives a row, the four at oo included, and
    # the kernel is empty modulo the first prime
    used = []
    real_rows = classify._orbit_rows_modp

    def counting(*args):
        used.append(args[-1])
        rows = real_rows(*args)
        assert len(rows) == 12
        return rows
    monkeypatch.setattr(classify, "_orbit_rows_modp", counting)
    assert probe_genericity(RationalMap([1], [-1, 0, 1]), X2P1, 0, 1, 1, 2) is None
    assert used == [classify._screen_prime(0, 0)]


def reference_orbit_rows_modp(f, g, pairs, monomials, deg_max, n_rows, p):
    """The screening rows for one prime, one per orbit step 1..n_rows, by
    ``_row_modp``: in affine coordinates through modular inverses, and at a
    point at infinity modulo p the row of its monomials of degree deg_max.
    The exact pairs are reduced modulo p at steps up to n_usable, then
    walked modulo p from the last exact pair, and the whole is None when a
    walked point is (0 : 0) modulo p."""
    def row(xr, xs, yr, ys):
        return _row_modp(xr, xs, yr, ys, monomials, deg_max, p)
    rows = [row(xr, xs, yr, ys) for (xr, xs), (yr, ys) in pairs[1:n_rows + 1]]
    (xr, xs), (yr, ys) = pairs[-1]
    for _ in range(len(pairs), n_rows + 1):
        xr, xs = (c % p for c in f.form_values(xr, xs))
        yr, ys = (c % p for c in g.form_values(yr, ys))
        if xr == xs == 0 or yr == ys == 0:
            return None
        rows.append(row(xr, xs, yr, ys))
    return rows


def test_batched_walk_matches_one_walk_per_prime():
    rng = random.Random(2424)
    big = _stream_primes(5, 3)
    void = at_infinity = kept = exact_infinity = tails = 0
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
        # modulo a product, as for a composite that passed BPSW
        rows = classify._orbit_rows_modp(*args, math.prod(primes))
        want = {p: reference_orbit_rows_modp(*args, p) for p in primes}
        if None in want.values():
            # a walk that reaches (0 : 0) modulo one factor voids the draw
            assert rows is None
            void += 1
            continue
        # every step gives a row, points at infinity included
        assert len(rows) == n_rows
        for p in primes:
            got = [[v % p for v in row] for row in rows]
            ref = want[p]
            # each row is the reference row times a unit: compare at the
            # first nonzero entry of the reference row (1 at a finite point)
            for row, r in zip(got, ref):
                k = next(k for k, x in enumerate(r) if x)
                assert row[k] and all(v * r[k] % p == row[k] * x % p for v, x in zip(row, r))
            assert kernel_modp(got, p) == kernel_modp(ref, p)
            at_infinity += sum(not r[0] for r in ref)
        kept += n_rows
        exact_infinity += any(not (x[1] and y[1]) for x, y in pairs[1:])
        tails += n_rows > n_usable
    assert (void > 20 and at_infinity > 50 and kept > 50 and exact_infinity > 20
            and tails > 100), (void, at_infinity, kept, exact_infinity, tails)


def test_generic_pair_is_decided_by_one_elimination(monkeypatch):
    calls = []
    real = classify.kernel_modp

    def counting_kernel(rows, p):
        calls.append(p)
        return real(rows, p)
    monkeypatch.setattr(classify, "kernel_modp", counting_kernel)
    for deg_max in (1, 2, 3):
        calls.clear()
        assert probe_genericity(X2P1, X2M1, 1, 2, deg_max, 10, seed=7) is None
        assert calls == [classify._screen_prime(7, 0)]


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
