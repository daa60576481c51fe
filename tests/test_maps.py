import operator
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbitgcd.errors import BudgetExceededError, DomainError
from orbitgcd.maps import (INFINITY, Mobius, ProjPoint, RationalMap, compose,
                           conjugate, digit_count, evaluate, fiber_polynomial,
                           iterate, self_compose)
from orbitgcd.polys import Polynomial, kronecker_pack, kronecker_unpack

X2 = RationalMap([0, 0, 1])
X2P1 = RationalMap([1, 0, 1])
X3X = RationalMap([0, 1, 0, 1])
ONE_OVER_X = RationalMap([1], [0, 1])


def rand_map(rng, deg):
    while True:
        num = [rng.randint(-4, 4) for _ in range(deg + 1)]
        den = [rng.randint(-4, 4) for _ in range(rng.randint(0, deg) + 1)]
        num[-1] = num[-1] or 1
        den[-1] = den[-1] or 1
        try:
            f = RationalMap(num, den)
        except DomainError:
            continue
        if f.degree == max(len(num), len(den)) - 1:
            return f


def test_evaluate_examples():
    assert evaluate(X2, 3) == ProjPoint(9)
    assert evaluate(X2, INFINITY) == INFINITY
    assert evaluate(RationalMap([1, 0, 1], [0, 1]), 0) == INFINITY
    assert evaluate(ONE_OVER_X, 0) == INFINITY
    assert evaluate(ONE_OVER_X, INFINITY) == ProjPoint(0)


def test_iterate_examples():
    assert [p.value for p in iterate(X3X, 2, 2)] == [2, 10, 1010]
    assert iterate(X2, ProjPoint(7), 0) == [ProjPoint(7)]
    assert [p.value for p in iterate(X2, 125, 2)] == [125, 15625, 244140625]


def test_iterate_budget_error_carries_counts():
    with pytest.raises(BudgetExceededError) as err:
        iterate(X2, 10, 64, digit_budget=100)
    assert err.value.digits is not None and err.value.digits > 100
    assert err.value.steps is not None
    assert err.value.partial is not None


def test_self_compose_examples():
    assert self_compose(X2, 3) == RationalMap([0] * 8 + [1])
    assert self_compose(X2P1, 2) == RationalMap([2, 0, 2, 0, 1])
    assert self_compose(ONE_OVER_X, 2) == RationalMap([0, 1])
    with pytest.raises(BudgetExceededError):
        self_compose(X2, 5, degree_budget=16)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_add(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]


def test_self_compose_matches_naive_polynomial_composition():
    # symbolic-expansion oracle: plain coefficient composition (Horner) for
    # polynomials
    rng = random.Random(9)
    for _ in range(20):
        coeffs = [rng.randint(-3, 3) for _ in range(rng.randint(2, 3))] + [rng.randint(1, 3)]
        naive = [0]
        for c in reversed(coeffs):
            naive = poly_add(poly_mul(naive, coeffs), [c])
        assert self_compose(RationalMap(coeffs), 2) == RationalMap(naive)


def test_compose_iterate_agreement_spec_property():
    rng = random.Random(101)
    for _ in range(100):
        f = rand_map(rng, rng.randint(2, 3))
        depth = rng.randint(1, 3)
        if f.degree**depth > 64:
            continue
        fd = self_compose(f, depth)
        point = ProjPoint(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        assert evaluate(fd, point) == iterate(f, point, depth)[-1]


def test_lowest_terms_representation_unique():
    a = RationalMap(Polynomial([Fraction(1, 2), 0, 1]), Polynomial([Fraction(3, 2)]))
    b = RationalMap(Polynomial([1, 0, 2]), Polynomial([3]))
    assert a == b
    # denominator leading coefficient positive
    c = RationalMap(Polynomial([1, 0, 2]), Polynomial([-3]))
    assert c.den.leading > 0
    # joint content stripped, common polynomial factor cancelled
    d = RationalMap(Polynomial([0, 2, 0, 2]), Polynomial([0, 4]))   # (2x^3+2x)/(4x)
    assert d == RationalMap(Polynomial([1, 0, 1]), Polynomial([2]))


def test_degenerate_and_invalid_maps_rejected():
    with pytest.raises(DomainError):
        RationalMap([1])                     # constant map, degree 0
    with pytest.raises(DomainError):
        RationalMap([0, 1], [0, 0])          # zero denominator
    with pytest.raises(DomainError):
        RationalMap(Polynomial([]), Polynomial([1]))


def test_conjugate_examples():
    assert conjugate(X2, Mobius.identity()) == X2
    assert conjugate(X2, Mobius.translation(1)) == RationalMap([2, -2, 1])
    rng = random.Random(77)
    for _ in range(30):
        f = rand_map(rng, 2)
        m = Mobius(rng.randint(1, 3), rng.randint(-2, 2), rng.randint(0, 1),
                   rng.randint(1, 3)) if rng.random() < 0.7 else Mobius.inversion()
        conj = conjugate(f, m)
        assert conj.degree == f.degree
        assert conjugate(conj, m.inverse()) == f


def test_mobius_algebra():
    m = Mobius(2, 1, 1, 1)
    assert (m @ m.inverse()).apply(Fraction(5)) == ProjPoint(5)
    assert Mobius.inversion().apply(0) == INFINITY
    assert Mobius.inversion().apply(INFINITY) == ProjPoint(0)
    with pytest.raises(DomainError):
        Mobius(1, 2, 2, 4)
    assert m.to_map().degree == 1


def test_fiber_polynomial_cases():
    poly, inf_mult = fiber_polynomial(X2, 1)
    assert poly == Polynomial([-1, 0, 1]) and inf_mult == 0
    poly, inf_mult = fiber_polynomial(RationalMap([1, 0, 1], [0, 1]), INFINITY)
    assert poly == Polynomial([0, 1]) and inf_mult == 1
    # fiber of infinity under a polynomial is only infinity itself
    poly, inf_mult = fiber_polynomial(X3X, INFINITY)
    assert poly.degree == 0 and inf_mult == 3


def test_orbit_digit_growth_soft():
    # degree-d growth: digit counts roughly multiply by d each step
    orbit = iterate(X3X, 5, 7)
    digits = [digit_count(p.value.numerator) for p in orbit]
    for i in range(2, len(digits) - 1):
        assert digits[i + 1] > digits[i]
        ratio = digits[i + 1] / digits[i]
        assert 2.0 < ratio < 4.0


def test_digit_count_exact():
    rng = random.Random(4)
    for _ in range(500):
        n = rng.randint(0, 10**12)
        assert digit_count(n) == len(str(n))
    assert digit_count(10**5000) == 5001
    assert digit_count(10**5000 - 1) == 5000
    assert digit_count(-(10**100)) == 101


def reference_compose(outer: RationalMap, inner: RationalMap) -> RationalMap:
    """Schoolbook composition over Fraction coefficients: the reference the
    Kronecker-substitution ``compose`` must match."""
    do = outer.degree
    p, q = list(inner.num.coeffs), list(inner.den.coeffs)
    ppow = [[Fraction(1)]]
    qpow = [[Fraction(1)]]
    for _ in range(do):
        ppow.append(poly_mul(ppow[-1], p))
        qpow.append(poly_mul(qpow[-1], q))
    num = [Fraction(0)]
    den = [Fraction(0)]
    for i in range(do + 1):
        w = poly_mul(ppow[i], qpow[do - i])
        ai = outer.num.coeff(i)
        bi = outer.den.coeff(i)
        if ai != 0:
            num = poly_add(num, [ai * c for c in w])
        if bi != 0:
            den = poly_add(den, [bi * c for c in w])
    return RationalMap(Polynomial(num), Polynomial(den), assume_coprime=True)


# zero, small of either sign, and huge (>= 2^200) of either sign
COEFF = st.one_of(
    st.just(0),
    st.integers(-5, 5),
    st.builds(operator.mul, st.sampled_from((-1, 1)), st.integers(2**200, 2**210)),
)


@st.composite
def maps(draw, max_degree, polynomial):
    num = draw(st.lists(COEFF, min_size=2, max_size=max_degree + 1))
    if polynomial:
        den = [draw(COEFF.filter(bool))]
    else:
        den = draw(st.lists(COEFF, min_size=1, max_size=max_degree + 1))
    try:
        return RationalMap(num, den)
    except DomainError:
        assume(False)


@settings(max_examples=60, deadline=None)
@given(outer=st.booleans().flatmap(lambda poly: maps(3, poly)),
       inner=st.booleans().flatmap(lambda poly: maps(27, poly)))
def test_compose_matches_fraction_reference(outer, inner):
    # degrees up to 3 * 27 = 3^4
    out = compose(outer, inner)
    assert out == reference_compose(outer, inner)
    assert out.degree == outer.degree * inner.degree


def test_compose_matches_fraction_reference_at_degree_81():
    f = RationalMap([2**200 + 1, -(2**201), 0, 3], [-7, 0, 2**205])
    deep = self_compose(f, 3)
    assert deep == reference_compose(f, reference_compose(f, f))
    assert compose(f, deep) == reference_compose(f, deep)
    assert compose(f, deep).degree == 81


@pytest.mark.parametrize("width", [8, 16, 64, 208])
def test_kronecker_pack_roundtrip_at_slot_edges(width):
    edge = 2 ** (width - 1) - 1
    for cs in ([edge], [-edge], [edge, -edge, 0, -edge, edge], [-edge, 0, 0, -edge],
               [0, 1, -1, edge], [0]):
        value = kronecker_pack(cs, width)
        assert value == sum(c << (width * i) for i, c in enumerate(cs))
        assert kronecker_unpack(value, width, len(cs)) == cs
    # a product of packed values unpacks to the product polynomial
    product = kronecker_pack([3, -2], width) * kronecker_pack([-1, 5], width)
    assert kronecker_unpack(product, width, 3) == [-3, 17, -10]
    with pytest.raises(OverflowError):
        kronecker_pack([edge + 1], width)
    with pytest.raises(OverflowError):
        kronecker_unpack(kronecker_pack([0, 1], width), width, 1)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((8, 16, 24, 64, 256)).flatmap(
    lambda w: st.tuples(st.just(w), st.lists(st.integers(-(2 ** (w - 1)) + 1, 2 ** (w - 1) - 1),
                                             min_size=1, max_size=20))))
def test_kronecker_pack_roundtrip(case):
    width, cs = case
    assert kronecker_unpack(kronecker_pack(cs, width), width, len(cs)) == cs
