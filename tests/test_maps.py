import copy
import math
import operator
import os
import pickle
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orbitgcd import _gmp
from orbitgcd import maps as maps_module
from orbitgcd.errors import BudgetExceededError, DomainError
from orbitgcd.exact import _GMP_BITS
from orbitgcd.linalg import det_fraction
from orbitgcd.maps import (INFINITY, ProjPoint, RationalMap, _digit_floor, _sylvester_rows,
                           bezout_record, compose, conjugate, digit_count, evaluate,
                           fiber_polynomial, iterate, map_resultant, orbit, self_compose)
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



def test_hash_is_the_forms_hash_and_survives_pickle_and_copy():
    # the hash is the forms' hash, and the pickle holds the forms alone,
    # so it loads into a map with the same hash
    f = RationalMap([Fraction(1, 3), 0, 1], [0, 2])
    state = (None, {"forms": f.forms})
    assert hash(f) == hash(f.forms) and f.__reduce_ex__(2)[2] == state
    for g in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f), copy.copy(f)):
        assert g == f and hash(g) == hash(f) and {g: 1}[f] == 1

@pytest.mark.parametrize("num, den", [
    ([0.5, 0, 1], None),                                  # (2x^2 + 1)/2
    ([Decimal("0.5"), 0, 1], None),
    ([Fraction(1, 2), 0, 1], None),
    ([1, 0, 1], [0.5]),
    (["1/3", 0, 1.25], [Decimal("-0.75"), 2]),
    ([True, 0, 2], None),
])
def test_coefficient_lists_take_what_polynomial_takes(num, den):
    via_poly = RationalMap(Polynomial(num), None if den is None else Polynomial(den))
    assert RationalMap(num, den) == via_poly
    assert RationalMap(num, den).forms == via_poly.forms


@pytest.mark.parametrize("bad", [math.nan, math.inf, "x", None, Decimal("NaN")])
def test_coefficient_lists_fail_as_polynomial_fails(bad):
    with pytest.raises(Exception) as expected:
        Polynomial([bad, 0, 1])
    with pytest.raises(expected.type):
        RationalMap([bad, 0, 1])
    with pytest.raises(expected.type):
        RationalMap([0, 0, 1], [bad])


def test_degenerate_and_invalid_maps_rejected():
    with pytest.raises(DomainError):
        RationalMap([1])                     # constant map, degree 0
    with pytest.raises(DomainError):
        RationalMap([0, 1], [0, 0])          # zero denominator
    with pytest.raises(DomainError):
        RationalMap(Polynomial([]), Polynomial([1]))


def mobius(p, q, r, s):
    """x -> (p x + q) / (r x + s) and its inverse x -> (s x - q) / (-r x + p)."""
    return RationalMap([q, p], [s, r]), RationalMap([-q, s], [p, -r])


def test_conjugate_examples():
    assert conjugate(X2, RationalMap([0, 1])) == X2
    assert conjugate(X2, RationalMap([1, 1])) == RationalMap([2, -2, 1])
    rng = random.Random(77)
    for _ in range(30):
        f = rand_map(rng, 2)
        if rng.random() < 0.7:
            m, m_inv = mobius(rng.randint(1, 3), rng.randint(-2, 2), rng.randint(0, 1),
                              rng.randint(1, 3))
        else:
            m = m_inv = ONE_OVER_X
        assert compose(m, m_inv) == compose(m_inv, m) == RationalMap([0, 1])
        conj = conjugate(f, m)
        assert conj.degree == f.degree
        assert conjugate(conj, m_inv) == f


def test_conjugate_matches_fraction_evaluation():
    # independent oracle: m(f(m^-1(x))) by plain Fraction arithmetic on the
    # coefficient lists, at 50 random rationals for each of 20 pairs; maps
    # with poles, and m with r != 0, are among them
    rng = random.Random(2021)

    def at(num, den, x):
        n, d = (sum(c * x**i for i, c in enumerate(cs)) for cs in (num, den))
        return None if d == 0 else n / d

    pairs = 0
    for _ in range(20):
        num = [rng.randint(-4, 4) for _ in range(3)]
        den = [rng.randint(-4, 4) for _ in range(2)] + [rng.choice([0, 1])]
        try:
            f = RationalMap(num, den)
        except DomainError:
            continue
        p, q, r, s = (Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4))
        if p * s == q * r:
            continue
        conj = conjugate(f, RationalMap([q, p], [s, r]))
        pairs += 1
        checked = 0
        for _ in range(50):
            x = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
            y = at([-q, s], [p, -r], x)
            z = None if y is None else at(num, den, y)
            w = None if z is None else at([q, p], [s, r], z)
            if w is None:
                continue            # a pole on the way: not a plain Fraction value
            assert conj(x) == ProjPoint(w), (num, den, (p, q, r, s), x)
            checked += 1
        assert checked >= 40
    assert pairs >= 15


def test_conjugate_needs_a_degree_one_map():
    with pytest.raises(DomainError, match="degree-1"):
        conjugate(X2, X2P1)
    with pytest.raises(DomainError, match="degree-1"):
        conjugate(X3X, RationalMap([1, 0, 1], [0, 1]))


def test_mobius_algebra():
    m, m_inv = mobius(2, 1, 1, 1)
    assert compose(m, m_inv)(Fraction(5)) == ProjPoint(5)
    assert ONE_OVER_X(0) == INFINITY
    assert ONE_OVER_X(INFINITY) == ProjPoint(0)
    with pytest.raises(DomainError):
        mobius(1, 2, 2, 4)                  # det 0: (x + 2) / (2x + 4) is constant
    assert m.degree == 1


def test_fiber_polynomial_cases():
    # primitive integer coefficients, ascending, with the deficit at infinity
    assert fiber_polynomial(X2, 1) == ([-1, 0, 1], 0)
    assert fiber_polynomial(RationalMap([1, 0, 1], [0, 1]), INFINITY) == ([0, 1], 1)
    # fiber of infinity under a polynomial is only infinity itself
    assert fiber_polynomial(X3X, INFINITY) == ([1], 3)
    # 2x^2/(x + 1) at 2 and at 1/3: 2x^2 - 2x - 2 and 6x^2 - x - 1
    half = RationalMap([0, 0, 2], [1, 1])
    assert fiber_polynomial(half, 2) == ([-1, -1, 1], 0)
    assert fiber_polynomial(half, Fraction(1, 3)) == ([-1, -1, 6], 0)
    assert all(type(c) is int for c in fiber_polynomial(half, Fraction(1, 3))[0])


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


def test_digit_count_at_decimal_and_binary_boundaries():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for k in range(2001):
            for n in (10**k - 1, 10**k, 10**k + 1):
                assert digit_count(n) == len(str(n)), n
                assert digit_count(-n) == len(str(n)), n
        for b in range(7000):
            for n in (2**b - 1, 2**b, 2**b + 1):
                assert digit_count(n) == len(str(n)), n
    finally:
        sys.set_int_max_str_digits(limit)


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


# --- form_values at orbit size, through GMP and without libgmp ---

T = _GMP_BITS


def plain_form_values(f, r, s):
    """(F(r, s), G(r, s)) from plain ``*`` and ``**``."""
    d = f.degree
    return tuple(sum(c * r**i * s**(d - i) for i, c in enumerate(cs)) for cs in f.forms)


def coordinate(draw):
    # one bit to a few times the GMP threshold; powers of the small ones
    # cross it inside form_values
    bits = draw(st.sampled_from([1, 64, T // 5, T // 2 - 1, T - 1, T, T + 1, 3 * T]))
    return random.Random(draw(st.integers(0, 2**32))).getrandbits(bits) | 1


@st.composite
def form_points(draw):
    # integral (s = 1), rational, or infinity (s = 0)
    r = draw(st.sampled_from([1, -1])) * coordinate(draw)
    s = draw(st.sampled_from([0, 1, None]))
    return r, coordinate(draw) if s is None else s


@settings(max_examples=80, deadline=None)
@given(f=st.booleans().flatmap(lambda poly: maps(5, poly)), point=form_points())
def test_form_values_match_plain_products_with_and_without_libgmp(f, point):
    r, s = point
    expected = plain_form_values(f, r, s)
    assert f.form_values(r, s) == expected
    with mock.patch.object(_gmp, "_load", lambda: None):
        assert f.form_values(r, s) == expected


def recording_mul(monkeypatch, record):
    mul = _gmp.mul

    def recorded(x, y):
        p = mul(x, y)
        record(x, y, p)
        return p

    monkeypatch.setattr(_gmp, "mul", recorded)


def test_form_values_square_orbit_sized_values_in_gmp(monkeypatch):
    squares = []
    recording_mul(monkeypatch, lambda x, y, p: squares.append(y is x))
    r = 3**20000                                     # about 31,700 bits
    assert X2.form_values(r, 1) == (r**2, 1)
    assert squares == [True]
    # (x^2 + 1)/x: both squares, then the cross product r * s
    f = RationalMap([1, 0, 1], [0, 1])
    s = 5**14000                                     # about 32,500 bits
    assert f.form_values(r, s) == (r**2 + s**2, r * s)
    assert squares == [True, True, True, False]
    # both coordinates below 2^14 bits: every product stays in Python
    r = 3**10000
    assert f.form_values(r, r + 2) == (r**2 + (r + 2)**2, r * (r + 2))
    assert len(squares) == 4


@pytest.mark.parametrize("f", [X2, X3X], ids=["x^2", "x^3+x"])
def test_orbit_budget_is_checked_after_the_products(f, monkeypatch):
    # the exact check after each step is preceded by a lower bound on the
    # step's points, so no product that reaches GMP passes the budget by
    # more than a constant of the map: the products of f at (r : s) have
    # at most d b bits, b the bit length of max(|r|, |s|), and the bound
    # 2^(d (b-1) - c) with 2 d H_u < 2^c
    d = f.degree
    c = (2 * d * bezout_record(f)[1]).bit_length()
    slack = math.ceil((d + c) * math.log10(2)) + 1
    digits = []
    recording_mul(monkeypatch, lambda x, y, p: digits.append(digit_count(p)))
    largest = 0.0
    # starts of 4,295 to 12,405 digits, among them 3^20000 (9,543 digits)
    # just inside 9,600, whose square has 19,086
    for budget in (9600, 20000, 40000):
        for k in range(9000, 26001, 1000):
            digits.clear()
            with pytest.raises(BudgetExceededError) as err:
                iterate(f, 3**k, 3, digit_budget=budget)
            assert err.value.digits > budget
            assert all(n <= budget + slack for n in digits), (budget, k, max(digits))
            largest = max(largest, max(digits, default=0) / budget)
    assert largest > 0.6


def test_digit_floor_bounds_every_image():
    # the Bezout bound max(|x|, |y|) >= M^d / (2 d H_u) on random maps of
    # degree 2-5 and points of up to 300 bits, the digit floor under it,
    # and the floor within d + 1 times the point's digits, which lets the
    # walker skip it until 10 times its total passes the budget
    rng = random.Random(26)
    for _ in range(1500):
        f = rand_map(rng, rng.randint(2, 5))
        d, h_u = f.degree, bezout_record(f)[1]
        bits = rng.choice([1, 8, 40, 300])
        r, s = rng.randint(-2**bits, 2**bits), rng.randint(0, 2**bits)
        point = ProjPoint(Fraction(r, s)) if s else INFINITY
        x, y = evaluate(f, point).pair()
        m = max(map(abs, point.pair()))
        assert max(abs(x), abs(y)) * 2 * d * h_u >= m**d
        floor = _digit_floor(f, point)
        assert floor <= digit_count(x) + digit_count(y)
        assert floor <= (d + 1) * sum(map(digit_count, point.pair()))


def test_orbit_walks_pairs_in_lockstep_on_one_budget():
    walk = orbit([(X2, 3), (X3X, INFINITY)], 3)
    assert next(walk) == (ProjPoint(3), INFINITY)
    assert [p for p, _ in walk] == [ProjPoint(9), ProjPoint(81), ProjPoint(6561)]
    # one budget for both orbits, their starts included: 3/1 and 2/1 charge
    # 4 digits, 9/1 and 10/1 five more, then 81/1 and 1010/1 reach 17
    walk = orbit([(X2, 3), (X3X, 2)], 5, digit_budget=15)
    assert [next(walk), next(walk)] == [(ProjPoint(3), ProjPoint(2)),
                                        (ProjPoint(9), ProjPoint(10))]
    with pytest.raises(BudgetExceededError) as err:
        next(walk)
    assert (err.value.digits, err.value.steps) == (17, 1)
    assert str(err.value) == "orbit digit budget exceeded at step 2: 17 > 15"
    # with no budget nothing is charged, and nothing runs ahead of the caller
    calls = []
    with mock.patch.object(maps_module, "digit_count", side_effect=calls.append):
        walk = orbit([(X2, 2)], 10**6)
        assert [next(walk)[0].value for _ in range(5)] == [2, 4, 16, 256, 65536]
    assert calls == []


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
def test_budget_raises_before_gmp_can_abort_under_a_memory_limit():
    # x^2 from 2^(10^8): the square asks GMP for 25 MB, past the 32 MB of
    # address space the child leaves itself, and GMP aborts (SIGABRT) on a
    # failed allocation; the bound on the square raises before it is formed
    child = """if True:
        import resource, sys
        from orbitgcd.errors import BudgetExceededError
        from orbitgcd.maps import RationalMap, iterate
        start = 1 << 10**8
        with open("/proc/self/statm") as fh:
            size = int(fh.read().split()[0]) * resource.getpagesize()
        resource.setrlimit(resource.RLIMIT_AS, (size + (32 << 20), resource.RLIM_INFINITY))
        try:
            iterate(RationalMap([0, 0, 1]), start, 3)
        except BudgetExceededError as err:
            print(err)
            sys.exit(0)
        sys.exit(1)
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(maps_module.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, (done.returncode, done.stderr[-400:])
    assert done.stdout.startswith("orbit digit budget exceeded at step 1: at least ")


# --- evaluate/iterate against a Fraction evaluator ---


def fraction_evaluate(f, x):
    """f at x (a Fraction, or None for infinity) from the affine Fractions
    num(x)/den(x), with the degree deficit deciding the value at infinity."""
    num = [Fraction(c) for c in f.num.coeffs]
    den = [Fraction(c) for c in f.den.coeffs]
    if x is None:
        if len(den) <= f.degree:        # deg den < d: infinity is fixed
            return None
        return (num[f.degree] if len(num) > f.degree else Fraction(0)) / den[f.degree]
    n = sum(c * x**i for i, c in enumerate(num))
    d = sum(c * x**i for i, c in enumerate(den))
    return None if d == 0 else n / d


RESULTANT_MAPS = [
    RationalMap([1, 0, 1], [0, 2]),                 # (x^2+1)/2x, R = 4
    RationalMap([Fraction(1, 3), 0, 1]),            # x^2+1/3
    RationalMap([Fraction(-2, 5), 0, 1]),           # x^2-2/5
    RationalMap([1, 0, 3], [0, -6]),                # negative leading denominator
    RationalMap([5, 0, 1], [-1, 1]),                # deficit: 1 -> oo, oo -> oo
    RationalMap([0, 0, 4], [4, 0, 0, 2]),           # degree 3, 0 <-> oo
    RationalMap([-6, 0, 9, 0, 3], [0, 0, 0, 4]),    # degree 4 with a common content
    RationalMap([3, 2], [4]),                       # degree 1
]


@st.composite
def resultant_maps(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(RESULTANT_MAPS))
    deg = draw(st.integers(1, 4))
    cs = st.integers(-12, 12)
    num = draw(st.lists(cs, min_size=deg + 1, max_size=deg + 1))
    den = draw(st.lists(cs, min_size=1, max_size=deg + 1))
    try:
        f = RationalMap(num, den)
    except DomainError:
        assume(False)
    assume(abs(map_resultant(f)) > 1)
    return f


POINTS = st.one_of(
    st.sampled_from([None, Fraction(0), Fraction(1), Fraction(-1, 2)]),
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 40)),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(f=resultant_maps(), x=POINTS, steps=st.integers(0, 5))
def test_iterate_matches_fraction_evaluator(f, x, steps):
    steps = min(steps, {1: 5, 2: 5, 3: 4, 4: 3}[f.degree])
    start = INFINITY if x is None else ProjPoint(x)
    expected = [x]
    for _ in range(steps):
        expected.append(fraction_evaluate(f, expected[-1]))
    orbit = iterate(f, start, steps)
    assert [p.value for p in orbit] == expected
    for p, prev in zip(orbit[1:], orbit):
        assert evaluate(f, prev) == p
        r, s = p.pair()
        assert math.gcd(r, s) == 1 and s >= 0
        assert (r, s) == ((1, 0) if p.is_infinity else (p.value.numerator, p.value.denominator))


def test_evaluate_reduces_by_the_resultant():
    half_x = RationalMap([1, 0, 1], [0, 2])         # (x^2+1)/2x
    assert map_resultant(half_x) in (4, -4)
    # (r, s) = (1, 1): F = 2, G = 2 share the factor 2
    assert evaluate(half_x, 1).pair() == (1, 1)
    assert evaluate(half_x, 0).pair() == (1, 0)
    assert evaluate(half_x, INFINITY).pair() == (1, 0)
    deficit = RESULTANT_MAPS[4]
    assert evaluate(deficit, 1) == INFINITY and evaluate(deficit, INFINITY) == INFINITY
    # above the resultant's degree cap the plain gcd reduces
    deep = compose(RESULTANT_MAPS[5], RESULTANT_MAPS[5])
    assert deep.degree == 9
    for x in (None, Fraction(0), Fraction(1), Fraction(-2, 3), Fraction(5, 2)):
        p = evaluate(deep, INFINITY if x is None else x)
        assert p.value == fraction_evaluate(deep, x) and math.gcd(*p.pair()) == 1
    assert ProjPoint.from_coprime(3, -4) == ProjPoint(Fraction(-3, 4))
    assert ProjPoint.from_coprime(-1, 0).pair() == (1, 0)


@st.composite
def sylvester_maps(draw):
    # degree 1-6; num and den of any lengths, so degree deficits are common
    deg = draw(st.integers(1, 6))
    cs = st.integers(-9, 9)
    num = draw(st.lists(cs, min_size=1, max_size=deg + 1))
    den = draw(st.lists(cs, min_size=1, max_size=deg + 1))
    try:
        f = RationalMap(num, den)
    except DomainError:
        assume(False)
    assume(f.degree >= 1)
    return f


COMPOSED = [self_compose(f, k) for f in (RationalMap([-4, 1], [-5, -3, 5]),
                                         RESULTANT_MAPS[4]) for k in (2, 3, 4)]


def sympy_resultant(f):
    # Res(G, F) of the binary forms, in sympy's Sylvester convention.  The
    # substitution Y -> Y + tX has determinant 1, so it keeps the resultant,
    # and for a t with F(1, t) G(1, t) != 0 both forms keep X-degree d.
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    d = f.degree

    def at_one(form, t):
        return sum(c * t**(d - i) for i, c in enumerate(form))
    t = next(t for t in range(2 * d + 2) if all(at_one(form, t) for form in f.forms))
    num, den = (sympy.expand(sum(c * x**i * (1 + t * x)**(d - i) for i, c in enumerate(form)))
                for form in f.forms)
    return int(sympy.resultant(den, num, x))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(f=sylvester_maps())
@example(f=RationalMap([1, 1, 1]))                  # an odd number of row swaps
def test_map_resultant_matches_sympy(f):
    # R comes from the elimination that also solves for the Bezout cofactors
    assert map_resultant(f) == det_fraction(_sylvester_rows(*f.forms))
    assert map_resultant(f) == sympy_resultant(f)


@pytest.mark.parametrize("f", COMPOSED, ids=lambda f: f"d{f.degree}")
def test_map_resultant_matches_sympy_on_composed_maps(f):
    assert map_resultant(f) == det_fraction(_sylvester_rows(*f.forms))
    assert map_resultant(f) == sympy_resultant(f)
