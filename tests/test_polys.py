import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orbitgcd.errors import DomainError
from orbitgcd.linalg import det_fraction
from orbitgcd.polys import (Polynomial, _derivative, _mul, _pseudo_divmod, _reduce, _unit_mod,
                            _yun, exact_div, max_multiplicity, multiplicity_at, poly_gcd,
                            primitive, primitive_gcd, radical, resultant,
                            squarefree_decomposition, trim)

# --- plain coefficient-list arithmetic (ascending), the tests' own oracle ---


def mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def power(a, n):
    out = [1]
    for _ in range(n):
        out = mul(out, a)
    return out


def rem(a, b):
    """Remainder of a by b over Q."""
    r = [Fraction(c) for c in a]
    while len(r) >= len(b):
        f = r[-1] / b[-1]
        k = len(r) - len(b)
        for i, c in enumerate(b):
            r[k + i] -= f * c
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    return r


def monic(cs):
    return [Fraction(c) / cs[-1] for c in cs]


def rand_poly(rng, deg, bound=9):
    coeffs = [Fraction(rng.randint(-bound, bound), rng.randint(1, 4))
              for _ in range(deg)]
    coeffs.append(Fraction(rng.randint(1, bound)))
    return coeffs


def test_canonical_form_and_degree_sentinel():
    assert Polynomial([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
    assert Polynomial([]).degree == -1
    assert Polynomial([0, 0]).is_zero
    assert Polynomial([5]).degree == 0
    with pytest.raises(DomainError):
        Polynomial([]).leading


def test_gcd_of_known_products():
    rng = random.Random(17)
    for _ in range(50):
        common = rand_poly(rng, rng.randint(1, 3))
        a = mul(common, rand_poly(rng, rng.randint(0, 3)))
        b = mul(common, rand_poly(rng, rng.randint(0, 3)))
        g = poly_gcd(Polynomial(a), Polynomial(b))
        assert not rem(a, g.coeffs) and not rem(b, g.coeffs)
        assert g.degree >= len(common) - 1
        assert g.leading == 1


def test_radical_examples():
    # x^2 (x - 1) -> x (x - 1)
    assert radical(Polynomial([0, 0, -1, 1])) == Polynomial([0, -1, 1])
    # x^4 + 2x^2 + 1 = (x^2+1)^2 -> x^2 + 1
    assert radical(Polynomial([1, 0, 2, 0, 1])) == Polynomial([1, 0, 1])
    # squarefree input comes back monic
    assert radical(Polynomial([2, 0, 4])) == Polynomial([Fraction(1, 2), 0, 1])
    with pytest.raises(DomainError):
        radical(Polynomial([]))


def test_radical_idempotent_and_same_rootset():
    rng = random.Random(23)
    for _ in range(40):
        p = rand_poly(rng, rng.randint(1, 4))
        square = mul(p, p)
        r = radical(Polynomial(square))
        assert radical(r) == r
        # same root set: each divides a power of the other
        assert not rem(square, r.coeffs) or poly_gcd(
            Polynomial(square), Polynomial(power(r.coeffs, 2 * (len(p) - 1)))
        ).degree == r.degree


def test_multiplicity_examples():
    assert multiplicity_at(Polynomial([0, 0, 1]), 0) == 2
    cube = mul(power([-1, 1], 3), [2, 1])
    assert multiplicity_at(Polynomial(cube), 1) == 3
    assert multiplicity_at(Polynomial([0, 0, 0, 0, 1]), 0) == 4
    assert multiplicity_at(Polynomial([1, 1]), 5) == 0
    with pytest.raises(DomainError):
        multiplicity_at(Polynomial([]), 1)


def test_multiplicity_sums_to_degree_on_split_products():
    rng = random.Random(31)
    for _ in range(40):
        roots = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rng.randint(1, 5))]
        p = [rng.randint(1, 4)]
        for r in roots:
            p = mul(p, [-r, 1])
        assert sum(multiplicity_at(Polynomial(p), r) for r in set(roots)) == len(p) - 1


def test_yun_decomposition_reconstructs():
    rng = random.Random(41)
    for _ in range(30):
        f1 = rand_poly(rng, rng.randint(1, 2))
        f2 = rand_poly(rng, rng.randint(1, 2))
        p = mul(f1, power(f2, 3))
        decomp = squarefree_decomposition(Polynomial(p))
        rebuilt = [1]
        for h, i in decomp:
            rebuilt = mul(rebuilt, power(h.coeffs, i))
        assert monic(rebuilt) == monic(p)
        assert max_multiplicity(Polynomial(p)) >= 3


def yun_loop(f):
    # Yun's loop on every input, squarefree ones included: the reference for
    # _yun, which answers a squarefree f without it
    df = _derivative(f)
    u = primitive_gcd(f, df)
    v, w = exact_div(f, u), exact_div(df, u)
    out = []
    i = 1
    while len(v) > 1:
        dv = _derivative(v)
        y = trim([x - c for x, c in zip(w + [0] * len(dv), dv)])
        h = primitive_gcd(v, y)
        if len(h) > 1:
            out.append((h, i))
        v, w = exact_div(v, h), exact_div(y, h)
        i += 1
    return out


@settings(max_examples=300, deadline=None)
@given(content=st.integers(-12, 12).filter(bool),
       a=st.lists(st.integers(-9, 9), min_size=1, max_size=5).filter(lambda cs: cs[-1]),
       b=st.lists(st.integers(-9, 9), min_size=1, max_size=3).filter(lambda cs: cs[-1]),
       k=st.integers(1, 3))
@example(content=1, a=[1, 0, 3], b=[1], k=1)        # x^3 + x - 1's Wronskian
@example(content=-4, a=[1, 0, 3], b=[1], k=1)       # negative, not primitive
@example(content=6, a=[-1, 0, 1], b=[1], k=1)
@example(content=-1, a=[1], b=[0, 1], k=2)          # -x^2: not squarefree
def test_yun_matches_the_loop_on_every_input(content, a, b, k):
    # f = content * a * b^k, of degree >= 1, squarefree or not, with either
    # sign of leading coefficient and any content
    f = [content * c for c in mul(a, power(b, k))]
    assume(len(f) > 1)
    assert _yun(f) == yun_loop(f)


def test_primitive_clears_denominators_and_content():
    assert primitive([Fraction(2, 3), 0, Fraction(4, 3)]) == [1, 0, 2]
    assert primitive([Fraction(-2, 3), 0, Fraction(4, 3)]) == [-1, 0, 2]
    assert primitive([6, -9, 0]) == [2, -3, 0]          # sign kept, no trimming
    assert primitive([0, 0]) == [0, 0]
    assert primitive([]) == []


def test_exact_div_examples():
    assert exact_div([-1, 0, 1], [1, 1]) == [-1, 1]
    assert exact_div([1, 0, 1], [1, 1]) is None
    assert exact_div([], [1, 1]) == []
    assert exact_div([3], [1, 1]) is None
    # divisible over Q but not over Z: b is not primitive
    assert exact_div([1, 1], [2, 2]) is None
    assert exact_div([4, 6], [2, 3]) == [2]


# --- independent oracle: sympy on non-monic, non-primitive rational input ---

RATIONAL = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
NONZERO = RATIONAL.filter(bool)
FACTOR_Q = st.builds(lambda low, lead: low + [lead],
                     st.lists(RATIONAL, min_size=1, max_size=3), NONZERO)
ROOT = st.builds(Fraction, st.integers(-9, 9), st.integers(2, 7)).filter(
    lambda q: q.denominator > 1)


@st.composite
def rational_polys(draw):
    """scale * prod f_i^e_i * prod (x - q_j)^m_j, roots q_j = u/v with v > 1."""
    p = [draw(NONZERO)]
    for f, e in draw(st.lists(st.tuples(FACTOR_Q, st.integers(1, 3)), max_size=3)):
        p = mul(p, power(f, e))
    for q, m in draw(st.lists(st.tuples(ROOT, st.integers(1, 4)), max_size=2)):
        p = mul(p, power([-q, 1], m))
    return p


def sympy_poly(sympy, cs):
    x = sympy.Symbol("x")
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed([Fraction(c) for c in cs])], x, domain="QQ")


def from_sympy(poly):
    return [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]


def sympy_sqf(sympy, cs):
    _, factors = sympy.sqf_list(sympy_poly(sympy, cs))
    return [(monic(from_sympy(f)), e) for f, e in factors if f.degree() > 0]


@settings(max_examples=40, deadline=None)
@given(common=rational_polys(), a=rational_polys(), b=rational_polys())
def test_poly_gcd_matches_sympy(common, a, b):
    sympy = pytest.importorskip("sympy")
    a, b = mul(common, a), mul(common, b)
    expected = sympy_poly(sympy, a).gcd(sympy_poly(sympy, b))
    assert poly_gcd(Polynomial(a), Polynomial(b)).coeffs == tuple(monic(from_sympy(expected)))


@settings(max_examples=40, deadline=None)
@given(p=rational_polys())
def test_squarefree_structure_matches_sympy(p):
    sympy = pytest.importorskip("sympy")
    expected = sympy_sqf(sympy, p)
    got = squarefree_decomposition(Polynomial(p))
    assert sorted((list(h.coeffs), i) for h, i in got) == sorted(expected)
    assert max_multiplicity(Polynomial(p)) == max((e for _, e in expected), default=0)
    rad = [1]
    for f, _ in expected:
        rad = mul(rad, f)
    assert radical(Polynomial(p)).coeffs == tuple(monic(rad))


@settings(max_examples=40, deadline=None)
@given(p=rational_polys(), extra=ROOT)
def test_multiplicity_at_matches_sympy_roots(p, extra):
    sympy = pytest.importorskip("sympy")
    rational_roots = sympy.roots(sympy_poly(sympy, p), filter="Q")
    for q, m in rational_roots.items():
        assert multiplicity_at(Polynomial(p), Fraction(int(q.p), int(q.q))) == m
    expected = rational_roots.get(sympy.Rational(extra.numerator, extra.denominator), 0)
    assert multiplicity_at(Polynomial(p), extra) == expected


INT_POLY = st.lists(st.integers(-50, 50), min_size=1, max_size=6).filter(lambda cs: cs[-1] != 0)


@settings(max_examples=100, deadline=None)
@given(a=INT_POLY, b=INT_POLY, r=st.lists(st.integers(-50, 50), max_size=5))
def test_exact_div_inverts_multiplication(a, b, r):
    assert exact_div(mul(a, b), b) == a
    # a * b + r with 0 != deg r < deg b: b divides it in neither Z[x] nor Q[x]
    r = r[:len(b) - 1]
    while r and r[-1] == 0:
        r.pop()
    if r:
        ab = mul(a, b)
        assert exact_div([x + (r[i] if i < len(r) else 0) for i, x in enumerate(ab)], b) is None
    if len(b) == 1 and abs(b[0]) > 1:     # a constant that does not divide a b + 1
        ab = mul(a, b)
        assert exact_div([ab[0] + 1] + ab[1:], b) is None


def sylvester(a, b):
    """The Sylvester matrix of ascending integer lists of degrees m, n: n
    shifted rows of a's coefficients, then m of b's, highest degree first."""
    m, n = len(a) - 1, len(b) - 1
    return ([[0] * i + a[::-1] + [0] * (n - 1 - i) for i in range(n)]
            + [[0] * i + b[::-1] + [0] * (m - 1 - i) for i in range(m)])


RESULTANT_POLY = st.lists(st.integers(-9, 9), min_size=1, max_size=9).filter(lambda cs: cs[-1])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(a=RESULTANT_POLY, b=RESULTANT_POLY,
       shared=st.sampled_from([[1], [1], [1], [-1, 1], [2, 0, -3]]))
@example(a=[1, -5], b=[0, 4, 3, -2], shared=[1])   # sympy.resultant answers +113
def test_resultant_is_the_sylvester_determinant_with_its_cofactors(a, b, shared):
    # degrees 0-8 either way round, constants included (not both), and a
    # shared factor that makes Res = 0
    assume(len(a) + len(b) > 2)
    a, b = mul(a, shared), mul(b, shared)
    res, s, t = resultant(a, b)
    assert res == det_fraction(sylvester(a, b))
    combo = [x + y for x, y in zip(mul(s, a) + [0] * len(b), mul(t, b) + [0] * len(a))]
    assert combo[:len(a) + len(b) - 1] == [res] + [0] * (len(a) + len(b) - 2)
    assert len(s) < len(b) and len(t) < len(a)


# --- the integer-list kernels, on the short lists the critical walk passes ---

KERNEL_POLY = st.lists(st.integers(-30, 30), min_size=1, max_size=6).map(
    lambda cs: cs[:-1] + [cs[-1] or 1])
SHARED = st.sampled_from([[1], [1], [-1], [3], [-1, 1], [2, 0, -3], [1, 1, 1]])


def sympy_int_poly(sympy, cs):
    return sympy.Poly(list(reversed(cs)), sympy.Symbol("x"), domain="ZZ")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(a=KERNEL_POLY, b=KERNEL_POLY, shared=SHARED, zero=st.sampled_from([None, "a", "b"]))
@example(a=[3, 1], b=[-4], shared=[1], zero=None)
@example(a=[-4], b=[3, 1], shared=[1], zero=None)
@example(a=[5], b=[-7], shared=[1], zero=None)
@example(a=[-6], b=[1], shared=[1], zero="b")
def test_primitive_gcd_matches_sympy_up_to_content_and_sign(a, b, shared, zero):
    # constants and a zero operand included; a nonzero constant answers [1] or
    # [-1] with its own sign, which Yun's algorithm divides by
    sympy = pytest.importorskip("sympy")
    a, b = mul(a, shared), mul(b, shared)
    if zero == "a":
        a = []
    elif zero == "b":
        b = []
    g = primitive_gcd(a, b)
    expected = [int(c) for c in reversed(sympy_int_poly(sympy, a or [0]).gcd(
        sympy_int_poly(sympy, b or [0])).primitive()[1].all_coeffs())]
    assert g in (expected, [-c for c in expected])
    constants = [c for c in (b, a) if len(c) == 1]
    if len(a) != len(b) and constants:
        assert g == [1 if constants[0][0] > 0 else -1]
    assert primitive_gcd([-5], [3, 0, 1]) == [-1] == primitive_gcd([7], [-2])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(a=KERNEL_POLY, b=KERNEL_POLY.filter(lambda cs: len(cs) > 1), monic=st.booleans())
@example(a=[3], b=[1, 2], monic=False)
@example(a=[1, 0, 0, 0, 1], b=[0, 0, -2], monic=False)
def test_pseudo_remainder_is_a_multiple_of_a_power_of_lc(a, b, monic):
    # lc^(delta+1) a = q b + r exactly in Z[x], delta = deg a - deg b, with
    # deg r < deg b and r trimmed; a monic divisor gives the remainder itself
    a = [0] * (len(b) - len(a)) + a         # times x^k, so that deg a >= deg b
    if monic:
        b[-1] = 1
    q, r = _pseudo_divmod(a, b)
    lc, delta = b[-1], len(a) - len(b)
    assert len(q) == delta + 1 and len(r) < len(b) and (not r or r[-1] != 0)
    assert [lc ** (delta + 1) * c for c in a] == [
        u + v for u, v in zip(mul(q, b), r + [0] * len(a))]
    if monic:
        assert r == _reduce(list(a), b)
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    pa, pb, pr = (sympy.Poly(list(reversed(cs or [0])), x, domain="QQ") for cs in (a, b, r))
    assert pr == (lc ** (delta + 1) * pa).rem(pb)


@settings(max_examples=100, deadline=None)
@given(cs=st.lists(st.integers(-60, 60), max_size=6), den=st.integers(1, 9))
def test_primitive_is_the_same_on_ints_and_on_equal_fractions(cs, den):
    fractions = [Fraction(c * den, den) for c in cs]
    got = primitive(cs)
    assert got == primitive(fractions) == primitive([Fraction(c, den) for c in cs])
    assert got is not cs and all(type(c) is int for c in got)
    mixed = cs + [Fraction(1, 2)]
    assert primitive(mixed) == primitive([Fraction(c) for c in mixed])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(a=st.lists(st.integers(-30, 30), max_size=5), b=st.lists(st.integers(-30, 30), max_size=5),
       p=st.lists(st.integers(-9, 9), max_size=4))
@example(a=[7], b=[1, 2, 3], p=[])
@example(a=[1, 2, 3], b=[-2], p=[])
@example(a=[0], b=[4, 5], p=[3, 0])
def test_mul_with_length_one_operands_and_mod_a_monic_p(a, b, p):
    # the plain product, lengths and zeros as the schoolbook product has
    # them; with a monic p, that product's remainder mod p, trimmed
    sympy = pytest.importorskip("sympy")
    assert _mul(a, b) == mul(a, b) == _mul(b, a)
    p = p + [1]
    r = _mul(a, b, p)
    expected = rem(mul(a, b), p) if a and b else []
    assert r == expected and all(type(c) is int for c in r)
    x = sympy.Symbol("x")
    if a and b and any(mul(a, b)):
        product = sympy.Poly(list(reversed(mul(a, b))), x, domain="ZZ")
        assert sympy.Poly(list(reversed(r or [0])), x, domain="ZZ") == product.rem(
            sympy.Poly(list(reversed(p)), x, domain="ZZ"))


def test_zero_inputs_of_gcd_and_squarefree_decomposition():
    zero = Polynomial([])
    assert poly_gcd(zero, zero) == zero
    with pytest.raises(DomainError):
        squarefree_decomposition(zero)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=5),
       st.lists(st.integers(-9, 9), max_size=5), st.sampled_from([2, 3, 5, 7, (1 << 61) - 1]))
def test_unit_mod_is_a_resultant_prime_to_q(low, h, q):
    # p monic of degree >= 1, so Res(p, h) mod q is Res(p mod q, h mod q): it
    # is nonzero exactly when gcd(p, h) = 1 in F_q[t]
    p, h = low + [1], trim(h)
    res = resultant(p, h)[0] if len(h) > 1 else (h[0] ** len(low) if h else 0)
    assert _unit_mod(h, p, q) == (res % q != 0)
