import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitgcd.errors import DomainError
from orbitgcd.experiments import _MULTIPLICITY_PRIMES as PRIMES
from orbitgcd.polys import (Polynomial, max_multiplicity, modp_mult_tower,
                            modp_multiplicity_bound, multiplicity_at, poly_gcd,
                            radical, squarefree_decomposition)


def rand_poly(rng, deg, bound=9):
    coeffs = [Fraction(rng.randint(-bound, bound), rng.randint(1, 4))
              for _ in range(deg)]
    coeffs.append(Fraction(rng.randint(1, bound)))
    return Polynomial(coeffs)


def test_canonical_form_and_degree_sentinel():
    assert Polynomial([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
    assert Polynomial([]).degree == -1
    assert Polynomial([0, 0]).is_zero
    assert Polynomial([5]).degree == 0
    with pytest.raises(DomainError):
        Polynomial([]).leading


def test_divmod_roundtrip_random():
    rng = random.Random(3)
    for _ in range(100):
        a = rand_poly(rng, rng.randint(0, 6))
        b = rand_poly(rng, rng.randint(0, 4))
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.is_zero or r.degree < b.degree


def test_gcd_of_known_products():
    rng = random.Random(17)
    for _ in range(50):
        common = rand_poly(rng, rng.randint(1, 3))
        a = common * rand_poly(rng, rng.randint(0, 3))
        b = common * rand_poly(rng, rng.randint(0, 3))
        g = poly_gcd(a, b)
        assert (a % g).is_zero and (b % g).is_zero
        assert g.degree >= common.degree
        assert g.leading == 1


def test_radical_examples():
    x = Polynomial.x()
    # x^2 (x - 1) -> x (x - 1)
    assert radical(x * x * (x - Polynomial.constant(1))) == x * (x - Polynomial.constant(1))
    # x^4 + 2x^2 + 1 = (x^2+1)^2 -> x^2 + 1
    assert radical(Polynomial([1, 0, 2, 0, 1])) == Polynomial([1, 0, 1])
    # squarefree input comes back monic
    p = Polynomial([2, 0, 4])          # 4x^2 + 2
    assert radical(p) == p.monic()
    with pytest.raises(DomainError):
        radical(Polynomial.zero())


def test_radical_idempotent_and_same_rootset():
    rng = random.Random(23)
    for _ in range(40):
        p = rand_poly(rng, rng.randint(1, 4))
        r = radical(p * p)
        assert radical(r) == r
        # same root set: each divides a power of the other
        assert (p * p % r).is_zero or poly_gcd(p * p, r ** (p.degree * 2)).degree == r.degree


def test_multiplicity_examples():
    assert multiplicity_at(Polynomial([0, 0, 1]), 0) == 2
    cube = Polynomial([-1, 1]) ** 3 * Polynomial([2, 1])
    assert multiplicity_at(cube, 1) == 3
    assert multiplicity_at(Polynomial([0, 0, 0, 0, 1]), 0) == 4
    assert multiplicity_at(Polynomial([1, 1]), 5) == 0
    with pytest.raises(DomainError):
        multiplicity_at(Polynomial.zero(), 1)


def test_multiplicity_sums_to_degree_on_split_products():
    rng = random.Random(31)
    for _ in range(40):
        roots = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rng.randint(1, 5))]
        p = Polynomial.constant(rng.randint(1, 4))
        for r in roots:
            p = p * Polynomial([-r, 1])
        assert sum(multiplicity_at(p, r) for r in set(roots)) == p.degree


def test_yun_decomposition_reconstructs():
    rng = random.Random(41)
    for _ in range(30):
        f1 = rand_poly(rng, rng.randint(1, 2))
        f2 = rand_poly(rng, rng.randint(1, 2))
        p = f1 * f2 * f2 * f2
        decomp = squarefree_decomposition(p)
        rebuilt = Polynomial.constant(1)
        for h, i in decomp:
            rebuilt = rebuilt * h**i
        assert rebuilt.monic() == p.monic()
        assert max_multiplicity(p) >= 3


def test_compose_evaluate_consistency():
    rng = random.Random(53)
    for _ in range(50):
        outer = rand_poly(rng, rng.randint(0, 3))
        inner = rand_poly(rng, rng.randint(0, 3))
        x = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        assert outer.compose(inner).evaluate(x) == outer.evaluate(inner.evaluate(x))


def test_shift_and_content():
    p = Polynomial([Fraction(2, 3), 0, Fraction(4, 3)])
    assert p.content() == Fraction(2, 3)
    prim = p.primitive()
    assert prim.int_coeffs() == [1, 0, 2]
    q = Polynomial([1, 1]).shift(3)     # (x + 3) + 1
    assert q == Polynomial([4, 1])


def int_product(factors):
    out = Polynomial.constant(1)
    for coeffs, power in factors:
        out = out * Polynomial(coeffs) ** power
    return out.int_coeffs()


def per_prime_minimum(coeffs):
    return min((m for p in PRIMES if (m := modp_mult_tower(coeffs, p)) is not None),
               default=None)


def test_joint_tower_falls_back_when_roots_meet_modulo_one_prime():
    p1, p2, p3 = PRIMES
    for p in PRIMES:
        # (x - 5)^2 (x - 5 - p) (x + 1): the roots 5 and 5 + p merge mod p only
        coeffs = int_product([([-5, 1], 2), ([-5 - p, 1], 1), ([1, 1], 1)])
        towers = [modp_mult_tower(coeffs, q) for q in PRIMES]
        assert towers == [3 if q == p else 2 for q in PRIMES]
        with pytest.raises(ValueError):
            modp_mult_tower(coeffs, p1 * p2 * p3)
        assert modp_multiplicity_bound(coeffs, PRIMES) == per_prime_minimum(coeffs) == 2
        assert max_multiplicity(Polynomial(coeffs)) == 2


def test_joint_tower_falls_back_when_leading_coefficient_meets_one_prime():
    for p in PRIMES:
        # (p x + 1) (x - 2)^3 (x + 3): the degree drops mod p only
        coeffs = int_product([([1, p], 1), ([-2, 1], 3), ([3, 1], 1)])
        towers = [modp_mult_tower(coeffs, q) for q in PRIMES]
        assert towers == [None if q == p else 3 for q in PRIMES]
        with pytest.raises(ValueError):
            modp_mult_tower(coeffs, math.prod(PRIMES))
        assert modp_multiplicity_bound(coeffs, PRIMES) == per_prime_minimum(coeffs) == 3


def test_joint_tower_none_when_every_prime_drops_the_degree():
    coeffs = int_product([([1, math.prod(PRIMES)], 1), ([-2, 1], 2)])
    assert modp_multiplicity_bound(coeffs, PRIMES) is None
    assert per_prime_minimum(coeffs) is None


FACTOR = st.lists(st.integers(-20, 20), min_size=2, max_size=5).filter(lambda cs: cs[-1] != 0)


@settings(max_examples=40, deadline=None)
@given(planted=st.tuples(FACTOR, st.integers(2, 4)),
       rest=st.lists(st.tuples(FACTOR, st.integers(1, 3)), max_size=5))
def test_joint_tower_matches_exact_multiplicity(planted, rest):
    sympy = pytest.importorskip("sympy")
    factors = [planted]
    for cs, e in rest:     # keep the degree <= 40
        if sum((len(c) - 1) * k for c, k in factors) + (len(cs) - 1) * e <= 40:
            factors.append((cs, e))
    coeffs = int_product(factors)
    x = sympy.Symbol("x")
    _, sqf = sympy.sqf_list(sympy.Poly(list(reversed(coeffs)), x))
    exact = max(e for _, e in sqf)
    assert modp_multiplicity_bound(coeffs, PRIMES) == per_prime_minimum(coeffs) == exact
