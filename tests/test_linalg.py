import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitgcd.exact import next_prime
from orbitgcd.linalg import kernel_modp, rational_reconstruct

TINY_PRIMES = (2, 3, 5, 7, 11, 13)


def reference_rref_modp(rows, p):
    """Gauss-Jordan over every row, as the kernels were computed before the
    incremental elimination: (rref rows, pivot columns)."""
    a = [[v % p for v in row] for row in rows]
    n = len(a)
    m = len(a[0]) if n else 0
    pivots = []
    r = 0
    for c in range(m):
        pr = next((i for i in range(r, n) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [v * inv % p for v in a[r]]
        for i in range(n):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(vi - f * vr) % p for vi, vr in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    return a[:r], pivots


def reference_kernel_modp(rows, p):
    if not rows:
        return []
    m = len(rows[0])
    rref, pivots = reference_rref_modp(rows, p)
    basis = []
    for fc in range(m):
        if fc in pivots:
            continue
        vec = [0] * m
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = (-rref[r][fc]) % p
        basis.append(vec)
    return basis


def _kernel_sweep(n_cases, seed):
    """(rows, primes): 1-3 distinct primes, 61-bit or tiny, with planted rank
    deficiency and entries forced to 0 modulo one of the primes."""
    rng = random.Random(seed)
    big = [next_prime(rng.randrange(1 << 60, 1 << 61)) for _ in range(4)]
    cases = []
    for _ in range(n_cases):
        pool = rng.choice([big, TINY_PRIMES, big[:2] + list(TINY_PRIMES[:3])])
        primes = rng.sample(pool, rng.randint(1, 3))
        mod = math.prod(primes)
        n_cols = rng.randint(1, 7)
        rows = [[rng.randrange(mod) for _ in range(n_cols)]
                for _ in range(rng.randint(1, 9))]
        if rng.random() < 0.5:       # rows that are combinations of others
            for _ in range(rng.randint(1, 3)):
                u, v = rng.choice(rows), rng.choice(rows)
                s, t = rng.randrange(mod), rng.randrange(mod)
                rows.append([s * x + t * y for x, y in zip(u, v)])
            rng.shuffle(rows)
        if rng.random() < 0.5:       # zero modulo one prime only: a zero divisor
            p = rng.choice(primes)
            for row in rng.sample(rows, rng.randint(1, len(rows))):
                for c in rng.sample(range(n_cols), rng.randint(1, n_cols)):
                    row[c] = p * rng.randrange(mod)
        if rng.random() < 0.2:       # a zero column
            c = rng.randrange(n_cols)
            for row in rows:
                row[c] = 0
        cases.append((rows, primes))
    return cases


def test_kernels_match_gauss_jordan_over_every_row():
    fallbacks = 0
    for rows, primes in _kernel_sweep(3000, 24):
        want = {p: reference_kernel_modp(rows, p) for p in primes}
        for p, basis in want.items():
            assert kernel_modp(rows, p) == basis, (rows, p)
        # modulo a composite, a pivot that is no unit raises; when every
        # pivot is a unit, the basis reduced modulo each factor is its own
        try:
            basis = kernel_modp(rows, math.prod(primes))
        except ValueError:
            fallbacks += 1
        else:
            assert {p: [[v % p for v in vec] for vec in basis] for p in primes} == want
    # the primes disagree on a pivot often enough that the composite raises
    assert fallbacks > 300


def test_kernel_modp_edge_shapes():
    assert kernel_modp([], 7) == []
    assert kernel_modp([[0, 0]], 7) == [[1, 0], [0, 1]]
    assert kernel_modp([[3, 0], [0, 2]], 7) == []
    # entries need not be reduced, and may be negative
    assert kernel_modp([[-1, 15]], 7) == [[1, 1]]
    with pytest.raises(ValueError):
        kernel_modp([[5, 1]], 35)


def test_kernels_match_sympy_nullspace():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    for rows, primes in _kernel_sweep(300, 77):
        for p in primes:
            basis = kernel_modp(rows, p)
            field = sympy.GF(p)
            matrix = DomainMatrix([[field(v % p) for v in row] for row in rows],
                                  (len(rows), len(rows[0])), field)
            want = [[field.to_int(x) % p for x in vec]
                    for vec in matrix.nullspace(divide_last=True).to_list()]
            assert basis == want, (rows, p)


# a 182-bit prime, as the genericity probe screens with, and small primes
_RECONSTRUCTION_PRIMES = (next_prime(1 << 181), 5, 7, 101, 65537, next_prime(10**9))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from(_RECONSTRUCTION_PRIMES), st.data())
def test_rational_reconstruct_lifts_every_fraction_within_reach(m, data):
    bound = math.isqrt(m // 2)
    d = data.draw(st.integers(1, bound))
    n = data.draw(st.integers(-bound, bound))
    assert rational_reconstruct(n * pow(d, -1, m), m) == Fraction(n, d)
    assert rational_reconstruct(0, m) == 0


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from(_RECONSTRUCTION_PRIMES), st.integers())
def test_rational_reconstruct_results_are_residues(m, a):
    r = rational_reconstruct(a, m)
    if r is not None:
        bound = math.isqrt(m // 2)
        assert abs(r.numerator) <= bound and r.denominator <= bound
        assert (r.numerator - r.denominator * a) % m == 0
