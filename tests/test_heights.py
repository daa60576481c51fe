import math
import pickle
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orbitgcd.errors import BudgetExceededError, DomainError
from orbitgcd.exact import Real, factor, log_abs, log_fixed, valuation
from orbitgcd.heights import (HeightEstimate, PlaceSet, _arch_green_log,
                              _discrepancy_base, _padic_gcd_exponent,
                              bad_places, canonical_height,
                              discrepancy_bound, hgcd, hgcd_excluding,
                              hgcd_fin, map_resultant, weil_height)
from orbitgcd.linalg import solve_fraction
from orbitgcd.maps import (INFINITY, ProjPoint, RationalMap, _sylvester_rows, bezout_record,
                           evaluate, iterate, self_compose)

X2 = RationalMap([0, 0, 1])
X2P1 = RationalMap([1, 0, 1])
X2M1 = RationalMap([-1, 0, 1])
X3X = RationalMap([0, 1, 0, 1])


def all_rationals_up_to(max_abs):
    yield INFINITY
    for q in range(1, max_abs + 1):
        for p in range(-max_abs, max_abs + 1):
            if math.gcd(abs(p), q) == 1:
                yield ProjPoint(Fraction(p, q))


def test_weil_height_examples():
    assert abs(weil_height(Fraction(3, 2)) - math.log(3)) < 1e-15
    assert abs(weil_height(7) - math.log(7)) < 1e-15
    assert weil_height(INFINITY) == 0
    assert weil_height(0) == 0


def test_discrepancy_bound_validity_exhaustive_small():
    # every rational of height <= log 50 satisfies |h(f(x)) - d h(x)| <= C
    for f in (X2P1, X2M1, X3X, X2):
        c = float(discrepancy_bound(f))
        d = f.degree
        for point in all_rationals_up_to(50):
            img = evaluate(f, point)
            disc = abs(float(weil_height(img)) - d * float(weil_height(point)))
            assert disc <= c + 1e-9


def test_discrepancy_bound_at_least_log2_for_x2p1():
    # h(f(1)) = log 2, h(1) = 0 forces C >= log 2
    assert float(discrepancy_bound(X2P1)) >= math.log(2) - 1e-12


def test_discrepancy_bound_random_property():
    rng = random.Random(15)
    for f in (X2P1, X3X, RationalMap([3, 0, 1], [3]), RationalMap([1, 2, 0, 5], [0, 0, 7])):
        c = float(discrepancy_bound(f))
        d = f.degree
        for _ in range(1000):
            point = ProjPoint(Fraction(rng.randint(-999, 999), rng.randint(1, 999)))
            img = evaluate(f, point)
            disc = abs(float(weil_height(img)) - d * float(weil_height(point)))
            assert disc <= c + 1e-9


def test_discrepancy_bound_degree_one_rejected():
    with pytest.raises(DomainError):
        discrepancy_bound(RationalMap([1, 1]))


def test_canonical_height_examples():
    est = canonical_height(X2, 3, 1e-10)
    assert abs(float(est.value) - math.log(3)) <= 1e-10
    assert float(est.error_bound) <= 1e-10
    assert canonical_height(X2, 1, 1e-8).is_exact_zero
    assert canonical_height(X2M1, 0, 1e-6).is_exact_zero
    assert canonical_height(X2, INFINITY, 1e-8).is_exact_zero


def test_canonical_height_functional_equation_100_points():
    rng = random.Random(55)
    for f in (X2P1, X2M1, X3X):
        d = f.degree
        for _ in range(34):
            point = ProjPoint(Fraction(rng.randint(-100, 100), rng.randint(1, 100)))
            img = evaluate(f, point)
            if img.is_infinity:
                continue
            lhs = canonical_height(f, img, 1e-8)
            rhs = canonical_height(f, point, 1e-8)
            assert abs(float(lhs.value) - d * float(rhs.value)) <= 2e-8


def test_canonical_height_close_to_weil_height():
    rng = random.Random(56)
    for f in (X2P1, X3X):
        c_over = float(discrepancy_bound(f)) / (f.degree - 1)
        for _ in range(25):
            point = ProjPoint(Fraction(rng.randint(-500, 500), rng.randint(1, 500)))
            est = canonical_height(f, point, 1e-8)
            assert abs(float(est.value) - float(weil_height(point))) <= c_over + 1e-8


def test_canonical_height_green_vs_orbit_oracle():
    # maps whose resultant is not a unit exercise the p-adic corrections;
    # the oracle is the definition itself at finite depth
    for f, point in ((RationalMap([3, 0, 1], [3]), ProjPoint(1)),
                     (RationalMap([1, 4, 0, 2], [2]), ProjPoint(Fraction(1, 2))),
                     (RationalMap([5, 0, 5], [0, 0, 3]), ProjPoint(2))):
        d = f.degree
        est = canonical_height(f, point, 1e-9)
        depth = 11
        tail = float(discrepancy_bound(f)) / (d**depth * (d - 1))
        last = iterate(f, point, depth)[-1]
        oracle = float(weil_height(last)) / d**depth
        assert abs(float(est.value) - oracle) <= tail + 1e-9


def test_canonical_height_green_vs_oracle_random_maps():
    rng = random.Random(2718)
    checked = 0
    while checked < 12:
        num = [rng.randint(-6, 6) for _ in range(3)]
        den = [rng.randint(-6, 6) for _ in range(rng.randint(1, 3))]
        num[-1] = num[-1] or 1
        den[-1] = den[-1] or 1
        try:
            f = RationalMap(num, den)
        except DomainError:
            continue
        if f.degree != 2:
            continue
        point = ProjPoint(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        est = canonical_height(f, point, 1e-9)
        if est.is_exact_zero:
            continue
        try:
            last = iterate(f, point, 9, digit_budget=10**6)[-1]
        except BudgetExceededError:
            continue
        oracle = float(weil_height(last)) / 2**9
        tail = float(discrepancy_bound(f)) / (2**9 * 1)
        assert abs(float(est.value) - oracle) <= tail + 1e-9
        checked += 1


def padic_gcd_exponent_fixed_precision(f, r0, s0, p, v_res, n_steps):
    """v_p(gcd(p_N, q_N)) with every step mod the same p^K, K = (N + 1) v + 1:
    the loop _padic_gcd_exponent shrinks step by step, kept as its reference."""
    d = f.degree
    K = n_steps * v_res + v_res + 1
    mod = p**K
    a, b = r0 % mod, s0 % mod
    gamma = 0
    for _ in range(n_steps):
        va_, vb_ = (v % mod for v in f.form_values(a, b))
        m = min(K if v == 0 else valuation(p, v) for v in (va_, vb_))
        gamma = d * gamma + m
        pm = p**m
        a, b = va_ // pm, vb_ // pm
    return gamma


def test_padic_gcd_exponent_matches_fixed_precision_reference():
    rng = random.Random(1170)
    checked = nonzero = 0
    while checked < 120:
        deg = rng.randint(1, 4)
        num = [rng.randint(-9, 9) for _ in range(deg + 1)]
        den = [rng.randint(-9, 9) for _ in range(rng.randint(1, deg + 1))]
        try:
            f = RationalMap(num, den)
        except DomainError:
            continue
        res = abs(map_resultant(f))
        if res <= 1:
            continue
        start = (INFINITY if rng.random() < 0.1
                 else ProjPoint(Fraction(rng.randint(-50, 50), rng.randint(1, 50))))
        r0, s0 = start.pair()
        for p, e in factor(res).factors:
            for n_steps in (0, 1, 2, 3, rng.randint(4, 40)):
                gamma = _padic_gcd_exponent(f, r0, s0, p, e, n_steps)
                assert gamma == padic_gcd_exponent_fixed_precision(f, r0, s0, p, e, n_steps)
                nonzero += gamma > 0
        checked += 1
    assert nonzero > 100
    # deep ones: (2x^4 - 1)/3x at p = 3 from 2, as canonical_height at tol
    # 1e-300 runs it, and x^2 + 1/3 (Res 3^4) from 1/3
    for f, r0, s0 in ((RationalMap([-1, 0, 0, 0, 2], [0, 3]), 2, 1),
                      (RationalMap([Fraction(1, 3), 0, 1]), 1, 3)):
        e = dict(factor(abs(map_resultant(f))).factors)[3]
        assert (_padic_gcd_exponent(f, r0, s0, 3, e, 501)
                == padic_gcd_exponent_fixed_precision(f, r0, s0, 3, e, 501))


def test_canonical_height_budget_error():
    with pytest.raises(BudgetExceededError):
        canonical_height(X2P1, 5, 1e-12, max_iterations=3)


def linear_step_count(f, tol):
    """The least n with C_f / (d^n (d-1)) <= tol / (d+1), by counting up
    from 0 in exact rationals, with C_f to 2^-600."""
    d = f.degree
    c_f = Fraction(log_fixed(_discrepancy_base(f), 600), 2**600)
    target = Fraction(tol) / (d + 1)
    n_steps = 0
    while c_f / (d**n_steps * (d - 1)) > target:
        n_steps += 1
    return n_steps


STEP_MAPS = (X2P1, RationalMap([1, 0, 0, 1]), RationalMap([-1, 0, 0, 0, 2], [0, 3]),
             RationalMap([2, 0, 0, 0, 0, 1]))


@pytest.mark.parametrize("f", STEP_MAPS, ids=lambda f: f"d{f.degree}")
def test_canonical_height_step_count_matches_linear_search(f):
    # the budget is checked before the orbit runs, so a budget one short
    # of the oracle exposes the step count without the height's cost
    tols = [10.0**-k for k in range(3, 301)] + [3.7 * 10.0**-k for k in range(3, 301, 7)]
    for tol in tols:
        n = linear_step_count(f, tol)
        with pytest.raises(BudgetExceededError) as info:
            canonical_height(f, 3, tol, max_iterations=n - 1)
        assert info.value.steps == n - 1
        assert str(info.value) == (f"needed more than {n - 1} iterations to "
                                   f"reach tolerance {tol}")
    for tol in (1e-3, 1e-10, 1e-50, 1e-100, 1e-300):
        n = linear_step_count(f, tol)
        assert canonical_height(f, 3, tol, max_iterations=n).iterations_used == n
    # a budget far below the estimate raises at once, with the same payload
    with pytest.raises(BudgetExceededError) as info:
        canonical_height(f, 3, 1e-300, max_iterations=3)
    assert info.value.steps == 3
    assert str(info.value) == "needed more than 3 iterations to reach tolerance 1e-300"


def exact_orbit_log(f, r, s, n_steps, ctx):
    """log max(|F^N(r, s)|, |G^N(r, s)|) from the exact un-reduced pair,
    each form summed term by term, and the log taken of the top 2 prec
    bits plus the exact shift."""
    d = f.degree
    num, den = f.forms
    for _ in range(n_steps):
        r, s = (sum(c * r**i * s**(d - i) for i, c in enumerate(form))
                for form in (num, den))
    m = max(abs(r), abs(s))
    shift = max(0, m.bit_length() - 2 * ctx.prec)
    return ctx.log(ctx.mpf(m >> shift)) + shift * ctx.ln2


KERNEL_MAPS = (X2P1, X2M1, RationalMap([1, 0, 1], [0, 2]), RationalMap([3, 0, 1], [3]),
               RationalMap([5, 0, 5], [0, 0, 3]), RationalMap([1, 4, 0, 2], [2]),
               RationalMap([0, 1, 0, 1]), RationalMap([-7, 0, 1, 0, 3], [5, 0, 0, 2]),
               RationalMap([1, 3], [2, 0, 0, 1]))
KERNEL_STARTS = ((0, 1), (1, 0), (-3, 4), (-5, 1), (7, 3), (-(2**500 + 12345), 7))


@pytest.mark.parametrize("bits", [192, 460])
def test_arch_green_log_matches_exact_orbit(bits):
    # error at most (1 + 2 |log|) 2^-P: the final logarithm rounds once to
    # a unit of 2^-P, and each truncation of the pair to P bits moves the
    # log of a number of at least P bits by far less than 2^-P of it; the
    # exact pair is un-reduced, so maps with |Res| > 1 keep common factors
    assert {abs(map_resultant(f)) > 1 for f in KERNEL_MAPS} == {False, True}
    assert {f.degree for f in KERNEL_MAPS} == {2, 3, 4}
    ref = mpmath.MPContext()
    ref.prec = 2 * bits + 64
    checked = 0
    for f in KERNEL_MAPS:
        for r, s in KERNEL_STARTS:
            for n_steps in range(11):
                if f.degree ** n_steps * (max(abs(r), abs(s)).bit_length() + 8) > 2**18:
                    break
                got = ref.ldexp(_arch_green_log(f, r, s, n_steps, bits), -bits)
                exact = exact_orbit_log(f, r, s, n_steps, ref)
                bound = (1 + 2 * abs(exact)) * ref.mpf(2) ** -bits
                assert abs(got - exact) <= bound, (f, r, s, n_steps)
                checked += 1
    assert checked > 300


@pytest.mark.parametrize("tol", [0, -1e-8, math.inf, math.nan])
def test_canonical_height_rejects_tol_not_finite_and_positive(tol):
    with pytest.raises(DomainError):
        canonical_height(X2P1, 5, tol)


def test_results_are_exact_reals_and_pickle():
    # every real result is an exact Real (a Fraction m / 2^k with every
    # computed bit), and mpmath takes it exactly through _mpmath_
    est = canonical_height(X2P1, Fraction(1, 2), 1e-60)
    lv = hgcd(Fraction(5, 3), Fraction(10, 7))
    values = [est.value, est.error_bound, lv.arch, lv.total(), weil_height(7),
              discrepancy_bound(X2P1), log_abs(Fraction(-1, 8))]
    assert all(type(v) is Real for v in values)
    assert est.value.numerator.bit_length() > 200
    assert pickle.loads(pickle.dumps((est, lv, values))) == (est, lv, values)
    assert all(type(v) is Real for v in pickle.loads(pickle.dumps(values)))
    ref = mpmath.MPContext()
    ref.prec = 1200
    for v in values:
        assert Fraction(*mpmath.libmp.to_rational(ref.mpf(v)._mpf_)) == v
    assert type(est.value + est.error_bound) is Fraction


_REF = mpmath.MPContext()
_REF.prec = 1200
_ESCAPED = _REF.exp(5000)
_REF_ERROR = _REF.mpf(2) ** -500


def quadratic_height_reference(c: int, start: Fraction):
    """The canonical height of u/v under x^2 + c (integer c): log v plus
    the real Green function, taken as log+|x_n| / 2^n in 1200-bit floats.

    The n-th iterate has denominator v^(2^n), so the finite places give
    log v.  The loop stops once |x_n| > e^5000, where the rest of the limit
    is below |c| e^-10000 / 2^n, or after 1200 steps for an orbit that
    stays small, where log+|x_n| / 2^n is below 2^-1190.  Rounding in a
    bounded chaotic orbit can push it out of its interval late; the height
    that adds is below 2^-500 (_REF_ERROR)."""
    x = _REF.mpf(start.numerator) / start.denominator
    n = 0
    while abs(x) <= _ESCAPED and n < _REF.prec:
        x = x * x + c
        n += 1
    tail = _REF.log(abs(x)) if abs(x) > 1 else 0
    return _REF.log(start.denominator) + tail / _REF.mpf(2) ** n


@settings(max_examples=60, deadline=None, derandomize=True)
@given(c=st.sampled_from([-3, -2, -1, 1, 2, 3]),
       start=st.fractions(min_value=-10, max_value=10, max_denominator=12),
       tol=st.sampled_from([1e-10, 1e-30, 1e-60, 1e-100]))
def test_canonical_height_bracket_holds(c, start, tol):
    est = canonical_height(RationalMap([c, 0, 1]), start, tol)
    reference = quadratic_height_reference(c, start)
    assert abs(reference - est.value) <= _REF_ERROR + est.error_bound
    assert est.error_bound <= tol


def test_map_resultants():
    assert abs(map_resultant(X2)) == 1
    assert abs(map_resultant(RationalMap([3, 0, 1], [3]))) == 9


@st.composite
def bezout_maps(draw):
    # degree 1-6 with degree deficits, or a self-composed map up to degree 16
    if draw(st.integers(0, 7)) == 0:
        base = draw(st.sampled_from([RationalMap([-4, 1], [-5, -3, 5]),
                                     RationalMap([5, 0, 1], [-1, 1])]))
        return self_compose(base, draw(st.integers(2, 4)))
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


def fraction_solve(matrix, rhs):
    """Solve A x = b over the rationals; returns None if singular/inconsistent.
    The Fraction Gauss-Jordan solver the cofactor height used before the
    fraction-free elimination, kept as a reference."""
    n = len(matrix)
    m = len(matrix[0])
    a = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    piv_rows = []
    r = 0
    for c in range(m):
        pr = next((i for i in range(r, n) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = a[r][c]
        a[r] = [v / inv for v in a[r]]
        for i in range(n):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [vi - f * vr for vi, vr in zip(a[i], a[r])]
        piv_rows.append(c)
        r += 1
        if r == n:
            break
    for i in range(r, n):
        if a[i][m] != 0:
            return None
    x = [Fraction(0)] * m
    for row, c in enumerate(piv_rows):
        x[c] = a[row][m]
    if any(sum(Fraction(matrix[i][j]) * x[j] for j in range(m)) != Fraction(rhs[i])
           for i in range(n)):
        return None
    return x


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


@settings(max_examples=100, deadline=None, derandomize=True)
@given(f=bezout_maps())
@example(f=RationalMap([1, 1, 1]))                  # an odd number of row swaps
@example(f=RationalMap([-1, -1, 1], [-1, 0, 2]))
def test_bezout_cofactors_from_one_elimination(f):
    a, b = f.forms
    d, (res, height_u) = f.degree, bezout_record(f)
    rows = _sylvester_rows(a, b)
    n = len(rows)
    det, cols = solve_fraction(rows, [[int(i == k) for i in range(n)] for k in (n - 1, 0)])
    assert det == res == map_resultant(f)
    # u*F + v*G = R*X^(2d-1) and R*Y^(2d-1), as products of integer forms
    for col, k in zip(cols, (n - 1, 0)):
        u, v = col[:d], col[d:]
        assert [x + y for x, y in zip(poly_mul(u, a), poly_mul(v, b))] == \
            [res if i == k else 0 for i in range(n)]
    reference = max(1, max(math.ceil(abs(c)) for k in (n - 1, 0)
                           for c in fraction_solve(rows, [res * (i == k) for i in range(n)])))
    assert height_u == reference


def test_solve_fraction_singular_and_det_times_inverse():
    assert solve_fraction([[1, 2], [2, 4]], [[1, 0]]) == (0, None)
    # det = -2 and A^-1 = [[-2, 1], [3/2, -1/2]]
    assert solve_fraction([[1, 2], [3, 4]], [[1, 0], [0, 1]]) == (-2, [[4, -3], [-2, 1]])
    assert solve_fraction([[1, 2], [3, 4]]) == (-2, [])
    # one row swap: det = -6 and A^-1 = [[-1/6, 1/3], [1/2, 0]]
    assert solve_fraction([[0, 2], [3, 1]], [[1, 0], [0, 1]]) == (-6, [[1, -3], [-2, 0]])


def hgcd_direct_oracle(x, y, primes):
    # direct summation of min(v+, v+) over the given primes plus infinity
    from orbitgcd.exact import valuation

    total = 0.0
    for p in primes:
        vx = max(0, valuation(p, x))
        vy = max(0, valuation(p, y))
        total += min(vx, vy) * math.log(p)
    ax = max(0.0, -math.log(abs(x)))
    ay = max(0.0, -math.log(abs(y)))
    return total + min(ax, ay)


def test_hgcd_examples():
    lv = hgcd(Fraction(5, 3), Fraction(10, 7))
    assert lv.finite == {5: Fraction(1)}
    oracle = hgcd_direct_oracle(Fraction(5, 3), Fraction(10, 7), [2, 3, 5, 7])
    assert abs(float(lv.total()) - oracle) < 1e-12
    for y in (Fraction(3), Fraction(7, 2), Fraction(-9)):
        assert float(hgcd(1, y).total()) == 0
    assert hgcd(12, 18).finite == factor(6).exponents() == {2: 1, 3: 1}
    assert abs(float(hgcd(12, 18).total()) - math.log(6)) < 1e-12


def test_hgcd_zero_conventions():
    with pytest.raises(DomainError):
        hgcd(0, 0)
    lv = hgcd(0, Fraction(12))
    assert lv.finite == {2: Fraction(2), 3: Fraction(1)}
    lv2 = hgcd(Fraction(1, 4), 0)
    assert lv2.finite == {} and abs(float(lv2.arch) - math.log(4)) < 1e-12


def test_hgcd_rational_matches_place_summation_oracle():
    rng = random.Random(777)
    for _ in range(200):
        x = Fraction(rng.randint(-500, 500) or 1, rng.randint(1, 500))
        y = Fraction(rng.randint(-500, 500) or 1, rng.randint(1, 500))
        primes = set(factor(abs(x.numerator)).exponents()) if abs(x.numerator) > 1 else set()
        if abs(y.numerator) > 1:
            primes |= set(factor(abs(y.numerator)).exponents())
        oracle = hgcd_direct_oracle(x, y, sorted(primes))
        assert abs(float(hgcd(x, y).total()) - oracle) < 1e-9


def test_hgcd_eq1_identity_random_symbolic():
    rng = random.Random(303)
    for _ in range(1000):
        a = rng.randint(-10**6, 10**6) or 1
        b = rng.randint(-10**6, 10**6) or 1
        g = math.gcd(abs(a), abs(b))
        assert hgcd_fin(a, b).finite == (factor(g).exponents() if g > 1 else {})


def test_hgcd_fin_and_exclusions():
    assert float(hgcd_fin(12, 18).total()) <= float(hgcd(12, 18).total())
    assert hgcd_excluding(PlaceSet([2, 3]), 12, 18).finite == {}
    assert hgcd_excluding(PlaceSet(), 12, 18).finite == hgcd_fin(12, 18).finite
    # rationals below 1 pick up an archimedean term in hgcd but not hgcd_fin
    x, y = Fraction(1, 3), Fraction(1, 5)
    assert float(hgcd_fin(x, y).total()) == 0
    assert float(hgcd(x, y).total()) > 0


def test_hgcd_excluding_monotone_in_excluded_set():
    rng = random.Random(404)
    for _ in range(200):
        x = Fraction(rng.randint(1, 10**4), rng.randint(1, 100))
        y = Fraction(rng.randint(1, 10**4), rng.randint(1, 100))
        small = PlaceSet([2])
        large = PlaceSet([2, 3, 5])
        assert float(hgcd_excluding(large, x, y).total()) <= \
            float(hgcd_excluding(small, x, y).total()) + 1e-12


def test_bad_places_examples():
    assert bad_places(RationalMap([0] * 8 + [1]), RationalMap([0] * 8 + [1])).primes == frozenset()
    assert bad_places(RationalMap([1, 0, 6]), X2).primes == frozenset({2, 3})
    assert bad_places(X3X, X2P1).primes == frozenset()
    # forms with trailing zeros: (7x^3 + 1)/2x and 5/3x^2 lead with 2 and 5
    assert bad_places(RationalMap([1, 0, 0, 7], [0, 2]), X2).primes == frozenset({2, 7})
    assert bad_places(X2, RationalMap([5], [0, 0, 3])).primes == frozenset({3, 5})


def test_placeset_validation_and_dedup():
    ps = PlaceSet([3, 3, 2])
    assert ps.primes == frozenset({2, 3})
    assert 3 in ps and 5 not in ps
    with pytest.raises(DomainError):
        PlaceSet([4])


def test_mobius_inversion_deviation_symbolic():
    # sigma = 1/x, alpha = 2: the per-place deviation of the finite v+ sums
    # is supported at p = 2 with |coefficient| <= 2 (hence total <= 2 log 2),
    # and does not grow with the height of the sample
    rng = random.Random(123)
    devs = []
    for _ in range(200):
        x = Fraction(rng.randint(-10**6, 10**6) or 1, rng.randint(1, 10**6))
        if x in (0, 2):
            continue
        lhs = Fraction(1, 1) / x - Fraction(1, 2)
        rhs = x - 2
        if lhs == 0 or rhs == 0:
            continue
        dev = hgcd_fin(lhs, lhs) - hgcd_fin(rhs, rhs)
        assert set(dev.finite.keys()) <= {2}
        coeff = dev.finite.get(2, Fraction(0))
        assert abs(coeff) <= 2
        devs.append((float(weil_height(ProjPoint(x))), abs(coeff) * math.log(2)))
    devs.sort()
    top_decile = [d for _, d in devs[-len(devs) // 10:]]
    assert max(top_decile) <= max(d for _, d in devs)
