import math
import random
import sys
import time
from dataclasses import replace
from fractions import Fraction
from itertools import islice, zip_longest

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbitgcd import _gmp, experiments, heights, maps, polys
from orbitgcd.classify import is_exceptional
from orbitgcd.errors import (BudgetExceededError, DomainError,
                             HypothesisViolationError)
from orbitgcd.experiments import (APStructure, GcdSeriesConfig, IndexSet,
                                  _critical_walk, _mul, ap_structure, choose_depth,
                                  gcd_series, inversion_deviation_bound,
                                  iter_gcd_series_rows, large_index_set,
                                  mobius_invariance_probe)
from orbitgcd.exact import _GMP_BITS, log_abs
from orbitgcd.heights import PlaceSet, discrepancy_bound
from orbitgcd.maps import (ProjPoint, RationalMap, evaluate, fiber_polynomial, map_resultant,
                           self_compose)
from orbitgcd.polys import Polynomial, _derivative, max_multiplicity, resultant, trim

X2 = RationalMap([0, 0, 1])
X2P1 = RationalMap([1, 0, 1])
X2M1 = RationalMap([-1, 0, 1])
X3X = RationalMap([0, 1, 0, 1])


def naive_orbit(f, start, n):
    # independent of iterate(): plain Fraction recursion
    vals = [Fraction(start)]
    for _ in range(n):
        x = vals[-1]
        num = sum(c * x**i for i, c in enumerate(f.num.coeffs))
        den = sum(c * x**i for i, c in enumerate(f.den.coeffs))
        vals.append(num / den)
    return vals


def test_gcd_series_base_row_and_examples():
    cfg = GcdSeriesConfig(X2, X2, 125, 25, 1, 1, n_max=2)
    rep = gcd_series(cfg)
    assert rep.rows[0].n == 0 and rep.rows[0].gcd == math.gcd(124, 24)
    assert rep.rows[1].gcd == 24          # gcd(15624, 624)
    assert rep.rows[2].gcd == 624
    cfg2 = GcdSeriesConfig(X3X, X3X, 2, -2, 1, -1, n_max=1)
    rep2 = gcd_series(cfg2)
    assert rep2.rows[1].gcd == 9          # |f(2) - 1| = 9


def test_gcd_series_row_exactness_vs_independent_euclid(monkeypatch):
    # integral rows have |u|, |v| >= 1, so no archimedean log of an orbit value
    def no_log(*args):
        raise AssertionError("archimedean log taken")
    monkeypatch.setattr(heights, "log_abs", no_log)
    cfg = GcdSeriesConfig(X2P1, X2M1, 3, 5, 2, 7, n_max=9)
    rep = gcd_series(cfg)
    xs = naive_orbit(X2P1, 3, 9)
    ys = naive_orbit(X2M1, 5, 9)
    for n, row in enumerate(rep.rows):
        u = xs[n] - 2
        v = ys[n] - 7
        g = math.gcd(abs(u.numerator), abs(v.numerator))
        assert row.gcd == g
        assert abs(row.hgcd_fin - math.log(g)) < 1e-9
        assert row.log_gcd == row.hgcd_fin
        assert abs(row.ratio - row.log_gcd / 2**n) < 1e-15


def test_gcd_series_divisibility_power_example():
    cfg = GcdSeriesConfig(X2, X2, 125, 25, 1, 1, n_max=6)
    rep = gcd_series(cfg)
    for n in range(1, 7):
        assert rep.rows[n].gcd % (5 ** (2**n) - 1) == 0


def test_gcd_series_rows_past_the_gmp_threshold(monkeypatch):
    # x^2 from 5^3 and 5^2, alpha = beta = 1: the gcd is 5^(2^n) - 1, and
    # both numerators have at least 2^14 bits from n = 12 on; the values
    # squared at n = 13, 5^12288 and 5^8192, are the first past 2^14 bits
    cfg = GcdSeriesConfig(X2, X2, 125, 25, 1, 1, n_max=13)
    sizes, squares = [], []
    gcd, mul = _gmp.gcd, _gmp.mul
    monkeypatch.setattr(_gmp, "gcd", lambda x, y: sizes.append(
        min(x.bit_length(), y.bit_length())) or gcd(x, y))
    monkeypatch.setattr(_gmp, "mul", lambda x, y: squares.append(
        (x, y is x)) or mul(x, y))
    rows = gcd_series(cfg).rows
    assert [row.gcd for row in rows] == [5**(2**n) - 1 for n in range(14)]
    assert len(sizes) == 2 and min(sizes) >= _GMP_BITS
    assert squares == [(5**12288, True), (5**8192, True)]
    # without libgmp the same rows come from math.gcd and *
    monkeypatch.setattr(_gmp, "_load", lambda: None)
    assert gcd_series(cfg).rows == rows
    assert len(sizes) == 4 and len(squares) == 4


def test_gcd_series_ratio_is_the_exact_quotient_rounded_once():
    # x^2 - 1 cycles 0 -> -1 -> 0, so from a = b = 0 with alpha = beta = 3 the
    # gcds stay 3 and 4 while 2^n passes the float range at n = 1024
    rows = gcd_series(GcdSeriesConfig(X2M1, X2M1, 0, 0, 3, 3, n_max=1100)).rows
    assert len(rows) == 1101
    for n, row in enumerate(rows):
        assert row.gcd == (4 if n % 2 else 3)
        assert row.ratio == float(Fraction(row.log_gcd) / 2**n)
    assert rows[1024].ratio == 6.111233710375447e-309 and rows[-1].ratio == 0.0
    # x^3 fixes 1, alpha = beta = 4: from n = 34 on 3^n passes 2^53, and the
    # quotient by the float of 3^n would round twice
    rows = gcd_series(GcdSeriesConfig(RationalMap([0, 0, 0, 1]), RationalMap([0, 0, 0, 1]),
                                      1, 1, 4, 4, n_max=60)).rows
    for n, row in enumerate(rows):
        assert row.gcd == 3 and row.ratio == float(Fraction(row.log_gcd) / 3**n)


def test_gcd_series_zero_collision_flags():
    # g(2) = 3 = beta at n = 1: one-sided zero, flagged, ratio suppressed
    cfg = GcdSeriesConfig(X2P1, X2M1, 1, 2, 3, 3, n_max=2)
    rep = gcd_series(cfg)
    row1 = rep.rows[1]
    assert "one_zero" in row1.flags
    assert row1.ratio is None
    assert row1.gcd == 1                  # |f(1) - 3| = |2 - 3| = 1
    # both sides zero: alpha = f(a), beta = g(b)
    cfg2 = GcdSeriesConfig(X2, X2, 3, 4, 9, 16, n_max=1)
    rep2 = gcd_series(cfg2)
    assert rep2.rows[1].flags == ("both_zero",)
    assert rep2.rows[1].gcd == 0
    assert rep2.rows[1].log_gcd is None


def test_gcd_series_rational_data_rows():
    cfg = GcdSeriesConfig(X2P1, X2M1, Fraction(1, 2), Fraction(3, 2),
                          Fraction(1, 3), Fraction(2, 3), n_max=4)
    rep = gcd_series(cfg)
    assert not cfg.is_integral
    for row in rep.rows:
        assert row.gcd is None
        assert "rational_data" in row.flags
        assert row.log_gcd is not None and row.log_gcd >= row.hgcd_fin - 1e-12


def vp_plus(p, x):
    # max(0, v_p(x)) for a nonzero Fraction, by plain division
    num, v = abs(x.numerator), 0
    while num % p == 0:
        num //= p
        v += 1
    return v


X2_HALF = RationalMap([Fraction(1, 2), 0, 1])       # x^2 + 1/2
X2_3_4 = RationalMap([Fraction(-3, 4), 0, 1])       # x^2 - 3/4


@pytest.mark.parametrize("g, b, alpha, beta", [
    (X2_3_4, Fraction(1, 4), Fraction(1, 2), Fraction(-3, 4)),
    (X2_3_4, Fraction(1, 4), Fraction(-3, 4), Fraction(1, 2)),
    # the same orbit from n = 1 on, so the gcd is the whole numerator
    (X2_HALF, Fraction(-1, 2), Fraction(1, 2), Fraction(1, 2)),
    (X2_HALF, Fraction(-1, 2), Fraction(-3, 4), Fraction(-3, 4)),
])
def test_gcd_series_rows_where_alpha_and_orbit_denominators_share_2(g, b, alpha, beta):
    # every orbit denominator is a power of 2, so gcd(q, s) > 1 in _minus
    f = X2_HALF
    places = PlaceSet([2, 3, 5])
    cfg = GcdSeriesConfig(f, g, Fraction(1, 2), b, alpha, beta,
                          n_max=8, place_exclusions=places)
    xs, ys = naive_orbit(f, Fraction(1, 2), 8), naive_orbit(g, b, 8)
    for n, row in enumerate(gcd_series(cfg).rows):
        u, v = xs[n] - alpha, ys[n] - beta
        assert (row.digits_f, row.digits_g) == (len(str(abs(u.numerator))),
                                                len(str(abs(v.numerator))))
        g_uv = math.gcd(u.numerator, v.numerator)
        assert abs(row.hgcd_fin - math.log(g_uv)) < 1e-12
        nonzero = [w for w in (u, v) if w]
        log_gcd = math.log(g_uv) + min(
            max(0.0, math.log(w.denominator) - math.log(abs(w.numerator))) for w in nonzero)
        assert abs(row.log_gcd - log_gcd) < 1e-12
        # the pair path gives the bits of the Fraction path
        assert row.log_gcd == row.hgcd_fin + min(
            max(0.0, -float(log_abs(w))) for w in nonzero)
        excluded = sum(min(vp_plus(p, nonzero[0]), vp_plus(p, nonzero[-1])) * math.log(p)
                       for p in places)
        assert abs(row.hgcd_excluded - (math.log(g_uv) - excluded)) < 1e-12
        assert row.flags == (("one_zero",) if len(nonzero) == 1 else ("rational_data",))
        assert row.gcd is None


def test_rows_stream_incrementally_and_match_report():
    cfg = GcdSeriesConfig(X2, X2, 125, 25, 1, 1, n_max=5)
    stream = iter_gcd_series_rows(cfg)
    first = next(stream)
    assert first.n == 0 and first.gcd == math.gcd(124, 24)
    rest = list(stream)
    assert tuple([first] + rest) == gcd_series(cfg).rows


def test_gcd_series_orbit_through_infinity_flagged():
    # 1/x^2 sends 0 to infinity and back: odd rows carry no gcd data
    inv_sq = RationalMap([1], [0, 0, 1])
    cfg = GcdSeriesConfig(inv_sq, inv_sq, 0, 0, 5, 5, n_max=4)
    rep = gcd_series(cfg)
    for row in rep.rows:
        if row.n % 2 == 1:
            assert row.flags == ("infinite_orbit_value",)
            assert row.gcd is None and row.log_gcd is None
        else:
            assert "infinite_orbit_value" not in row.flags


def test_gcd_series_truncation_flag():
    cfg = GcdSeriesConfig(X2, X2, 10, 10, 1, 1, n_max=60, digit_budget=200)
    rep = gcd_series(cfg)
    assert rep.truncated
    assert rep.last_n < 60
    assert rep.rows[-1].n == rep.last_n


def test_gcd_series_degree_mismatch_rejected():
    with pytest.raises(HypothesisViolationError):
        GcdSeriesConfig(X2, X3X, 1, 1, 3, 3, n_max=3)


def test_gcd_series_place_exclusions_column():
    cfg = GcdSeriesConfig(X2, X2, 125, 25, 1, 1, n_max=3,
                          place_exclusions=PlaceSet([2, 3]))
    rep = gcd_series(cfg)
    # gcd at n=1 is 24 = 2^3 * 3: excluding 2 and 3 empties the finite part
    assert rep.rows[1].gcd == 24
    assert abs(rep.rows[1].hgcd_excluded) < 1e-12
    # gcd at n=2 is 624 = 2^4 * 3 * 13: only log 13 survives
    assert rep.rows[2].gcd == 624
    assert abs(rep.rows[2].hgcd_excluded - math.log(13)) < 1e-9


def test_choose_depth_certificate_and_gate():
    cert = choose_depth(X2, X2, 3, 2, 1, 1, 0.1)
    assert cert.replay()
    assert cert.lhs < cert.bound == 0.05
    assert cert.m_prime == 1              # x^(2^D) - 1 is squarefree
    with pytest.raises(HypothesisViolationError):
        choose_depth(X2, X2, 3, 2, 0, 1, 0.1)     # 0 exceptional for x^2
    with pytest.raises(HypothesisViolationError):
        choose_depth(X2, X2, 3, 2, 1, 0, 0.1)


def test_choose_depth_m_prime_at_depth_one():
    # fiber x^2 - 1 is squarefree: the depth-1 multiplicity is 1, and with a
    # huge epsilon the very first depth already satisfies the inequality
    cert = choose_depth(X2, X2, 3, 2, 1, 1, 1000.0)
    assert cert.depth == 1 and cert.m_prime == 1


def test_choose_depth_budget_error_at_the_digit_cap(monkeypatch):
    # x^2 - 1/2 at alpha = f^8(0): the critical class {0} first meets the
    # target at depth 8, so the walk replays it exactly from depth 0, and its
    # coordinates double in digits per step.  Under a cap of 30 digits the
    # replay stops at depth 7, before the walk yields depth 8; the selector's
    # own check (1 digit plus 2 per depth) would pass up to depth 14
    monkeypatch.setattr(experiments, "_PORTRAIT_DIGIT_CAP", 30)
    f = RationalMap([Fraction(-1, 2), 0, 1])
    alpha = naive_orbit(f, 0, 8)[-1]
    with pytest.raises(BudgetExceededError) as info:
        choose_depth(f, f, 1, 2, alpha, alpha, 1e-12)
    err = info.value
    assert err.steps == 7 and err.digits > 30
    assert str(err) == (f"replaying a critical class of degree 1 exactly, its coordinates "
                        f"reached {err.digits} digits at depth 7 (cap 30)")


def test_choose_depth_budget_error_on_a_slow_cycle_through_the_target():
    # x^19 (x - 20) at 0: the critical point 0 (e = 19) is fixed, so M' = 19^D
    # and M'/d^D = (19/20)^D needs D of about 20 ln(2F/epsilon); its class
    # stays one digit, and the d digits the cap charges per depth stop the
    # walk at depth cap/d, with an M' too long for str()
    f = RationalMap([0] * 19 + [-20, 1])
    with pytest.raises(BudgetExceededError) as info:
        choose_depth(f, f, 0, 0, 0, 0, 1e-300)
    err = info.value
    assert err.steps == experiments._PORTRAIT_DIGIT_CAP // 20
    assert err.digits > experiments._PORTRAIT_DIGIT_CAP
    assert f"M' = an integer of {maps.digit_count(19**err.steps)} digits gives" in str(err)


def test_choose_depth_cubic_pair_answers_once_its_portrait_settles():
    # x^3 + 1, x^3 + x - 1 at 1e-4: every critical class settles by depth 3,
    # so the portrait stays far below the digit cap up to D = 12
    cert = choose_depth(RationalMap([1, 0, 0, 1]), RationalMap([-1, 1, 0, 1]),
                        1, 2, 1, 1, 1e-4)
    assert (cert.depth, cert.m_prime) == (12, 3)
    assert cert.replay()


@pytest.mark.parametrize("f, g, a, b, target, epsilon, expected", [
    (X2P1, X2M1, 1, 2, 1, 1e-4, (19, 2)),
    (X2P1, X2M1, 1, 2, 1, 1e-5, (22, 2)),
    (X2P1, X2M1, 1, 2, 1, 1e-6, (26, 2)),
    (X2P1, X2M1, 1, 2, 1, 2 * sys.float_info.min, (1027, 2)),
    (RationalMap([1, 0, 0, 1]), RationalMap([-1, 1, 0, 1]), 1, 2, 1, 1e-6, (17, 3)),
    (X2M1, X2M1, 3, 2, 0, 1e-2, (23, 2048)),
], ids=["quad-1e-4", "quad-1e-5", "quad-1e-6", "quad-least-normal",
        "cubic-1e-6", "critical-cycle-1e-2"])
def test_choose_depth_answers_past_depth_16(f, g, a, b, target, epsilon, expected):
    # the benchmark's polynomial pairs from 1 and 2 at alpha = beta = 1 settle
    # by depth 4, so M' is final and only d^D grows, down to the least
    # epsilon whose half is a normal float.  x^2 - 1
    # at 0 lies on its critical cycle 0 -> -1 -> 0, a class never dropped,
    # and M' doubles every second depth
    cert = choose_depth(f, g, a, b, target, target, epsilon)
    assert (cert.depth, cert.m_prime) == expected
    assert cert.replay()
    # D is least: the inequality fails at D - 1, decided exactly against the
    # Fraction oracle, with M' read from the walk
    before, at = oracle_lhs(f, g, a, b, target, target, cert.depth)
    assert before >= Fraction(epsilon) / 2 > at == cert.lhs


# x^16 - 3x^15 - x^14 - 3x^13 + x^12 - 2x^11 + 3x^10 + 2x^9 - x^8 + 2x^6 - 3x^5
# + 3x^4 + 3x^3 + x^2: at 1, two roots of its large critical class stay
# bounded, and its exact coordinates pass 3 * 10^5 bits by depth 3
DEG16 = RationalMap([0, 0, 1, 3, 3, -3, 2, 0, -1, 2, 3, -2, 1, -3, -1, -3, 1])


@pytest.mark.parametrize("f, g, epsilon, expected, ref_depth", [
    (RationalMap([-3, 0, 1], [0, 2]), RationalMap([2, 0, 1], [0, 1]), 1e-6, (25, 1), 6),
    (RationalMap([Fraction(-1, 2), 0, 1]), X2P1, 1e-6, (26, 2), 6),
    (RationalMap([2, 0, 0, 1], [0, 1]), RationalMap([-1, 0, 0, 1], [0, 1]), 1e-12,
     (28, 1), 4),
    (DEG16, DEG16, 1e-4, (5, 1), 1),
], ids=["rational-1e-6", "half-1e-6", "rational-cubic-1e-12", "degree-16-1e-4"])
def test_choose_depth_answers_classes_that_never_settle(f, g, epsilon, expected, ref_depth):
    # (x^2 - 3)/2x, (x^2 + 2)/x; x^2 - 1/2, x^2 + 1; (x^3 + 2)/x, (x^3 - 1)/x;
    # and DEG16 twice, from 1 and 2 at target 1: each pair has a critical
    # class that neither cycles nor escapes by a polynomial's radius, and
    # whose exact coordinates grow about d-fold in bits per depth.  Screened
    # modulo a prime, such a class is never replayed, and each pair answers
    # in milliseconds
    start = time.perf_counter()
    cert = choose_depth(f, g, 1, 2, 1, 1, epsilon)
    assert time.perf_counter() - start < 1.0
    assert (cert.depth, cert.m_prime) == expected and cert.replay()
    before, at = oracle_lhs(f, g, 1, 2, 1, 1, cert.depth)
    assert before >= Fraction(epsilon) / 2 > at == cert.lhs
    for h in (f, g):
        assert_walks_agree(h, 1, depth=ref_depth)


def test_input_checks_of_the_series_and_the_selector():
    with pytest.raises(DomainError, match="n_max"):
        GcdSeriesConfig(X2, X2, 3, 2, 1, 1, n_max=0)
    with pytest.raises(HypothesisViolationError, match="equal degrees"):
        choose_depth(X2, RationalMap([1, 0, 0, 1]), 3, 2, 1, 1, 0.1)


@pytest.mark.parametrize("epsilon", [0, -1.0, math.inf, math.nan])
def test_choose_depth_rejects_epsilon_not_finite_and_positive(epsilon):
    with pytest.raises(DomainError):
        choose_depth(X2, X2, 3, 2, 1, 1, epsilon)


def oracle_lhs(f, g, a, b, alpha, beta, depth):
    """M'/d^D (4 (hhat_f(a) + e_a) + 4 (hhat_g(b) + e_b) + C) at D - 1 and D,
    in Fractions: heights at tolerance 1e-8, C from discrepancy_bound (an
    upper bound already), M' from the critical walks."""
    ha, hb = heights.canonical_height(f, a, 1e-8), heights.canonical_height(g, b, 1e-8)
    c = 2 * (discrepancy_bound(f) + discrepancy_bound(g)) / (f.degree - 1)
    bracket = 4 * (ha.value + ha.error_bound) + 4 * (hb.value + hb.error_bound) + c
    walks = zip(_critical_walk(f, Fraction(alpha)), _critical_walk(g, Fraction(beta)))
    m = [max(m_f, m_g) for (m_f, _), (m_g, _) in islice(walks, depth)]
    return [Fraction(m[D - 1], f.degree**D) * bracket for D in (depth - 1, depth)]


CUBIC_PAIR = (RationalMap([1, 0, 0, 1]), RationalMap([-1, 1, 0, 1]))
NEAR_TIE = 0.06168518581886171


@pytest.mark.parametrize("f, g, epsilon, expected", [
    (*CUBIC_PAIR, NEAR_TIE, 6),
    (X2P1, X2M1, 5e-324, 1080),
    (X2P1, X2M1, 1e-322, 1075),
    (X2P1, X2M1, 2.0**-1022, 1028),
], ids=["cubic-near-tie", "quad-5e-324", "quad-1e-322", "quad-2^-1022"])
def test_choose_depth_decides_exactly(f, g, epsilon, expected):
    # every epsilon > 0 is searched, the subnormal ones too: the decision is
    # exact, and D holds while D - 1 fails against the Fraction oracle
    cert = choose_depth(f, g, 1, 2, 1, 1, epsilon)
    assert cert.depth == expected and cert.replay()
    before, at = oracle_lhs(f, g, 1, 2, 1, 1, expected)
    assert cert.lhs == at < Fraction(epsilon) / 2 <= before
    assert not replace(cert, depth=cert.depth - 1).replay()


def test_choose_depth_near_tie_a_float_lhs_would_miss():
    # at D = 6 the exact lhs is below epsilon/2 but rounds to it as a float,
    # so a float decision would answer D = 7
    cert = choose_depth(*CUBIC_PAIR, 1, 2, 1, 1, NEAR_TIE)
    assert cert.lhs < Fraction(NEAR_TIE) / 2 and float(cert.lhs) == NEAR_TIE / 2


def test_choose_depth_ramified_fiber_m_prime():
    # alpha = -1/4 is the critical value of x^2 + x: the fiber has a double
    # root, so the depth-1 multiplicity is 2 and the selector must work
    # harder than in the squarefree case
    f = RationalMap([0, 1, 1])
    cert = choose_depth(f, f, 2, 3, Fraction(-1, 4), 1, 1.0)
    assert cert.replay()
    assert cert.m_prime >= 2
    from orbitgcd.polys import Polynomial, max_multiplicity
    fiber = Polynomial([Fraction(1, 4), 1, 1])      # x^2 + x + 1/4 = (x + 1/2)^2
    assert max_multiplicity(fiber) == 2
    easy = choose_depth(f, f, 2, 3, Fraction(-1, 4), 1, 100.0)
    assert easy.depth <= cert.depth


@pytest.mark.parametrize("f, g, epsilon, expected", [
    (RationalMap([1, 0, 0, 1]), RationalMap([-1, 1, 0, 1]), 0.1, (6, 3)),
    (RationalMap([-3, 0, 1], [0, 2]), RationalMap([2, 0, 1], [0, 1]), 0.1, (9, 1)),
    (RationalMap([-3, 0, 1], [0, 2]), RationalMap([2, 0, 1], [0, 1]), 0.01, (12, 1)),
    (RationalMap([-3, 0, 1], [0, 2]), RationalMap([2, 0, 1], [0, 1]), 1e-3, (16, 1)),
])
def test_choose_depth_pinned_through_the_tower(f, g, epsilon, expected):
    # x^3 + 1, x^3 + x - 1 and (x^2 - 3)/2x, (x^2 + 2)/x; a = 1, b = 2,
    # alpha = beta = 1: fibers of degree 729 and 512, which a mod-p
    # multiplicity tower could only bound from above.  At 1e-3 the walk of
    # the rational pair screens a class of degree 2 with a non-constant Y
    # through 16 depths
    cert = choose_depth(f, g, 1, 2, 1, 1, epsilon)
    assert (cert.depth, cert.m_prime) == expected
    assert cert.replay()


def test_choose_depth_solves_each_maps_bezout_systems_once(monkeypatch):
    # the resultant and the Bezout cofactor height behind the discrepancy
    # constant come from one cached record per map (maps.bezout_record, a
    # subresultant PRS in each of the charts Y = 1 and X = 1), read by both
    # canonical heights, discrepancy_bound and map_resultant
    calls = []

    def counting_resultant(a, b):
        calls.append((len(a) - 1, len(b) - 1))
        return resultant(a, b)
    monkeypatch.setattr(maps, "resultant", counting_resultant)
    f, g = RationalMap([1, 0, 0, 1]), RationalMap([-1, 1, 0, 1])
    for pair, distinct in (((f, g), 2), ((f, f), 1)):
        maps.bezout_record.cache_clear()
        calls.clear()
        cold = choose_depth(*pair, 1, 2, 1, 1, 0.1)
        assert calls == [(3, 0), (3, 3)] * distinct
        assert choose_depth(*pair, 1, 2, 1, 1, 0.1) == cold
        for h in pair:
            map_resultant(h)
            discrepancy_bound(h)
        assert calls == [(3, 0), (3, 3)] * distinct


def test_choose_depth_takes_each_maps_discrepancy_log_once(monkeypatch):
    # discrepancy_bound is cached per map, and the canonical heights at tol
    # 1e-8 (working precision ARCH_PREC) read C_f from it, so one command
    # takes the log of each map's discrepancy base once
    logs = []
    for name in ("log_abs", "log_fixed"):
        def counting(n, *args, _log=getattr(heights, name)):
            logs.append(abs(n))
            return _log(n, *args)
        monkeypatch.setattr(heights, name, counting)
    f, g = RationalMap([-3, 0, 1], [0, 2]), RationalMap([2, 0, 1], [0, 1])
    bases = {h: heights._discrepancy_base(h) for h in (f, g)}
    assert bases == {f: 72, g: 16}
    for pair in ((f, g), (f, f)):
        heights.discrepancy_bound.cache_clear()
        logs.clear()
        choose_depth(*pair, 1, 2, 1, 1, 0.1)
        expected = sorted(bases[h] for h in set(pair))
        assert sorted(n for n in logs if n in bases.values()) == expected


@pytest.mark.parametrize("g, a, epsilon, expected", [
    (RationalMap([3, 1, 1]), 3, 0.01, (13, 2)),     # x^2 + x + 3
    (X2M1, 1, 0.001, (16, 2)),
])
def test_choose_depth_beyond_degree_4096(g, a, epsilon, expected):
    # x^2 + 1 against g with b = 2, alpha = beta = 1: the fibers of f^D
    # have degree 2^13 and 2^16
    cert = choose_depth(X2P1, g, a, 2, 1, 1, epsilon)
    assert (cert.depth, cert.m_prime) == expected
    assert cert.replay()


# --- the critical-orbit walk against the fibers of f^D ---


def reference_m_prime(f, alpha, depth):
    """M'_D read from the fiber of f^D itself: Yun's algorithm on the affine
    part, and the degree deficit at infinity."""
    poly, inf_mult = fiber_polynomial(self_compose(f, depth), alpha)
    return max(max_multiplicity(Polynomial(poly)), inf_mult, 1)


def walk_m_primes(f, alpha, depth):
    walk = _critical_walk(f, Fraction(alpha))
    return [next(walk)[0] for _ in range(depth)]


def oracle_depth(f):
    return max(D for D in range(1, 7) if f.degree**D <= 64)


@pytest.mark.parametrize("f, alpha, expected", [
    (X2M1, 0, [2 ** (D // 2) for D in range(1, 17)]),    # 0 -> -1 -> 0
    (RationalMap([1, 0, 1], [0, 2]), 1, [2 ** D for D in range(1, 9)]),
    (RationalMap([0, 0, -4, 0, 1]), -4, [2] * 6),          # class x^2 - 2
    (RationalMap([0, -3, 0, 1]), 2, [2] * 6),              # f(-1) = 2, f(1) = -2
    (RationalMap([2, 0, -3, 1]), -2, [2, 4, 4, 4, 4]),     # 0 -> 2 -> -2
    (RationalMap([1, 0, 1], [0, 0, 1]), 1, [2, 4, 4, 4, 4, 4]),  # 0 -> oo -> 1
])
def test_critical_walk_pinned_sequences(f, alpha, expected):
    # x^2 - 1 at 0: a periodic critical point hits every other depth;
    # (x^2 + 1)/2x at 1: a fixed critical point, 2^D; x^4 - 4x^2 at -4:
    # an irreducible class; x^3 - 3x at 2: only -1 of the class {1, -1}
    # hits; x^3 - 3x^2 + 2 at -2: the class {0, 2} splits, because f(0) = 2
    # is critical and f(2) = -2 is not; (x^2 + 1)/x^2 at 1: the critical
    # point at infinity, reached from the critical point 0
    assert walk_m_primes(f, alpha, len(expected)) == expected
    for depth in range(1, oracle_depth(f) + 1):
        assert reference_m_prime(f, alpha, depth) == expected[depth - 1]


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


SMALL = st.integers(-3, 3)


@st.composite
def planted_targets(draw):
    """(f, alpha) for f = s + (x - c)^2 A(x) / Q(x) of degree 2 or 3, whose
    point c is critical when Q(c) != 0, and alpha = f^m(c), m = 1 or 2."""
    c, s = draw(st.integers(-2, 2)), draw(SMALL)
    a = draw(st.lists(SMALL, min_size=1, max_size=2).filter(any))
    q = draw(st.lists(SMALL, min_size=1, max_size=4).filter(any))
    top = poly_mul(poly_mul([-c, 1], [-c, 1]), a)
    num = [x + s * y for x, y in zip_longest(top, q, fillvalue=0)]
    try:
        f = RationalMap(num, q)
    except DomainError:         # a constant map after cancellation
        assume(False)
    assume(f.degree in (2, 3))
    point = ProjPoint(c)
    for _ in range(draw(st.integers(1, 2))):
        point = evaluate(f, point)
    assume(not point.is_infinity)
    return f, point.value


@settings(max_examples=60, deadline=None)
@given(planted_targets())
def test_critical_walk_matches_the_fibers_of_f_iterates(case):
    f, alpha = case
    depth = oracle_depth(f)
    assert walk_m_primes(f, alpha, depth) == [
        reference_m_prime(f, alpha, D) for D in range(1, depth + 1)]


@pytest.mark.parametrize("num, den, alpha, depth", [
    ([-1, 1, 0, 1], [1], 1, 3),            # x^3 + x - 1
    ([-3, 0, 1], [0, 2], 1, 5),            # (x^2 - 3)/2x
    ([0, 1, 1], [1], Fraction(-1, 4), 5),  # x^2 + x at its critical value
    ([2, 0, -3, 1], [1], -2, 3),           # x^3 - 3x^2 + 2
])
def test_critical_walk_matches_sympy_sqf_list(num, den, alpha, depth):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    f = RationalMap(num, den)
    rational = (sum(c * x**i for i, c in enumerate(num))
                / sum(c * x**i for i, c in enumerate(den)))
    deep = x
    expected = []
    for D in range(1, depth + 1):
        deep = sympy.cancel(rational.subs(x, deep))
        top, _ = sympy.fraction(sympy.cancel(deep - sympy.Rational(
            Fraction(alpha).numerator, Fraction(alpha).denominator)))
        _, factors = sympy.sqf_list(sympy.Poly(top, x))
        affine = max((e for h, e in factors if h.degree() > 0), default=1)
        expected.append(max(affine, f.degree**D - sympy.degree(top, x)))
    assert walk_m_primes(f, alpha, depth) == expected


# --- the screened walk against a walk that is exact at every depth ---


def form_at(cs, x, y):
    """sum cs[i] x^i y^(k-i) in Z[t], k = len(cs) - 1, by plain Horner's rule,
    with no reduction and no constant shortcuts: the reference's own."""
    acc, ypow = [cs[-1]], [1]
    for c in reversed(cs[:-1]):
        ypow = _mul(ypow, y)
        acc = [p + c * q for p, q in zip_longest(_mul(acc, x), ypow, fillvalue=0)]
    return trim(acc)


def ref_divmod(a, b):
    """Quotient and remainder of a by b over Q, by schoolbook long division
    in Fractions: the reference's own."""
    q, r = [Fraction(0)] * max(len(a) - len(b) + 1, 0), [Fraction(c) for c in a]
    for k in range(len(q) - 1, -1, -1):
        q[k] = r.pop() / b[-1]
        for i, c in enumerate(b[:-1]):
            r[k + i] -= q[k] * c
    return q, trim(r)


def ref_gcd(a, b):
    """Monic gcd over Q by Euclid's algorithm, in Fractions."""
    while b:
        a, b = b, ref_divmod(a, b)[1]
    return [Fraction(c) / a[-1] for c in a]


def ref_ints(cs):
    """Fractions that are integers, as ints."""
    assert all(c.denominator == 1 for c in cs)
    return [int(c) for c in cs]


def ref_primitive(cs):
    """Nonzero Fractions scaled to a primitive list in Z[x], signs kept."""
    ints = ref_ints([c * math.lcm(*(c.denominator for c in cs)) for c in cs])
    return [c // math.gcd(*ints) for c in ints]


def ref_squarefree(f):
    """Yun's algorithm over Q on the reference's own gcd: [(h, k)] with h the
    k-fold factor of f, primitive in Z[x] with lc > 0, trivial h omitted."""
    u = ref_gcd(f, _derivative(f))
    v, w = ref_divmod(f, u)[0], ref_divmod(_derivative(f), u)[0]
    out, k = [], 1
    while len(v) > 1:
        y = trim([p - q for p, q in zip_longest(w, _derivative(v), fillvalue=0)])
        h = ref_gcd(v, y)
        if len(h) > 1:
            out.append((ref_primitive(h), k))
        v, w = ref_divmod(v, h)[0], ref_divmod(y, h)[0]
        k += 1
    return out


def reference_critical_walk(f, target):
    """The critical walk without its screen: every class is walked exactly
    at every depth.  Yields M'_D and the portrait's bit length.  Its classes
    are monic, so their remainders, quotients and gcds are integral; all are
    its own, over Q, and share no division with the code under test."""
    a, b = f.forms
    wronskian = trim([p - q for p, q in zip(_mul(_derivative(a), b),
                                            _mul(a, _derivative(b)))])
    critical = [(q, k + 1) for q, k in ref_squarefree(wronskian)]
    classes = []
    for q, e in critical:
        n, lc = len(q) - 1, q[-1]
        monic = [c * lc ** (n - 1 - i) for i, c in enumerate(q[:-1])] + [1]
        classes.append((monic, ref_ints(ref_divmod([0, 1], monic)[1]), [lc], e))
    e_inf = 2 * f.degree - len(wronskian)
    if e_inf > 1:
        critical.append(((1, 0), e_inf))
        classes.append(([0, 1], [1], [], e_inf))
    hit_form = (-target.numerator, target.denominator)
    best = 1
    while True:
        stepped = []
        for p, x, y, prod in classes:
            x, y = (ref_ints(ref_divmod(form_at(c, x, y), p)[1]) for c in (a, b))
            g = math.gcd(*x, *y)
            x, y = [c // g for c in x], [c // g for c in y]
            if len(ref_gcd(p, form_at(hit_form, x, y))) > 1:
                best = max(best, prod)
            rest = p
            for q, e in critical:
                h = ref_ints(ref_gcd(rest, form_at(q, x, y)))
                if len(h) > 1:
                    rest = ref_ints(ref_divmod(rest, h)[0])
                    stepped.append((h, ref_ints(ref_divmod(x, h)[1]),
                                    ref_ints(ref_divmod(y, h)[1]), prod * e))
            if len(rest) > 1:
                stepped.append((rest, ref_ints(ref_divmod(x, rest)[1]),
                                ref_ints(ref_divmod(y, rest)[1]), prod))
        classes = stepped
        yield best, sum(c.bit_length() for _, x, y, _ in classes for c in x + y)


def assert_walks_agree(f, alpha, depth=12, max_bits=math.inf):
    """M'_D of the settling walk and of the reference agree for D <= depth,
    or until the reference's portrait passes max_bits; returns the last D."""
    alpha = Fraction(alpha)
    for D, ((m, _), (m_ref, bits)) in enumerate(
            zip(_critical_walk(f, alpha), reference_critical_walk(f, alpha)), 1):
        assert m == m_ref, (f, alpha, D)
        if D == depth or bits > max_bits:
            return D


SMALL_C = st.fractions(min_value=-5, max_value=5, max_denominator=3)


@st.composite
def unicritical_targets(draw):
    """(x^d + c, alpha) for d = 2, 3, |c| <= 5, with alpha a point of the
    critical orbit 0, c, f(c), ... or a small rational."""
    d, c = draw(st.sampled_from((2, 3))), draw(SMALL_C)
    f = RationalMap([c] + [0] * (d - 1) + [1])
    point = ProjPoint(0)
    for _ in range(draw(st.integers(1, 3))):
        point = evaluate(f, point)
    alpha = draw(st.one_of(st.just(point.value), SMALL_C))
    assume(not is_exceptional(f, alpha))
    return f, alpha


@settings(max_examples=60, deadline=None)
@given(unicritical_targets())
def test_settling_walk_matches_the_reference_unicritical(case):
    assert_walks_agree(*case)


@settings(max_examples=40, deadline=None)
@given(st.lists(SMALL, min_size=3, max_size=4), st.lists(SMALL, min_size=1, max_size=4),
       st.fractions(min_value=-3, max_value=3, max_denominator=2))
def test_settling_walk_matches_the_reference_rational(num, den, alpha):
    try:
        f = RationalMap(num, den)
    except DomainError:
        assume(False)
    assume(f.degree in (2, 3) and not is_exceptional(f, alpha))
    # classes of a rational map do not escape, and their coordinates grow
    # about d-fold per step: the reference stops at 2^14 bits (depth 6 to 12)
    assert_walks_agree(f, alpha, max_bits=1 << 14)


@pytest.mark.parametrize("f", [X2P1, X2M1, RationalMap([1, 0, 0, 1]),
                               RationalMap([-1, 1, 0, 1]), RationalMap([-3, 0, 1], [0, 2]),
                               DEG16])
def test_critical_walk_settles_the_benchmark_maps(f):
    # at target 1 no critical class of these maps meets the target after
    # depth 1, so the walk holds each exact pair as of depth 0 or 1, and the
    # bits it yields stay put over 40 depths (the exact walk of DEG16 holds
    # 330,670 bits at depth 3)
    walk = _critical_walk(f, Fraction(1))
    bits = [next(walk)[1] for _ in range(40)]
    assert bits == [bits[0]] * 40 and 0 < bits[0] < 16


@pytest.mark.parametrize("prime", [3, 5, 7])
@settings(max_examples=15, deadline=None)
@given(case=unicritical_targets())
def test_unlucky_primes_never_decide_the_unicritical_walk(prime, case):
    # a flag replays an escaping class exactly: the reference stops at 2^14 bits
    assert_flagged_walks_agree(prime, *case, max_bits=1 << 14)


@pytest.mark.parametrize("prime", [3, 5, 7])
@settings(max_examples=15, deadline=None)
@given(st.lists(SMALL, min_size=3, max_size=4), st.lists(SMALL, min_size=1, max_size=4),
       st.fractions(min_value=-3, max_value=3, max_denominator=2))
def test_unlucky_primes_never_decide_the_rational_walk(prime, num, den, alpha):
    try:
        f = RationalMap(num, den)
    except DomainError:
        assume(False)
    assume(f.degree in (2, 3) and not is_exceptional(f, alpha))
    assert_flagged_walks_agree(prime, f, alpha, max_bits=1 << 14)


def assert_flagged_walks_agree(prime, f, alpha, depth=12, max_bits=math.inf):
    """The walk screened by a small prime, which flags classes that miss the
    target too, against the reference: each flag is replayed exactly, so
    M'_D agrees at every depth, and at a depth that flags every class the
    walk holds the reference's exact portrait, bit for bit."""
    flags = []

    def unit_mod(h, p, q):
        unit = polys._unit_mod(h, p, q)
        flags.append(not unit)
        return unit
    alpha = Fraction(alpha)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "_WALK_PRIME", prime)
        patch.setattr(experiments, "_unit_mod", unit_mod)
        walks = zip(_critical_walk(f, alpha), reference_critical_walk(f, alpha))
        for D in range(1, depth + 1):
            seen = len(flags)
            (m, bits), (m_ref, bits_ref) = next(walks)
            assert m == m_ref, (f, alpha, D)
            if all(flags[seen:]):
                assert bits == bits_ref, (f, alpha, D)
            if bits_ref > max_bits:
                break
    return flags


def test_an_unlucky_prime_flags_every_depth_and_counts_no_hit():
    # (x^2 - 3)/2x at 1 modulo 3: each depth flags the critical class +-i sqrt 3,
    # a fixed point that never meets 1, and each flag replays to M' = 1
    assert assert_flagged_walks_agree(3, RationalMap([-3, 0, 1], [0, 2]), 1) == [True] * 12


def test_large_index_set_examples():
    cfg = GcdSeriesConfig(X3X, X3X, 2, -2, 1, -1, n_max=6)
    rep = gcd_series(cfg)
    # gcd grows like |f^n(2) - 1|, so any small eta keeps every n >= 1
    iset = large_index_set(rep, 0.3)
    assert set(range(1, 7)) <= set(iset.entries)
    # eta above the n=1 ratio excludes n=1
    eta_big = rep.rows[1].log_gcd / 3 + 0.01
    iset2 = large_index_set(rep, eta_big)
    assert 1 not in iset2.entries
    # generic config: empty for n >= 3
    cfg3 = GcdSeriesConfig(X2P1, X2M1, 3, 2, 0, 0, n_max=10)
    iset3 = large_index_set(gcd_series(cfg3), 0.1)
    assert all(n < 3 for n in iset3.entries)


def test_ap_structure_trivial_and_spec_examples():
    full = ap_structure(IndexSet(range(0, 31), 30))
    assert full.progressions == ((0, 1),) and full.residual == ()
    odds = ap_structure(IndexSet(range(1, 31, 2), 30))
    assert odds.progressions == ((1, 2),)
    union = ap_structure(IndexSet(sorted(set(range(2, 31, 3)) | set(range(3, 31, 3))), 30))
    assert union.members() == set(range(2, 31, 3)) | set(range(3, 31, 3))
    assert union.label == "window-consistent"


def test_ap_structure_window_fidelity_random():
    rng = random.Random(2025)
    for _ in range(100):
        n_max = 200
        entries = set()
        for _ in range(rng.randint(1, 3)):
            step = rng.randint(1, 14)
            start = rng.randint(0, n_max)
            entries.update(range(start, n_max + 1, step))
        iset = IndexSet(sorted(entries), n_max)
        got = ap_structure(iset)
        assert got.members() == entries
        # progressions never overcount: each full trace stays inside the set
        for start, step in got.progressions:
            assert set(range(start, n_max + 1, step)) <= entries


def test_index_set_validation():
    with pytest.raises(DomainError):
        IndexSet([5, 300], 200)
    iset = IndexSet([3, 1, 2, 2], 10)
    assert iset.entries == (1, 2, 3)


def test_mobius_probe_translation_exactly_invariant():
    samples = [(Fraction(3), Fraction(5)), (Fraction(7, 2), Fraction(9, 4)),
               (Fraction(-4), Fraction(11))]
    for m in (RationalMap([0, 1]), RationalMap([2, 1]), RationalMap([-5, 1])):   # x + t
        res = mobius_invariance_probe(X2P1, X2M1, m, m, 2, 2, samples, 4)
        assert res.max_deviation == 0.0


def test_mobius_probe_dilation_bounded_by_scale_valuations():
    # dilation by 3 shifts v_3 of both arguments by one, so the finite
    # gcd-height deviation is at most log 3 (and attains it)
    samples = [(Fraction(3), Fraction(5)), (Fraction(7, 2), Fraction(9, 4))]
    three_x = RationalMap([0, 3])
    res = mobius_invariance_probe(X2P1, X2M1, three_x, three_x, 2, 2, samples, 4)
    assert res.max_deviation <= math.log(3) + 1e-12


def test_mobius_probe_inversion_bounded_by_explicit_constant():
    rng = random.Random(606)
    samples = []
    while len(samples) < 30:
        a = Fraction(rng.randint(-50, 50) or 3, rng.randint(1, 20))
        b = Fraction(rng.randint(-50, 50) or 5, rng.randint(1, 20))
        if a != 0 and b != 0 and a != 2 and b != 2:
            samples.append((a, b))
    inv = RationalMap([1], [0, 1])
    res = mobius_invariance_probe(X2P1, X2M1, inv, inv, 2, 2, samples, 4)
    bound = inversion_deviation_bound(2, 2)
    assert abs(bound - 2 * math.log(2)) < 1e-12
    assert res.max_deviation <= bound + 1e-9
    assert res.samples_used > 0


def test_mobius_probe_needs_degree_one_maps():
    samples = [(Fraction(3), Fraction(5))]
    x = RationalMap([0, 1])
    for sigma, tau in ((X2P1, x), (x, X2M1)):
        with pytest.raises(DomainError, match="degree-1"):
            mobius_invariance_probe(X2P1, X2M1, sigma, tau, 2, 2, samples, 4)


def test_mobius_probe_names_the_map_that_sends_its_target_to_infinity():
    samples = [(Fraction(3), Fraction(5))]
    x, inv = RationalMap([0, 1]), RationalMap([1], [0, 1])
    for sigma, tau, alpha, beta, name in ((inv, x, 0, 2, "sigma"), (x, inv, 2, 0, "tau"),
                                          (inv, inv, 0, 0, "sigma")):
        with pytest.raises(DomainError, match=f"^{name} sends the target 0 to infinity"):
            mobius_invariance_probe(X2P1, X2M1, sigma, tau, alpha, beta, samples, 4)
        # the reference skipped every sample and named no cause
        with pytest.raises(DomainError, match="no usable samples"):
            reference_mobius_probe(X2P1, X2M1, sigma, tau, alpha, beta, samples, 4)


def test_mobius_probe_skips_rows_where_both_gcd_arguments_vanish():
    # x^2 fixes 1 = alpha = beta: the sample (1, 1) gives gcd(0, 0) at every n
    sigma = RationalMap([1, 1])
    with pytest.raises(DomainError, match="no usable samples"):
        mobius_invariance_probe(X2, X2, sigma, sigma, 1, 1, [(1, 1)], 4)
    res = mobius_invariance_probe(X2, X2, sigma, sigma, 1, 1, [(1, 1), (2, 3)], 4)
    assert (res.samples_used, res.rows_skipped) == (2, 4)
    assert res.attained_sample == (2, 3)


def reference_mobius_probe(f, g, sigma, tau, alpha, beta, samples, n_max,
                           digit_budget=maps.DEFAULT_ORBIT_DIGIT_BUDGET):
    """The probe as it was before it mapped f's orbit: it forms the
    conjugates sigma o f o sigma^-1 and tau o g o tau^-1 and iterates them
    from sigma(a) and tau(b), each orbit on its own digit budget."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    f_sigma, g_tau = maps.conjugate(f, sigma), maps.conjugate(g, tau)
    sigma_alpha, tau_beta = sigma(alpha), tau(beta)
    best, attained, used, skipped = -1.0, (None, None), 0, 0
    for sample in samples:
        a, b = ProjPoint.of(sample[0]), ProjPoint.of(sample[1])
        sa, tb = sigma(a), tau(b)
        if any(pt.is_infinity for pt in (sa, tb, sigma_alpha, tau_beta)):
            skipped += 1
            continue
        orbits = [maps.iterate(h, start, n_max, digit_budget)
                  for h, start in ((f, a), (g, b), (f_sigma, sa), (g_tau, tb))]
        used += 1
        for n in range(1, n_max + 1):
            pa, pb, psa, ptb = (orbit[n] for orbit in orbits)
            if any(pt.is_infinity for pt in (pa, pb, psa, ptb)):
                skipped += 1
                continue
            u, v = experiments._minus(pa, alpha)[0], experiments._minus(pb, beta)[0]
            us = experiments._minus(psa, sigma_alpha.value)[0]
            vs = experiments._minus(ptb, tau_beta.value)[0]
            if (u == 0 and v == 0) or (us == 0 and vs == 0):
                skipped += 1
                continue
            dev = abs(experiments._finite_part(us, vs)[1] - experiments._finite_part(u, v)[1])
            if dev > best:
                best, attained = dev, (sample, n)
    if used == 0 or best < 0:
        raise DomainError("no usable samples for the Mobius probe")
    return experiments.MobiusProbeResult(best, attained[0], attained[1], used, skipped)


def _probe_outcome(probe, *args, **kwargs):
    try:
        return probe(*args, **kwargs)
    except (BudgetExceededError, DomainError) as err:
        return type(err)


def _mobius_probe_sweep():
    rng = random.Random(2323)

    def small():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    def some_map():
        d = rng.choice([2, 3])
        num = [rng.randint(-3, 3) for _ in range(d)] + [rng.choice([-2, 1, 3])]
        if rng.random() < 0.7:
            return RationalMap(num)
        return RationalMap(num, [rng.randint(-2, 2), rng.choice([-1, 1, 2])])

    def mobius(f, orbit_start):
        kind = rng.choice(["translation", "dilation", "inversion", "general", "pole"])
        if kind == "translation":
            return RationalMap([rng.randint(-5, 5), 1])
        if kind == "dilation":
            return RationalMap([0, rng.choice([-6, -2, 2, 3, Fraction(1, 5), 10**4])])
        if kind == "inversion":
            return RationalMap([1], [0, 1])
        if kind == "pole":           # the pole is a point of the orbit
            point = maps.iterate(f, orbit_start, rng.randint(0, 2))[-1]
            if not point.is_infinity:
                return RationalMap([rng.randint(1, 3)], [-point.value, 1])
        while True:
            a0, a1, b0, b1 = (rng.randint(-4, 4) for _ in range(4))
            if a0 * b1 != a1 * b0:
                return RationalMap([a0, a1], [b0, b1])

    cases = []
    for _ in range(220):
        f, g = some_map(), some_map()
        samples = [(small(), small()) for _ in range(rng.randint(1, 3))]
        sigma, tau = mobius(f, samples[0][0]), mobius(g, samples[0][1])
        cases.append((f, g, sigma, tau, small(), small(), samples, rng.randint(1, 4)))
    return cases


def test_mobius_probe_matches_reference_mobius_probe():
    outcomes = set()
    for args in _mobius_probe_sweep():
        want = _probe_outcome(reference_mobius_probe, *args)
        assert _probe_outcome(mobius_invariance_probe, *args) == want, args
        outcomes.add(want if isinstance(want, type) else
                     ("skips" if want.rows_skipped else "no skips", want.max_deviation > 0))
    assert {("skips", True), ("no skips", True), ("no skips", False)} <= outcomes
    assert DomainError in outcomes


def test_mobius_probe_budgets_only_the_orbits_of_f_and_g():
    # sigma lengthens every orbit point by about four digits; the budget
    # holds the orbits of f and g but not their images, which the probe
    # computes without charging them and the reference iterates on budget
    sigma = RationalMap([1, 10**4])
    args = (X2P1, X2M1, sigma, sigma, 2, 2, [(Fraction(2), Fraction(3))], 4)
    budget = max(sum(maps.digit_count(c) for pt in maps.iterate(h, a, 4) for c in pt.pair())
                 for h, a in ((X2P1, 2), (X2M1, 3)))
    with pytest.raises(BudgetExceededError):
        reference_mobius_probe(*args, digit_budget=budget)
    got = mobius_invariance_probe(*args, digit_budget=budget)
    assert got == reference_mobius_probe(*args) == mobius_invariance_probe(*args)


def test_inversion_deviation_bound_values():
    assert inversion_deviation_bound(1, 1) == 0.0
    assert abs(inversion_deviation_bound(Fraction(3, 2), 1) -
               2 * math.log(6)) < 1e-12


def test_inversion_deviation_bound_is_the_per_prime_sum():
    sympy = pytest.importorskip("sympy")

    def doubled_abs_valuations(x):
        # 2 |v_p(x)|; a zero argument has none
        if x == 0:
            return {}
        vec = {p: 2 * e for p, e in sympy.factorint(abs(x.numerator)).items()}
        vec.update({p: 2 * e for p, e in sympy.factorint(x.denominator).items()})
        return vec

    rng = random.Random(38)
    pairs = [(Fraction(0), Fraction(3, 4)), (Fraction(-5, 8), Fraction(0)), (Fraction(0),) * 2]
    pairs += [tuple(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
                    for _ in range(2)) for _ in range(400)]
    for alpha, beta in pairs:
        ea, eb = doubled_abs_valuations(alpha), doubled_abs_valuations(beta)
        want = math.fsum(max(ea.get(p, 0), eb.get(p, 0)) * math.log(p)
                         for p in ea.keys() | eb.keys())
        got = inversion_deviation_bound(alpha, beta)
        assert abs(got - want) <= 1e-12 * want, (alpha, beta)
    # pq / 7 with 40- and 41-digit primes p and q: no factoring is needed
    p, q = sympy.nextprime(10**40), sympy.nextprime(10**41)
    want = 2 * (math.log(p) + math.log(q)) + 4 * math.log(7)     # 7 from beta's 49
    got = inversion_deviation_bound(Fraction(p * q, 7), Fraction(-1, 49))
    assert abs(got - want) <= 1e-12 * want
