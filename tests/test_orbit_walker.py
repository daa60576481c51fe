"""The one exact orbit walker, ``maps.orbit``, against copies of the four
loops it replaced: ``iterate``, the gcd series, the genericity probe's
orbits and the preperiodicity scan.  Each copy below is the loop as it
stood before the walker, kept here as an oracle."""

import random
from fractions import Fraction

import pytest

from orbitgcd import classify
from orbitgcd.errors import BudgetExceededError, DomainError, IndeterminateError
from orbitgcd.experiments import GcdSeriesConfig, _series_row, gcd_series
from orbitgcd.heights import _discrepancy_base, _orbit_scan
from orbitgcd.maps import (INFINITY, ProjPoint, RationalMap, compose, digit_count,
                           evaluate, iterate)


def old_iterate(f, point, n, digit_budget):
    # charges the start, raises after the step that passes the budget
    point = ProjPoint.of(point)
    orbit = [point]
    digits = sum(digit_count(c) for c in point.pair())
    for k in range(n):
        point = evaluate(f, point)
        r, s = point.pair()
        digits += digit_count(r) + digit_count(s)
        if digits > digit_budget:
            raise BudgetExceededError(
                f"orbit digit budget exceeded at step {k + 1}: "
                f"{digits} > {digit_budget}",
                partial=orbit, digits=digits, steps=k,
            )
        orbit.append(point)
    return orbit


def old_series_rows(config):
    # charges both orbits jointly, leaves out the starts, truncates
    d = config.degree
    pa, pb = config.a, config.b
    spent = 0
    n = 0
    while n <= config.n_max:
        yield _series_row(config, n, pa, pb, d)
        if n == config.n_max:
            return
        pa = evaluate(config.f, pa)
        pb = evaluate(config.g, pb)
        spent += sum(digit_count(c) for c in pa.pair() + pb.pair())
        if spent > config.digit_budget:
            return
        n += 1


def old_probe_pairs(f, g, a, b, n_points, digit_budget):
    # each orbit on the full budget, degrading to its partial orbit
    def with_budget(h, start):
        try:
            return old_iterate(h, start, n_points, digit_budget)
        except BudgetExceededError as err:
            return err.partial
    return [(pa.pair(), pb.pair())
            for pa, pb in zip(with_budget(f, a), with_budget(g, b))]


def old_orbit_scan(f, point, limit):
    # no digit budget: a step limit, a cycle test and an escape test
    seen = set()
    cur = point
    ceiling, power = _discrepancy_base(f), f.degree - 1
    for step in range(limit):
        if cur in seen:
            return "cycle", step
        seen.add(cur)
        if max(map(abs, cur.pair())) ** power > ceiling:
            return "escape", step
        cur = evaluate(f, cur)
    return ("cycle", limit) if cur in seen else None


def random_map(rng, degree):
    while True:
        num = [Fraction(rng.randint(-5, 5), rng.choice([1, 1, 1, 2, 3]))
               for _ in range(degree + 1)]
        den = [rng.randint(-3, 3) for _ in range(rng.choice([1, 1, degree + 1]))]
        num[-1] = num[-1] or 1
        den[-1] = den[-1] or 1
        try:
            f = RationalMap(num, den)
        except DomainError:
            continue
        if f.degree == degree:
            return f


# degree 9: above the resultant's degree cap, so only the check after each step
DEEP = compose(RationalMap([0, 1, 0, 1]), RationalMap([1, 0, 0, 2]))


def random_start(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return INFINITY
    if kind == 1:
        return ProjPoint(rng.randint(-3, 3))
    if kind == 2:
        return ProjPoint(Fraction(rng.randint(-40, 40), rng.randint(1, 40)))
    return ProjPoint(Fraction(rng.randint(1, 9) * 10**rng.randint(5, 400),
                              rng.choice([1, 7, 10**rng.randint(1, 200)])))


def random_cases(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        f = DEEP if rng.random() < 0.05 else random_map(rng, rng.randint(2, 4))
        yield rng, f, random_start(rng), rng.randint(0, 8), rng.choice(
            [1, 5, 20, 60, 200, 800, 3000])


def test_iterate_matches_the_old_loop_but_for_the_precheck():
    same = prechecked = completed = 0
    for _, f, start, n, budget in random_cases(2601, 600):
        try:
            want = old_iterate(f, start, n, budget)
        except BudgetExceededError as err:
            want = err
        if not isinstance(want, BudgetExceededError):
            assert iterate(f, start, n, budget) == want
            completed += 1
            continue
        with pytest.raises(BudgetExceededError) as got:
            iterate(f, start, n, budget)
        got = got.value
        assert (got.steps, got.partial) == (want.steps, want.partial)
        if "at least" in str(got):
            # the bound fired before the step: still past the budget, and no
            # more than the digits the step really had
            assert budget < got.digits <= want.digits
            assert str(got) == (f"orbit digit budget exceeded at step {want.steps + 1}: "
                                f"at least {got.digits} > {budget}")
            assert f.degree <= 8
            prechecked += 1
        else:
            assert (got.digits, str(got)) == (want.digits, str(want))
            same += 1
    assert (completed, same, prechecked) == (205, 78, 317)


def test_gcd_series_matches_the_old_loop_but_where_the_starts_tip_the_budget():
    tipped = []
    equal = 0
    for rng, f, a, n, budget in random_cases(2602, 300):
        g = random_map(rng, f.degree) if f is not DEEP else DEEP
        config = GcdSeriesConfig(f, g, a, random_start(rng), 1, Fraction(1, 2),
                                 n_max=n + 1, digit_budget=budget)
        want = list(old_series_rows(config))
        got = gcd_series(config)
        assert got.rows == tuple(want[:len(got.rows)])
        if got.last_n == want[-1].n:
            equal += 1
            continue
        # the only difference: the starts' digits, now charged, take the
        # first step the old loop kept past the budget
        k = got.last_n + 1
        steps = list(zip(iterate(f, config.a, k, 10**9), iterate(g, config.b, k, 10**9)))
        digits = [sum(digit_count(c) for p in step for c in p.pair()) for step in steps]
        assert sum(digits[1:]) <= budget < sum(digits)
        assert got.truncated
        tipped.append((k, budget))
    # 11 of the 300 series stop one step earlier than before
    assert equal == 289 and len(tipped) == 11


def test_probe_walks_the_same_points_as_the_old_loops(monkeypatch):
    class Walked(Exception):
        pass

    def stop(f, g, pairs, *args):
        raise Walked(pairs)

    monkeypatch.setattr(classify, "_orbit_rows_modp", stop)
    outcomes = {"pairs": 0, "budget": 0, "indeterminate": 0}
    for rng, f, a, n, budget in random_cases(2603, 300):
        g = random_map(rng, rng.randint(2, 4))
        b = random_start(rng)
        want = old_probe_pairs(f, g, a, b, n + 1, budget)
        with pytest.raises((Walked, BudgetExceededError, IndeterminateError)) as got:
            classify.probe_genericity(f, g, a, b, 1, n + 1, digit_budget=budget)
        if len(want) < 2:
            assert got.type is BudgetExceededError
            outcomes["budget"] += 1
        elif not any(x[1] and y[1] for x, y in want[1:]):
            assert got.type is IndeterminateError
            outcomes["indeterminate"] += 1
        else:
            assert got.type is Walked and got.value.args[0] == want
            outcomes["pairs"] += 1
    assert outcomes == {"pairs": 88, "budget": 170, "indeterminate": 42}


def test_orbit_scan_matches_the_old_loop():
    results = set()
    for rng, f, start, _, _ in random_cases(2604, 300):
        if f is DEEP:
            continue
        limit = rng.randint(0, 30)
        want = old_orbit_scan(f, start, limit)
        assert _orbit_scan(f, start, limit) == want
        results.add(None if want is None else want[0])
    assert results == {None, "cycle", "escape"}
