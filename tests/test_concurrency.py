"""Heights, logs, genericity probes, depth certificates, the GMP-backed
product, gcd, division and decimal conversion, and CLI parsing with the
shared parsers computed in several threads at once equal the serial
results exactly."""

import argparse
import math
import random
import sys
import threading
from fractions import Fraction

from orbitgcd import _gmp, classify, cli, exact, heights, maps
from orbitgcd.classify import probe_genericity
from orbitgcd.exact import _GMP_BITS, factor, int_divmod, int_gcd, int_mul, log_abs
from orbitgcd.experiments import choose_depth
from orbitgcd.heights import canonical_height, hgcd
from orbitgcd.maps import RationalMap
from orbitgcd.serialize import _digits_by_division, int_to_str

THREADS = 4
ROUNDS = 3


def _jobs():
    jobs = []
    for f in (RationalMap([1, 0, 1]), RationalMap([-3, 0, 1], [0, 2])):
        for start in (Fraction(1, 2), Fraction(3), Fraction(5, 7)):
            for tol in (1e-100, 1e-60, 1e-8):
                jobs.append(lambda f=f, s=start, t=tol: canonical_height(f, s, t))
    for x, y in ((Fraction(5, 3), Fraction(10, 7)), (Fraction(1, 10**40 + 3), 6),
                 (Fraction(2, 3**90), Fraction(4, 5**70))):
        jobs.append(lambda x=x, y=y: hgcd(x, y))
    for x in (Fraction(2, 3), Fraction(10**50 + 7, 3**80)):
        jobs.append(lambda x=x: log_abs(x))
    # factors between the trial-division table's bound 2^10 and 10^6 come from rho
    for n in (1031 * 1033, 65537 * 999983, 524287 * 786433, 1021**2 * 1031**3):
        jobs.append(lambda n=n: factor(n))
    x2, x3x = RationalMap([0, 0, 1]), RationalMap([0, 1, 0, 1])
    for seed in (0, 3, 17, 9001):
        jobs.append(lambda s=seed: probe_genericity(x3x, x3x, 1, -1, 1, 8, seed=s))
        jobs.append(lambda s=seed: probe_genericity(
            x2, RationalMap([0, 0, Fraction(1, 997)]), 5, 4985, 1, 8, seed=s))
        jobs.append(lambda s=seed: probe_genericity(
            RationalMap([1, 0, 1]), RationalMap([-1, 0, 1]), 1, 2, 2, 10, seed=s))
    return jobs


def _exact(result):
    # probe outcomes (a CurveRelation or None) and exact Reals compare by
    # value; a LogValue also by its total
    if hasattr(result, "finite"):
        return (result, result.total())
    return result


def _run_threads(worker, n):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)   # switch threads often to provoke overlap
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


def test_threads_reproduce_serial_results_exactly():
    jobs = _jobs()
    serial = [_exact(job()) for job in jobs]
    # cold prime memo, so the threads also fill it concurrently
    classify._screen_prime.cache_clear()
    start = threading.Barrier(THREADS)
    mismatches = []

    def worker(k):
        start.wait()
        for r in range(ROUNDS):
            # each thread walks the jobs from its own offset, so calls at
            # different precisions overlap
            for i in range(len(jobs)):
                j = (i + 5 * k + r) % len(jobs)
                got = _exact(jobs[j]())
                if got != serial[j]:
                    mismatches.append((k, r, j))

    _run_threads(worker, THREADS)
    assert mismatches == []


def test_threads_first_reaching_a_precision_match_later_serial_results():
    # tolerances near the least positive float need about 2,200 bits, more
    # than any other height in this suite, so the ln 2 cache first grows
    # to those precisions inside the threads
    exact._ln2.cache_clear()
    jobs = [(f, start, tol)
            for f in (RationalMap([1, 0, 1]), RationalMap([-3, 0, 1], [0, 2]))
            for start in (Fraction(1, 2), Fraction(5, 7))
            for tol in (5e-324, 2e-323)]
    start = threading.Barrier(THREADS)
    results = [[None] * len(jobs) for _ in range(THREADS)]

    def worker(k):
        start.wait()
        for i in range(len(jobs)):
            j = (i + 3 * k) % len(jobs)
            results[k][j] = _exact(canonical_height(*jobs[j]))

    _run_threads(worker, THREADS)
    serial = [_exact(canonical_height(*job)) for job in jobs]
    assert results == [serial] * THREADS


def test_threads_choosing_depths_match_the_serial_certificates():
    # the benchmark's three pairs from 1 and 2 at alpha = beta = 1, with cold
    # Bezout records and discrepancy constants, so the threads also fill
    # those caches concurrently
    jobs = [(RationalMap([1, 0, 1]), RationalMap([-1, 0, 1]), 0.05),
            (RationalMap([1, 0, 0, 1]), RationalMap([-1, 1, 0, 1]), 0.1),
            (RationalMap([-3, 0, 1], [0, 2]), RationalMap([2, 0, 1], [0, 1]), 0.1)]
    serial = [choose_depth(f, g, 1, 2, 1, 1, eps) for f, g, eps in jobs]
    assert all(cert.replay() for cert in serial)
    maps.bezout_record.cache_clear()
    heights.discrepancy_bound.cache_clear()
    start = threading.Barrier(THREADS)
    mismatches = []

    def worker(k):
        start.wait()
        for r in range(ROUNDS):
            for i in range(len(jobs)):
                j = (i + k + r) % len(jobs)
                f, g, eps = jobs[j]
                cert = choose_depth(f, g, 1, 2, 1, 1, eps)
                if cert != serial[j] or not cert.replay():
                    mismatches.append((k, r, j))

    _run_threads(worker, THREADS)
    assert mismatches == []


def test_two_threads_on_one_cold_probe_seed():
    x2, g = RationalMap([0, 0, 1]), RationalMap([0, 0, Fraction(1, 10**6)])
    seed = 271828
    classify._screen_prime.cache_clear()
    serial = probe_genericity(x2, g, 7, 7 * 10**6, 1, 8, seed=seed)
    assert serial is not None
    prime = classify._screen_prime(seed, 0)
    classify._screen_prime.cache_clear()
    start = threading.Barrier(2)
    results = [None, None]

    def worker(k):
        start.wait()
        results[k] = probe_genericity(x2, g, 7, 7 * 10**6, 1, 8, seed=seed)

    _run_threads(worker, 2)
    assert results == [serial, serial]
    assert classify._screen_prime(seed, 0) == prime


def _big_pairs():
    rng = random.Random(14)
    pairs = []
    for bits in (_GMP_BITS, 2 * _GMP_BITS, 8 * _GMP_BITS):
        common = rng.getrandbits(bits // 2) | 1
        pairs.append((common * rng.getrandbits(bits), -common * rng.getrandbits(bits)))
    return pairs


def test_threads_running_gmp_gcds_and_decimals_at_once():
    pairs = _big_pairs()
    gcds = [math.gcd(x, y) for x, y in pairs]
    numbers = [abs(x) for x, _ in pairs] + [10**20000 - 1, 7**50000]
    digits = [_digits_by_division(n) for n in numbers]
    mismatches = []

    def worker(k):
        for r in range(ROUNDS):
            for i, (x, y) in enumerate(pairs):
                if int_gcd(x, y) != gcds[i]:
                    mismatches.append(("gcd", k, r, i))
            for i, n in enumerate(numbers):
                if int_to_str(n) != digits[i]:
                    mismatches.append(("str", k, r, i))

    _run_threads(worker, THREADS)
    assert mismatches == []


def test_threads_running_gmp_products_and_gcds_at_once():
    # orbit-sized squares and products, the gcds of the products, and the
    # floor divisions of each square, one off, by the negated other operand
    pairs = _big_pairs()
    products = [x * y for x, y in pairs]
    squares = [x * x for x, _ in pairs]
    gcds = [math.gcd(p, q) for p, q in zip(products, squares)]
    quotients = [divmod(q - 1, -y) for q, (_, y) in zip(squares, pairs)]
    mismatches = []

    def worker(k):
        for r in range(ROUNDS):
            for i, (x, y) in enumerate(pairs):
                p, q = int_mul(x, y), int_mul(x, x)
                if p != products[i] or q != squares[i]:
                    mismatches.append(("mul", k, r, i))
                if int_gcd(p, q) != gcds[i]:
                    mismatches.append(("gcd", k, r, i))
                if int_divmod(q - 1, -y) != quotients[i]:
                    mismatches.append(("divmod", k, r, i))

    _run_threads(worker, THREADS)
    assert mismatches == []


def test_two_threads_make_the_first_gmp_call_together(monkeypatch):
    # a cold loader: both threads race into _load, which binds once
    monkeypatch.setattr(_gmp, "_loaded", False)
    monkeypatch.setattr(_gmp, "_gmp", None)
    binds = []
    bind = _gmp._bind
    monkeypatch.setattr(_gmp, "_bind", lambda: binds.append(1) or bind())
    (x, y), = _big_pairs()[:1]
    start = threading.Barrier(2)
    results = [None, None]

    def worker(k):
        start.wait()
        results[k] = int_gcd(x, y)

    _run_threads(worker, 2)
    assert results == [math.gcd(x, y)] * 2
    assert binds == [1]


def _command_argvs(commands=cli._COMMANDS, prefix=()):
    """One argv per command in the table, every option given a value."""
    for name, command in commands.items():
        if isinstance(command.run, dict):
            yield from _command_argvs(command.run, prefix + (name,))
            continue
        argv = [*prefix, name]
        for flags, keywords in command.options:
            if keywords.get("action") == "store_true":
                argv.append(flags[0])
            elif "choices" in keywords:
                argv += [flags[0], keywords["choices"][-1]]
            else:
                value = {int: "5", float: "1e-3"}.get(keywords.get("type"), "-3/4")
                argv += [flags[0], value]
        yield argv


def _parse(argv):
    try:
        return vars(cli._parse(argv))
    except SystemExit as exc:
        return ("exit", exc.code)


def _parser_state(parser):
    """What parsing could change in a parser, nested parsers included."""
    state = [dict(parser._defaults)]
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            state.append({name: _parser_state(sub) for name, sub in action.choices.items()})
            choices = tuple(action.choices)
        else:
            choices = action.choices
        state.append((tuple(action.option_strings), action.dest, action.default,
                      action.type, choices, action.required, action.nargs))
    return state


def test_threads_parse_with_the_shared_parsers(capsys):
    argvs = list(_command_argvs())
    assert len(argvs) == 15
    argvs += [[], ["bogus"], ["classify", "bogus"], ["surface"],
              ["gcd-series", "--max-n", "x"], ["height", "-x", "3", "extra"]]
    # fresh parsers, read before any parse
    cli._build_parser.cache_clear()
    parsers = {path: cli._build_parser(path) for path in map(cli._command_path, argvs)}
    before = {path: _parser_state(parser) for path, parser in parsers.items()}
    serial = [_parse(argv) for argv in argvs]
    assert all(isinstance(result, dict) for result in serial[:15])
    assert serial[15:] == [("exit", 2)] * 6
    start = threading.Barrier(THREADS)
    mismatches = []

    def worker(k):
        start.wait()
        for r in range(ROUNDS):
            for i in range(len(argvs)):
                j = (i + 5 * k + r) % len(argvs)
                if _parse(argvs[j]) != serial[j]:
                    mismatches.append((k, r, j))

    _run_threads(worker, THREADS)
    capsys.readouterr()
    assert mismatches == []
    assert all(cli._build_parser(path) is parser for path, parser in parsers.items())
    assert {path: _parser_state(parser) for path, parser in parsers.items()} == before


def test_threads_dispatching_gcd_series_write_the_serial_bytes(tmp_path, monkeypatch):
    monkeypatch.setenv("ORBITGCD_TEST_MODE", "1")
    x2 = tmp_path / "x2.json"
    x2.write_text('{"coeffs": ["0", "0", "1"]}')

    def argv(out):
        return ["gcd-series", "--f", str(x2), "--g", str(x2), "-a", "125", "-b", "25",
                "--alpha", "1", "--beta", "1", "--max-n", "10", "--out", str(out)]

    assert cli.dispatch(argv(tmp_path / "serial.json")) == 0
    serial = (tmp_path / "serial.json").read_bytes()
    start = threading.Barrier(THREADS)
    mismatches = []

    def worker(k):
        start.wait()
        out = tmp_path / f"thread{k}.json"
        for r in range(ROUNDS):
            if cli.dispatch(argv(out)) != 0 or out.read_bytes() != serial:
                mismatches.append((k, r))

    _run_threads(worker, THREADS)
    assert mismatches == []
