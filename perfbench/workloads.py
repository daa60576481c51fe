"""The benchmark's four workloads: seeded op lists, each op with its check.

An op is one call into orbitgcd: a CLI subcommand run in-process through
``orbitgcd.cli.dispatch`` (so argument parsing and ``serialize`` are on
the measured path), or one public library function for ``desk-batch``.
Every op carries a check that judges its output against an independent
oracle from ``oracle.py``.  Ops call orbitgcd through its modules at call
time (``orbitgcd.cli.dispatch``, ``orbitgcd.hgcd``), so the tracer's
wrappers see them.  The seed only changes which inputs are drawn
and in which orientation; the program sees nothing but the generated map
files and argv.

Each workload also lists known-defect probes: requests that the program
is known to get wrong at this version.  They run untimed after the
measured passes and are reported on their own (see ``run.py``), so that
a later fix shows up as a changed outcome, never as a timing change.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from oracle import (CheckFailed, close, decimal_digits, expect, height_error_quadratic,
                    is_prime, orbit, parse_int, parse_rational, poly_compose,
                    prime_at_least)

import orbitgcd
import orbitgcd.cli
from orbitgcd import Polynomial, RationalMap

WHY = {
    "deep-series": (
        "exact gcds of 10^4 to 2*10^5-digit orbit values and digit counts "
        "dominate; the x^2 pair also pushes 10^5-digit gcds through serialize"),
    "rational-orbits": (
        "Fraction normalization inside maps.evaluate dominates rational "
        "orbits; in deep-series the same layer normalizes by a gcd with 1"),
    "depth-select": (
        "symbolic maps.compose and the multiplicity towers of choose_depth "
        "dominate; no other workload composes maps"),
    "desk-batch": (
        "~400 small library calls where exact, heights, classify and linalg "
        "do the work; it bypasses cli and serialize"),
}

# How strongly each workload's ops slow down with the speed probe (see
# speed.py).  Measured on a shared 2-core Intel Xeon VM: over five 30 s
# deep-series runs, wall time ran from 4.0 to 6.6 s per pass; scaling by
# the full probe ratio turned that into 4.2 to 3.5 s (too much), and by
# its 0.7th power into quartile spreads of 0.01 to 0.03.  The huge integers of
# deep-series slow down less than the probe; the other workloads follow
# it (exponent 1 gave their smallest spread).
SPEED_EXPONENT = {"deep-series": 0.7}


@dataclass(frozen=True)
class CliResult:
    code: int
    out: str
    err: str


@dataclass
class Op:
    id: str                                # stable name within the workload
    kind: str                              # failures are counted per kind
    scenario: str                          # sweep point, reported as scenario.<name>.s
    run: Callable[[], object]
    check: Callable[[object], None]        # raises CheckFailed on a wrong output


@dataclass
class Defect:
    """A request the program is known to answer wrongly at this version."""

    id: str
    kind: str
    known: str                             # what the known failure looks like
    run: Callable[[], object]
    classify: Callable[[object], tuple[str, str]]   # -> (status, message)


def run_cli(argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = orbitgcd.cli.dispatch(argv)
        except SystemExit as exc:          # argparse usage errors exit
            code = exc.code
    return CliResult(code, out.getvalue(), err.getvalue())


def _cli_json(result: CliResult) -> dict:
    expect(result.code == 0, f"exit {result.code}: {result.err.strip()[:300]}")
    return json.loads(result.out)


class MapFiles:
    """Writes map files for the CLI into the run's work directory."""

    def __init__(self, workdir: str):
        self.workdir = workdir

    def write(self, name: str, num, den=None) -> str:
        path = os.path.join(self.workdir, f"{name}.json")
        obj = {"coeffs": [str(Fraction(c)) for c in num]}
        if den is not None:
            obj = {"num": obj, "den": {"coeffs": [str(Fraction(c)) for c in den]}}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path


def _cli_op(op_id, kind, scenario, argv, check) -> Op:
    return Op(op_id, kind, scenario, lambda: run_cli(argv), check)


# --- gcd-series checks ---


def _series_rows(result: CliResult, fmt: str, n_max: int) -> list[dict]:
    if fmt == "json":
        data = _cli_json(result)
        expect(not data["truncated"] and data["last_n"] == n_max,
               f"report truncated at n = {data['last_n']}")
        rows = data["rows"]
    else:
        expect(result.code == 0, f"exit {result.code}: {result.err.strip()[:300]}")
        lines = result.out.splitlines()
        expect(lines[0] == "n,digits_f,digits_g,gcd,log_gcd,ratio,hgcd_fin,hgcd_S,flags",
               "bad CSV header")
        rows = []
        for line in lines[1:]:
            n, df, dg, gcd, log_gcd, ratio, fin, excl, flags = line.split(",")
            rows.append({"n": int(n), "digits_f": int(df), "digits_g": int(dg),
                         "gcd": gcd, "log_gcd": float(log_gcd), "ratio": float(ratio),
                         "hgcd_fin": float(fin), "hgcd_S": float(excl),
                         "flags": flags.split(";") if flags else []})
    expect([r["n"] for r in rows] == list(range(n_max + 1)), "rows are not n = 0..n_max")
    return rows


def _check_gcd_field(field, g: int, log_g: float, fmt: str) -> None:
    digits = decimal_digits(g)
    if fmt == "csv" and digits >= 10**4:
        head, _, log_text = field.rpartition(":log=")
        expect(head == f"elided:digits={digits}" and close(float(log_text), log_g),
               f"elided gcd field {field[:80]!r}, expected {digits} digits")
    else:
        expect(isinstance(field, str) and parse_int(field) == g,
               f"gcd field differs from the oracle gcd ({digits} digits)")


def integral_series_check(fc, gc, a, b, alpha, beta, n_max, fmt, closed_gcd=None):
    """Rows of an integral gcd-series against plain integer orbits; the gcd
    comes from ``closed_gcd(n)`` when a closed form is known."""
    us = [u - alpha for u in orbit(fc, a, n_max)]
    vs = [v - beta for v in orbit(gc, b, n_max)]

    def check(result):
        for row, u, v in zip(_series_rows(result, fmt, n_max), us, vs):
            n = row["n"]
            g = closed_gcd(n) if closed_gcd else math.gcd(u, v)
            log_g = math.log(g)
            expect(row["digits_f"] == decimal_digits(u) and row["digits_g"] == decimal_digits(v),
                   f"n={n}: digit counts differ")
            _check_gcd_field(row["gcd"], g, log_g, fmt)
            expect(close(row["log_gcd"], log_g) and close(row["hgcd_fin"], log_g)
                   and close(row["ratio"], log_g / 2**n), f"n={n}: log_gcd or ratio differs")
            expect(row["flags"] == [], f"n={n}: unexpected flags {row['flags']}")
    return check


def _arch_vplus(x: Fraction) -> float:
    return max(0.0, -(math.log(abs(x.numerator)) - math.log(x.denominator)))


def rational_series_check(fc, gc, a, b, n_max):
    us = orbit(fc, a, n_max)
    vs = orbit(gc, b, n_max)

    def check(result):
        for row, u, v in zip(_series_rows(result, "json", n_max), us, vs):
            n = row["n"]
            fin = math.log(math.gcd(u.numerator, v.numerator))
            log_gcd = fin + min(_arch_vplus(u), _arch_vplus(v))
            expect(row["digits_f"] == decimal_digits(u.numerator)
                   and row["digits_g"] == decimal_digits(v.numerator),
                   f"n={n}: digit counts differ")
            expect(row["gcd"] is None, f"n={n}: rational data reported an integer gcd")
            expect(close(row["log_gcd"], log_gcd, 1e-9, 1e-9)
                   and close(row["hgcd_fin"], fin, 1e-9, 1e-9)
                   and close(row["hgcd_S"], fin, 1e-9, 1e-9)
                   and close(row["ratio"], log_gcd / 2**n, 1e-9, 1e-9),
                   f"n={n}: logs differ from the Fraction oracle")
            expect(row["flags"] == ["rational_data"], f"n={n}: flags {row['flags']}")
    return check


def _oriented(rng, first, second):
    return (second, first) if rng.random() < 0.5 else (first, second)


# --- deep-series ---


def deep_series(rng, files: MapFiles, tiny: bool):
    p1, m1, x2 = [1, 0, 1], [-1, 0, 1], [0, 0, 1]
    paths = {"p1": files.write("x2p1", p1), "m1": files.write("x2m1", m1),
             "x2": files.write("x2", x2)}
    ops = []
    for n in ((6, 8) if tiny else (16, 18, 20)):
        (fk, fc, a), (gk, gc, b) = _oriented(rng, ("p1", p1, 1), ("m1", m1, 2))
        argv = ["gcd-series", "--f", paths[fk], "--g", paths[gk], "-a", str(a),
                "-b", str(b), "--alpha", "0", "--beta", "0", "--max-n", str(n)]
        ops.append(_cli_op(f"generic-n{n}", "gcd-series", f"generic-n{n}", argv,
                           integral_series_check(fc, gc, a, b, 0, 0, n, "json")))
    # f = g = x^2 from 5^i and 5^j with gcd(i, j) = 1: the gcd is 5^(2^n) - 1
    for n in ((4, 5) if tiny else (16, 17)):
        i, j = _oriented(rng, 3, 2)
        for fmt in ("json", "csv"):
            argv = ["gcd-series", "--f", paths["x2"], "--g", paths["x2"],
                    "-a", str(5**i), "-b", str(5**j), "--alpha", "1", "--beta", "1",
                    "--max-n", str(n), "--format", fmt]
            check = integral_series_check(x2, x2, 5**i, 5**j, 1, 1, n, fmt,
                                          closed_gcd=lambda k: 5 ** (2**k) - 1)
            ops.append(_cli_op(f"x2-n{n}-{fmt}", "gcd-series", f"x2-n{n}-{fmt}",
                               argv, check))
    return ops, []


# --- rational-orbits ---

STR_DIGIT_LIMIT = 4300      # CPython's default int/str conversion limit


def _orbit_digits(x: Fraction) -> int:
    return max(decimal_digits(x.numerator), decimal_digits(x.denominator))


def _iterate_inputs(rng, low, high):
    """x^2 + c with rational c and a rational start, iterated for as many
    steps as keep every value within ``high`` digits, accepted when the
    last value has at least ``low`` digits; returns (c, start, steps)."""
    while True:
        c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(2, 9))
        start = Fraction(rng.randint(-9, 9), rng.randint(2, 9))
        if c.denominator == 1 or start.denominator == 1:
            continue
        x, steps = start, 0
        while _orbit_digits(x * x + c) <= high and steps < 40:   # cycles stay small
            x, steps = x * x + c, steps + 1
        if _orbit_digits(x) >= low:
            return c, start, steps


def iterate_check(c, start, steps):
    expected = orbit([c, 0, 1], start, steps)

    def check(result):
        got = [parse_rational(p) for p in _cli_json(result)["orbit"]]
        expect(len(got) == steps + 1, f"orbit has {len(got)} points, expected {steps + 1}")
        bad = next((k for k, (x, y) in enumerate(zip(got, expected)) if x != y), None)
        expect(bad is None, f"orbit point {bad} differs from Fraction evaluation")
    return check


def _iterate_defect(defect_id, path, c, start, steps) -> Defect:
    check = iterate_check(c, start, steps)

    def classify(result):
        if result.code == 2 and "Exceeds the limit (4300 digits)" in result.err:
            return "reproduced", json.loads(result.err)["message"][:120]
        try:
            check(result)
        except CheckFailed as exc:
            return "changed", str(exc)
        return "fixed", "the orbit prints and matches Fraction evaluation"

    argv = ["iterate", "--map", path, f"--start={start}", "--steps", str(steps)]
    return Defect(defect_id, "iterate",
                  "exit 2, 'Exceeds the limit (4300 digits)' once an orbit value "
                  "passes 4300 digits", lambda: run_cli(argv), classify)


def rational_orbits(rng, files: MapFiles, tiny: bool):
    ops, defects = [], []
    low, high = (300, 600) if tiny else (3600, STR_DIGIT_LIMIT)
    for k in range(2 if tiny else 12):
        c, start, steps = _iterate_inputs(rng, low, high)
        path = files.write(f"iter{k}", [c, 0, 1])
        argv = ["iterate", "--map", path, f"--start={start}", "--steps", str(steps)]
        ops.append(_cli_op(f"iterate-{k}", "iterate", "iterate", argv,
                           iterate_check(c, start, steps)))
        if k < 2 and not tiny:   # one step further crosses 4300 digits
            defects.append(_iterate_defect(f"iterate-{k}-over-limit", path, c, start,
                                           steps + 1))
    third = files.write("x2+1_3", [Fraction(1, 3), 0, 1])
    defects.append(_iterate_defect("iterate-x2+1/3-from-1/2-13-steps", third,
                                   Fraction(1, 3), Fraction(1, 2), 13))
    fifth = files.write("x2-2_5", [Fraction(-2, 5), 0, 1])
    for n in ((5, 6) if tiny else (16, 17)):
        (fp, fc, a), (gp, gc, b) = _oriented(
            rng, (third, [Fraction(1, 3), 0, 1], Fraction(1, 2)),
            (fifth, [Fraction(-2, 5), 0, 1], Fraction(2, 3)))
        argv = ["gcd-series", "--f", fp, "--g", gp, "-a", str(a), "-b", str(b),
                "--alpha", "0", "--beta", "0", "--max-n", str(n)]
        ops.append(_cli_op(f"rational-n{n}", "gcd-series", f"rational-n{n}", argv,
                           rational_series_check(fc, gc, a, b, n)))
    return ops, defects


# --- depth-select ---


def choose_depth_check(degree, epsilon, echo, quadratic_heights=None):
    """The certificate inequality, recomputed from the emitted numbers; the
    config echo; for x^2 + c maps, the heights against the oracle."""
    def check(result):
        data = _cli_json(result)
        cert = data["certificate"]
        expect(data["manifest"]["config"] == echo, "manifest echoes other inputs")
        for (c, start), key in zip(quadratic_heights or (), ("hhat_f_a", "hhat_g_b")):
            err = height_error_quadratic(c, Fraction(start), cert[key])
            expect(err <= cert[key + "_error"] + 1e-12,
                   f"{key} is {err:.3g} from the reference, beyond its error bound")
        lhs = cert["m_prime"] / degree ** cert["depth"] * (
            4 * (cert["hhat_f_a"] + cert["hhat_f_a_error"])
            + 4 * (cert["hhat_g_b"] + cert["hhat_g_b_error"]) + cert["constant"])
        expect(cert["replays"] is True, "certificate does not replay")
        expect(cert["degree"] == degree and cert["epsilon"] == epsilon,
               "certificate echoes the wrong degree or epsilon")
        expect(lhs < epsilon / 2 and data["lhs"] < data["bound"] == epsilon / 2,
               f"lhs {lhs} is not below epsilon/2 = {epsilon / 2}")
        expect(data["depth"] == cert["depth"] >= 1 and cert["m_prime"] >= 1,
               "depth or m_prime out of range")
    return check


# (name, (num, den) of f, of g, degree, epsilon, c of x^2 + c for f and g
# or None); a = 1, b = 2, alpha = beta = 1 throughout
DEPTH_PAIRS = (
    ("quad-eps0.05", ([1, 0, 1], None), ([-1, 0, 1], None), 2, 0.05, (1, -1)),
    ("cubic-eps0.1", ([1, 0, 0, 1], None), ([-1, 1, 0, 1], None), 3, 0.1, None),
    ("rational-eps0.1", ([-3, 0, 1], [0, 2]), ([2, 0, 1], [0, 1]), 2, 0.1, None),
)


def depth_select(rng, files: MapFiles, tiny: bool):
    ops = []
    for name, f, g, degree, epsilon, quad_c in DEPTH_PAIRS:
        if tiny:
            epsilon = 4.0
        first = (files.write(f"{name}-f", *f), 1, quad_c and quad_c[0])
        second = (files.write(f"{name}-g", *g), 2, quad_c and quad_c[1])
        (fp, a, cf), (gp, b, cg) = _oriented(rng, first, second)
        argv = ["choose-depth", "--f", fp, "--g", gp, "-a", str(a), "-b", str(b),
                "--alpha", "1", "--beta", "1", "--epsilon", str(epsilon)]
        echo = {"f": fp, "g": gp, "a": str(a), "b": str(b), "alpha": "1", "beta": "1",
                "epsilon": epsilon}
        heights = ((cf, a), (cg, b)) if quad_c else None
        ops.append(_cli_op(name, "choose-depth", name, argv,
                           choose_depth_check(degree, epsilon, echo, heights)))
    return ops, []


# --- desk-batch ---


def _hgcd_op(k, rng) -> Op:
    g = (2 ** rng.randint(0, 3) * 3 ** rng.randint(0, 2) * 5 ** rng.randint(0, 1)
         * prime_at_least(rng.randrange(1 << 20, 1 << 28)))

    def planted():
        u = g * rng.randint(1, 10**6)
        v = rng.randint(1, 10**4)
        while math.gcd(u, v) > 1:
            v = rng.randint(1, 10**4)
        return Fraction(u, v)
    x, y = planted(), planted()

    def check(lv):
        expect(all(c.denominator == 1 and c > 0 and is_prime(p) for p, c in lv.finite.items()),
               f"finite part {lv.finite} is not a prime factorization")
        expect(math.prod(p ** int(c) for p, c in lv.finite.items())
               == math.gcd(x.numerator, y.numerator), "finite part does not multiply to the gcd")
        expect(close(float(lv.arch), min(_arch_vplus(x), _arch_vplus(y)), 1e-12, 1e-12),
               "archimedean term differs")
    return Op(f"hgcd-{k}", "hgcd", "hgcd", lambda: orbitgcd.hgcd(x, y), check)


HEIGHT_TOLS = (1e-10, 1e-50, 1e-100)


def _height_op(k, rng) -> Op:
    c = rng.choice([-3, -1, 1, 2, 3])
    if rng.random() < 0.5:
        start = Fraction(rng.randint(2, 30))
    else:
        start = Fraction(rng.randint(1, 9), rng.randint(2, 7))
    tol = HEIGHT_TOLS[k % len(HEIGHT_TOLS)]
    f = RationalMap([c, 0, 1])

    def check(est):
        err = height_error_quadratic(c, start, est.value)
        expect(err <= float(est.error_bound) + 1e-300 and err <= tol,
               f"|value - reference| = {err:.3g} exceeds error_bound "
               f"{float(est.error_bound):.3g} or tol {tol:g}")
    return Op(f"height-{k}", "canonical-height", f"canonical-height-{tol:g}",
              lambda: orbitgcd.canonical_height(f, start, tol), check)


def _probe(k_factor: int, a: int):
    """f = x^2 and g = y^2 / K with b = K a, so y = K x holds on the orbit."""
    f, g = RationalMap([0, 0, 1]), RationalMap([0, 0, Fraction(1, k_factor)])
    xs = orbit([0, 0, 1], Fraction(a), 8)
    ys = orbit([0, 0, Fraction(1, k_factor)], Fraction(k_factor * a), 8)

    def check(rel):
        expect(rel is not None, f"no relation found for the planted y = {k_factor} x")
        terms = rel.polynomial.terms
        bad = [n for n in range(1, 9)
               if sum(c * xs[n] ** i * ys[n] ** j for (i, j), c in terms.items()) != 0]
        expect(terms and not bad, f"relation {terms} does not vanish at orbit points {bad}")
    return (lambda: orbitgcd.probe_genericity(f, g, a, k_factor * a, 1, 8, seed=0)), check


def _probe_op(k, rng) -> Op:
    run, check = _probe(round(10 ** rng.uniform(2, 8)), rng.randint(2, 9))
    return Op(f"probe-{k}", "probe-genericity", "probe", run, check)


def _probe_defect(k_factor: int) -> Defect:
    run, check = _probe(k_factor, 3)

    def classify(rel):
        if rel is None:
            return "reproduced", "probe_genericity returned None"
        try:
            check(rel)
        except CheckFailed as exc:
            return "changed", str(exc)
        return "fixed", "the planted relation is found and vanishes on the orbit"
    return Defect(f"probe-K1e{round(math.log10(k_factor))}", "probe-genericity",
                  "returns None (printed as relation: null) for a planted relation",
                  run, classify)


def _exceptional_op(k, rng) -> Op:
    """x^2 + bx + c has t exceptional exactly when it is (x - t)^2 + t."""
    t = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    planted = rng.random() < 0.5
    shift = 0 if planted else Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
    f = RationalMap([t * t + t + shift, -2 * t, 1])

    def check(result):
        expect(result is planted, f"is_exceptional returned {result}, expected {planted}")
    return Op(f"exceptional-{k}", "is-exceptional", "exceptional",
              lambda: orbitgcd.is_exceptional(f, t), check)


_SPECIAL_TARGETS = {("power", 2): [0, 0, 1], ("power", 3): [0, 0, 0, 1],
                    ("chebyshev", 2): [-2, 0, 1], ("chebyshev", 3): [0, -3, 0, 1]}


def _special_coeffs(rng, tag, d):
    """Ascending coefficients of sigma^-1 o T o sigma, sigma(x) = u x + w,
    for T = x^d or the Chebyshev T_d; for 'not-special' a translate of a
    depressed polynomial whose x^(d-3) (d = 3) or constant (d = 2) term
    rules both families out."""
    u = Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 3))
    w = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    if tag == "not-special":
        lead = Fraction(rng.randint(1, 4))
        if d == 2:
            k = Fraction(rng.choice([1, -1, 3, -3]), 1) / lead
            dep = [k, 0, lead]
        else:
            dep = [Fraction(rng.randint(1, 9)), Fraction(rng.randint(-4, 4)), 0, lead]
        shifted = poly_compose(dep, [-w, 1])
        shifted[0] += w
        return shifted
    conj = poly_compose(_SPECIAL_TARGETS[(tag, d)], [w, u])
    conj[0] -= w
    return [c / u for c in conj]


def _special_op(k, rng) -> Op:
    tag = rng.choice(["power", "chebyshev", "not-special"])
    poly = Polynomial(_special_coeffs(rng, tag, rng.choice([2, 3])))

    def check(form):
        expect(form.tag == tag, f"special_form says {form.tag}, planted {tag}")
        expect((form.witness is None) == (tag == "not-special"), "witness presence is wrong")
    return Op(f"special-{k}", "special-form", "special-form",
              lambda: orbitgcd.special_form(poly), check)


DESK_MIX = ((_hgcd_op, 180), (_height_op, 80), (_probe_op, 60),
            (_exceptional_op, 40), (_special_op, 40))


def desk_batch(rng, files: MapFiles, tiny: bool):
    ops = []
    for make, count in DESK_MIX:
        ops.extend(make(k, rng) for k in range(max(2, count // 20) if tiny else count))
    return ops, [_probe_defect(10**10), _probe_defect(10**12)]


WORKLOADS = {
    "deep-series": deep_series,
    "rational-orbits": rational_orbits,
    "depth-select": depth_select,
    "desk-batch": desk_batch,
}
