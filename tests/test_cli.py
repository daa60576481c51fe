import contextlib
import json
import math
import os
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_cli_golden import CASES
from test_concurrency import _command_argvs

from orbitgcd import _gmp, cli
from orbitgcd.cli import dispatch
from orbitgcd.errors import DomainError, IndeterminateError
from orbitgcd.experiments import GcdSeriesConfig, gcd_series
from orbitgcd.maps import ProjPoint, RationalMap, conjugate, digit_count
from orbitgcd.polys import Polynomial
from orbitgcd.serialize import (_GMP_DIGITS, _digits_by_division, build_manifest,
                                map_from_json, map_to_json, point_from_str,
                                point_to_str, poly_from_json, int_to_str,
                                poly_to_json, rational_from_str, rational_to_str,
                                report_to_csv, report_to_dict, report_to_json)

X2 = RationalMap([0, 0, 1])


@pytest.fixture(autouse=True)
def _test_mode(monkeypatch):
    monkeypatch.setenv("ORBITGCD_TEST_MODE", "1")


@pytest.fixture()
def map_file(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)
    return write


def run_cli(capsys, argv):
    code = dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rational_and_point_strings_roundtrip():
    for text in ("3", "-7/2", "0", "1000000007/3"):
        assert rational_to_str(rational_from_str(text)) == text
    assert point_to_str(point_from_str("oo")) == "oo"
    assert point_from_str("5/3") == ProjPoint(Fraction(5, 3))


@contextlib.contextmanager
def unlimited_str_digits():
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(cap)


def test_int_to_str_matches_str():
    edge = 10**3600
    values = [0, 7, -7, edge - 1, edge, edge + 1, -edge, edge**2 - 1, edge**2,
              3 * edge**3 + 1, 10**100000 - 1, -(10**100000 + 12345)]
    got = [int_to_str(n) for n in values]
    with unlimited_str_digits():
        assert got == [str(n) for n in values]


def _decimal_oracle(n):
    # str within the interpreter's 4300-digit limit, division past it
    m = abs(n)
    digits = str(m) if m < 10**4300 else _digits_by_division(m)
    return "-" + digits if n < 0 else digits


@pytest.mark.parametrize("gmp", [True, False], ids=["libgmp", "no-libgmp"])
def test_int_to_str_on_both_sides_of_the_gmp_crossover(monkeypatch, gmp):
    if not gmp:
        monkeypatch.setattr(_gmp, "_load", lambda: None)
    rng = random.Random(30)
    values = []
    for k in sorted({1, 999, 1000, 1001, _GMP_DIGITS - 1, _GMP_DIGITS, _GMP_DIGITS + 1,
                     3599, 3600, 3601, 4299, 4300, 4301}):
        values += [rng.randrange(10**(k - 1), 10**k), 10**k, 10**k - 1]
    values += [-n for n in values]
    assert [int_to_str(n) for n in values] == [_decimal_oracle(n) for n in values]
    x = Fraction(rng.randrange(10**1999, 10**2000), rng.randrange(10**1999, 10**2000))
    assert len(str(x.numerator)) == 2000
    for y in (x, -x):
        expected = f"{_decimal_oracle(y.numerator)}/{_decimal_oracle(y.denominator)}"
        assert rational_to_str(y) == expected


def test_rational_from_str_past_the_int_str_limit():
    rng = random.Random(5)
    num = rng.randrange(10**99999, 10**100000)
    den = rng.randrange(10**99999, 10**100000) | 1
    x = Fraction(num, den)
    text = rational_to_str(x)
    assert len(text) > 100000
    assert rational_from_str(text) == x
    assert rational_from_str("-" + "1" * 5000) == -(10**5000 - 1) // 9
    assert rational_from_str(" 1.25e2 ") == 125
    assert rational_from_str("-0.5") == Fraction(-1, 2)
    with pytest.raises(DomainError, match="Fraction"):
        rational_from_str("1/0")


def test_rational_from_str_long_decimal_and_exponent_forms():
    assert rational_from_str("1." + "1" * 5000) == Fraction((10**5001 - 1) // 9, 10**5000)
    assert rational_from_str("1" + "0" * 4400 + "e-3") == 10**4397
    assert rational_from_str("-" + "3" * 4500 + ".5e+2") == -((10**4501 - 1) // 3 + 2) * 10


@pytest.mark.parametrize("text", [
    "1.5", "-0.25", "+3e2", "1E-3", ".5", "5.", "-.5e+2", "0.000", "-0", "007",
    "+.0", "3.e1", "12.34e-5", "0e5", "-1.25E-3", "1/3", "-4/6", "+10/4",
    "1_000", "1_0.5", "2e1_0", "9" * 30 + "." + "1" * 40 + "e-17",
    "1_000/3_0", "1.5e1_0", "1_0.2_5", "\u0661\u0662",    # Arabic-Indic digits: 12
])
def test_rational_from_str_matches_fraction(text):
    # Fraction reads underscores from Python 3.11 on; rational_from_str on 3.10 too
    assert rational_from_str(text) == Fraction(text.replace("_", ""))


def test_rational_from_str_underscores_past_the_int_str_limit_and_spaced_slash():
    assert rational_from_str("1_" + "0" * 5000) == 10**5000
    assert rational_from_str(" -2 / 4 ") == Fraction(-1, 2)     # as Fraction reads it from 3.12 on


@pytest.mark.parametrize("text", ["", ".", "e5", "1e", "/3", "1/", "1.2/3", "--1",
                                  "1e5/3", ".e1", "1.5.2", "0x10", "1__0", "_1", "1_",
                                  "1/2e3", "nan", "1_/2", "1/_2", "1e_5", "1._5", "1_.5",
                                  "1 .5", "- 1"])
def test_rational_from_str_rejects_what_fraction_rejects(text):
    with pytest.raises(ValueError):
        Fraction(text)
    with pytest.raises(DomainError):
        rational_from_str(text)


def test_rational_from_str_error_does_not_echo_long_input():
    with pytest.raises(DomainError) as err:
        rational_from_str("1" * 5000 + "x")
    assert len(str(err.value)) < 300
    assert "5001 characters" in str(err.value)


@pytest.mark.parametrize("text", [
    "1e10000000", "1e-10000000", "-3.5e100000000",
    pytest.param("0." + "0" * 9999999 + "1", id="10^7-fraction-digits"),
    "1_0e10000000", "1_0e-10000000", "1_0.5e1_0000_000", "1e1_000_000_00",
])
def test_rational_from_str_rejects_powers_of_ten_past_the_digit_budget(text):
    # 10^k has k + 1 digits, more than the 10^7 an orbit may have from
    # k = 10^7 on; the parser refuses such a power, written as the exponent
    # or built from it, before building it
    with pytest.raises(DomainError, match="has more than 10000000 digits"):
        rational_from_str(text)
    assert rational_from_str("1e1000") == 10**1000
    assert rational_from_str("1_0e-1000") == Fraction(1, 10**999)


def test_cli_rejects_an_exponent_past_the_digit_budget(capsys):
    code, out, err = run_cli(capsys, ["hgcd", "-x", "1e100000000", "-y", "1"])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "invalid-input"


def test_poly_and_map_json_roundtrip():
    poly = Polynomial([Fraction(1, 2), 0, -3])
    assert poly_from_json(poly_to_json(poly)) == poly
    f = RationalMap([1, 0, 6], [0, 2])
    assert map_from_json(map_to_json(f)) == f
    g = RationalMap([0, 1, 0, 1])
    echo = map_to_json(g)
    assert "den" not in echo
    assert map_from_json(echo) == g
    # a bare polynomial object is accepted as a polynomial map
    assert map_from_json({"coeffs": ["0", "0", "1"]}) == X2


def map_from_json_via_polynomials(obj):
    # the loader that reads every coefficient as a rational_from_str Fraction
    # into a Polynomial: the reference for map_from_json's integer strings
    def poly(o):
        if not isinstance(o, dict) or not isinstance(o.get("coeffs"), list):
            raise DomainError("polynomial JSON needs a 'coeffs' array")
        return Polynomial([rational_from_str(str(c)) for c in o["coeffs"]])

    if not isinstance(obj, dict):
        raise DomainError("map JSON must be an object")
    if "coeffs" in obj:
        return RationalMap(poly(obj))
    if "num" not in obj:
        raise DomainError("map JSON needs 'num' (and optionally 'den')")
    den = poly(obj["den"]) if "den" in obj else None
    return RationalMap(poly(obj["num"]), den)


def _loaded(load, obj):
    try:
        return load(obj).forms
    except DomainError as err:
        return str(err)


COEFFS = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.integers(-10**30, 10**30),
    st.sampled_from(["-0", "007", "+5", " 5", "5 ", "1_000", "-1_0", "\u0663", "-\u0663",
                     "3/4", "-6/4", "0/5", "5/0", "1.5", "-2.5e3", "1e-3", "1E2", "",
                     "-", "--5", "5-", "0x10", "abc", 3, 0.5, 1e3, -2.0, True, None]),
    st.sampled_from([4299, 4300, 4301, 10_000]).flatmap(
        lambda n: st.sampled_from(["9" * n, "-" + "9" * n, "1" + "0" * (n - 1)])),
    st.text("0123456789-+/._ eE\u0663", max_size=8),
)
COEFF_LISTS = st.lists(COEFFS, min_size=1, max_size=4)


@settings(max_examples=300, deadline=None)
@given(num=COEFF_LISTS, den=st.none() | COEFF_LISTS, bare=st.booleans())
@example(num=["-0", "007", "+5"], den=[" 5", "1_000"], bare=False)
@example(num=["\u0663", "1"], den=None, bare=True)
@example(num=["9" * 4299, "9" * 4300, "-" + "9" * 4300], den=["9" * 4301], bare=False)
@example(num=["1" * 10_000, "1"], den=None, bare=True)
@example(num=["1/3", "0.25", "-2e-3", "3E2"], den=["7/2", "1"], bare=False)
@example(num=[3, 0.5, 1e3], den=[True, 1], bare=False)
@example(num=["0", "-0"], den=["1", "1"], bare=False)
@example(num=["1", "1"], den=["0", "-0"], bare=False)
def test_map_from_json_matches_the_polynomial_loader(num, den, bare):
    if bare:
        obj = {"coeffs": num}
    else:
        obj = {"num": {"coeffs": num}} | ({} if den is None else {"den": {"coeffs": den}})
    assert _loaded(map_from_json, obj) == _loaded(map_from_json_via_polynomials, obj)


def test_report_json_and_csv_shape():
    cfg = GcdSeriesConfig(X2, X2, 125, 25, 1, 1, n_max=3)
    rep = gcd_series(cfg)
    manifest = build_manifest("gcd-series", {"demo": True}, seed=0)
    blob = report_to_dict(rep, manifest)
    assert blob["manifest"]["created"] == "1970-01-01T00:00:00Z"
    assert [row["n"] for row in blob["rows"]] == [0, 1, 2, 3]
    assert blob["rows"][1]["gcd"] == "24"
    csv_text = report_to_csv(rep)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "n,digits_f,digits_g,gcd,log_gcd,ratio,hgcd_fin,hgcd_S,flags"
    assert lines[2].startswith("1,5,3,24,")


def test_csv_elides_huge_gcds():
    cfg = GcdSeriesConfig(X2, X2, 125, 25, 1, 1, n_max=3)
    rep = gcd_series(cfg)
    text = report_to_csv(rep, gcd_digit_threshold=2)
    line3 = text.strip().splitlines()[4]
    assert "elided:digits=6" in line3     # gcd 390624 has 6 digits


def test_json_elides_huge_gcds_to_digit_counts():
    cfg = GcdSeriesConfig(X2, X2, 125, 25, 1, 1, n_max=3)
    rep = gcd_series(cfg)
    manifest = build_manifest("gcd-series", {})
    blob = report_to_dict(rep, manifest, gcd_digit_threshold=3)
    assert blob["rows"][1]["gcd"] == "24"
    assert blob["rows"][2]["gcd"] == {"elided": True, "digits": 3}
    assert blob["rows"][3]["gcd"] == {"elided": True, "digits": 6}


def test_cli_surface_ample(capsys):
    code, out, err = run_cli(capsys, ["surface", "ample", "--s", "4", "--N", "5"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ample"] is True
    assert payload["A_selfintersection"] == "46/25"
    code, out, _ = run_cli(capsys, ["surface", "ample", "--s", "5", "--N", "5"])
    assert json.loads(out)["ample"] is False


def test_cli_surface_intersect(capsys):
    code, out, _ = run_cli(capsys, [
        "surface", "intersect", "--s", "2",
        "--d1", "1,1:1/5,1/5", "--d2", "0,0:-1,0",
    ])
    assert code == 0
    assert json.loads(out)["intersection"] == "1/5"
    # a divisor needs both a and b
    code, out, err = run_cli(capsys, [
        "surface", "intersect", "--s", "2", "--d1", "1", "--d2", "0,0:-1,0",
    ])
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "invalid-input",
                               "message": "divisor '1': expected 'a,b[:m1,...]'"}


def test_cli_hgcd_decimal(capsys):
    code, out, _ = run_cli(capsys, ["hgcd", "-x", "12", "-y", "18"])
    assert code == 0
    payload = json.loads(out)
    assert payload["hgcd"]["finite_str"] == "log 2 + log 3"
    assert abs(payload["hgcd"]["total"] - 1.7917594692) < 1e-9
    code, out, _ = run_cli(capsys, ["hgcd", "-x", "12", "-y", "18",
                                    "--exclude", "2,3"])
    assert json.loads(out)["hgcd"]["finite"] == {}


def test_cli_hgcd_fin_drops_the_archimedean_part(capsys):
    # 5/12 and 10/21 are both near 0: log 5 at the finite places, and
    # log min(12/5, 21/10) = log(21/10) at the archimedean place
    code, out, _ = run_cli(capsys, ["hgcd", "-x", "5/12", "-y", "10/21", "--fin"])
    assert code == 0
    payload = json.loads(out)["hgcd"]
    assert payload["arch"] == 0.0 and payload["finite"] == {"5": "1"}
    code, out, _ = run_cli(capsys, ["hgcd", "-x", "5/12", "-y", "10/21"])
    payload = json.loads(out)["hgcd"]
    assert abs(payload["arch"] - 0.7419373447) < 1e-9 and payload["finite"] == {"5": "1"}


def test_cli_gcd_series_and_round_trip(capsys, map_file, tmp_path):
    x2 = map_file("x2.json", {"coeffs": ["0", "0", "1"]})
    out_path = str(tmp_path / "report.json")
    code, _, _ = run_cli(capsys, [
        "gcd-series", "--f", x2, "--g", x2, "-a", "125", "-b", "25",
        "--alpha", "1", "--beta", "1", "--max-n", "3", "--out", out_path,
    ])
    assert code == 0
    blob = json.loads(Path(out_path).read_text())
    assert [row["gcd"] for row in blob["rows"]] == ["4", "24", "624", "390624"]
    # the config echo parses back to the same map
    assert map_from_json(blob["manifest"]["config"]["f"]) == X2
    # determinism: identical manifest implies identical bytes in test mode
    out2 = str(tmp_path / "report2.json")
    run_cli(capsys, [
        "gcd-series", "--f", x2, "--g", x2, "-a", "125", "-b", "25",
        "--alpha", "1", "--beta", "1", "--max-n", "3", "--out", out2,
    ])
    assert Path(out_path).read_bytes() == Path(out2).read_bytes()


def test_cli_gcd_series_csv_and_plot_data(capsys, map_file, tmp_path):
    x2 = map_file("x2.json", {"coeffs": ["0", "0", "1"]})
    plot = str(tmp_path / "plot.txt")
    code, out, _ = run_cli(capsys, [
        "gcd-series", "--f", x2, "--g", x2, "-a", "125", "-b", "25",
        "--alpha", "1", "--beta", "1", "--max-n", "2", "--format", "csv",
        "--plot-data", plot,
    ])
    assert code == 0
    assert out.splitlines()[0].startswith("n,digits_f")
    lines = Path(plot).read_text().strip().splitlines()
    assert len(lines) == 3 and lines[0].startswith("0 ")


def test_cli_iterate_and_heights(capsys, map_file):
    x2 = map_file("x2.json", {"coeffs": ["0", "0", "1"]})
    code, out, _ = run_cli(capsys, ["iterate", "--map", x2, "--start", "125",
                                    "--steps", "2"])
    assert code == 0
    assert json.loads(out)["orbit"] == ["125", "15625", "244140625"]
    code, out, _ = run_cli(capsys, ["height", "-x", "3/2"])
    assert abs(json.loads(out)["height"] - math.log(3)) < 1e-12
    code, out, _ = run_cli(capsys, ["canonical-height", "--map", x2,
                                    "--point", "3", "--tol", "1e-9"])
    payload = json.loads(out)
    assert abs(payload["value"] - math.log(3)) < 1e-9
    assert payload["error_bound"] <= 1e-9


def test_cli_iterate_past_the_int_str_limit(capsys, map_file):
    # x^2 + 1/3 from 1/2: the 13th value has more than 4300 digits
    third = map_file("third.json", {"coeffs": ["1/3", "0", "1"]})
    code, out, err = run_cli(capsys, ["iterate", "--map", third,
                                      "--start", "1/2", "--steps", "13"])
    assert code == 0, err
    orbit = [Fraction(1, 2)]
    for _ in range(13):
        orbit.append(orbit[-1] ** 2 + Fraction(1, 3))
    assert digit_count(orbit[-1].denominator) > sys.get_int_max_str_digits()
    with unlimited_str_digits():
        assert [Fraction(p) for p in json.loads(out)["orbit"]] == orbit


def test_cli_iterate_from_a_rational_past_the_int_str_limit(capsys, map_file):
    x2 = map_file("x2.json", {"coeffs": ["0", "0", "1"]})
    start = Fraction(10**5000 + 1, 3 * 10**4999 + 1)
    code, out, err = run_cli(capsys, ["iterate", "--map", x2, "--start",
                                      rational_to_str(start), "--steps", "1"])
    assert code == 0, err
    orbit = json.loads(out)["orbit"]
    assert [rational_from_str(p) for p in orbit] == [start, start**2]


def test_cli_classify_subcommands(capsys, map_file):
    x2 = map_file("x2.json", {"coeffs": ["0", "0", "1"]})
    x3x = map_file("x3x.json", {"coeffs": ["0", "1", "0", "1"]})
    minus_x = map_file("minus_x.json", {"coeffs": ["0", "-1"]})
    cheb = map_file("cheb.json", {"coeffs": ["-2", "0", "1"]})
    code, out, _ = run_cli(capsys, ["classify", "exceptional", "--map", x2,
                                    "--point", "0"])
    assert json.loads(out)["exceptional"] is True
    code, out, _ = run_cli(capsys, ["classify", "preperiodic", "--map", x2,
                                    "--point", "1"])
    assert json.loads(out)["preperiodic"] is True
    code, out, _ = run_cli(capsys, ["classify", "mult-indep", "-a", "125",
                                    "-b", "25"])
    assert json.loads(out)["multiplicatively_independent"] is False
    code, out, _ = run_cli(capsys, ["classify", "special", "--poly", cheb])
    assert json.loads(out)["tag"] == "chebyshev"
    code, out, _ = run_cli(capsys, ["classify", "commutes", "--h", minus_x,
                                    "--f", x3x, "--k-max", "2"])
    assert json.loads(out)["commutes_at"] == 1


def test_cli_probe_genericity(capsys, map_file):
    x3x = map_file("x3x.json", {"coeffs": ["0", "1", "0", "1"]})
    code, out, _ = run_cli(capsys, [
        "probe-genericity", "--f", x3x, "--g", x3x, "-a", "1", "-b", "-1",
        "--deg-max", "1", "--points", "8",
    ])
    assert code == 0
    relation = json.loads(out)["relation"]
    assert relation["monomials"] == {"0,1": "1", "1,0": "1"}


def test_cli_probe_with_no_finite_step_prints_the_line_at_infinity(capsys, map_file):
    # x^2 + 1 fixes oo: every step lies on the line x = oo, where the
    # constant 1, read as a form of bidegree (D, D), vanishes
    x2p1 = map_file("x2p1.json", {"coeffs": ["1", "0", "1"]})
    x2m1 = map_file("x2m1.json", {"coeffs": ["-1", "0", "1"]})
    for deg_max, points in (("1", "8"), ("2", "12")):
        code, out, _ = run_cli(capsys, [
            "probe-genericity", "--f", x2p1, "--g", x2m1, "-a", "oo", "-b", "2",
            "--deg-max", deg_max, "--points", points,
        ])
        assert code == 0
        relation = json.loads(out)["relation"]
        assert relation["monomials"] == {"0,0": "1"}
        assert (relation["degree_bound"], relation["points_tested"]) == (int(deg_max),
                                                                          int(points))


def test_cli_choose_depth_and_exit_codes(capsys, map_file):
    x2 = map_file("x2.json", {"coeffs": ["0", "0", "1"]})
    code, out, _ = run_cli(capsys, [
        "choose-depth", "--f", x2, "--g", x2, "-a", "3", "-b", "2",
        "--alpha", "1", "--beta", "1", "--epsilon", "0.1",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["depth"] == 8 and payload["certificate"]["replays"] is True
    # hypothesis violation: exceptional alpha
    code, _, err = run_cli(capsys, [
        "choose-depth", "--f", x2, "--g", x2, "-a", "3", "-b", "2",
        "--alpha", "0", "--beta", "1", "--epsilon", "0.1",
    ])
    assert code == 3
    assert json.loads(err)["error"] == "hypothesis-violation"


def test_cli_choose_depth_writes_a_long_m_prime_as_digits(capsys, map_file):
    # x^19 (x - 20) at 0 has a fixed critical point of index 19, so M' = 19^D
    # at D = 4554, past the 4300 digits json writes and reads as a number
    f = map_file("slow.json", {"coeffs": ["0"] * 19 + ["-20", "1"]})
    code, out, _ = run_cli(capsys, [
        "choose-depth", "--f", f, "--g", f, "-a", "0", "-b", "0",
        "--alpha", "0", "--beta", "0", "--epsilon", "1e-100",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["depth"] == 4554 and payload["certificate"]["replays"] is True
    assert payload["m_prime"] == payload["certificate"]["m_prime"] == int_to_str(19**4554)


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_cli_non_finite_epsilon_and_tol_exit_2(capsys, map_file, tmp_path, value):
    x2p1 = map_file("x2p1.json", {"coeffs": ["1", "0", "1"]})
    report = str(tmp_path / "rep.json")
    code, _, _ = run_cli(capsys, ["gcd-series", "--f", x2p1, "--g", x2p1, "-a", "1",
                                  "-b", "2", "--alpha", "0", "--beta", "0",
                                  "--max-n", "3", "--out", report])
    assert code == 0
    pair = ["--f", x2p1, "--g", x2p1, "-a", "3", "-b", "2", "--alpha", "1", "--beta", "1"]
    for argv in (["choose-depth", *pair, "--epsilon", value],
                 ["ap-structure", "--report", report, "--eta", value],
                 ["canonical-height", "--map", x2p1, "--point", "3", "--tol", value]):
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "invalid-input"
    # gcd-series takes no epsilon at all
    with pytest.raises(SystemExit) as exc:
        dispatch(["gcd-series", *pair, "--max-n", "3", "--epsilon", value])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert json.loads(captured.err)["error"] == "usage"


@pytest.mark.parametrize("flag", [["--epsilon", "0.1"], ["--seed", "1"]])
def test_cli_gcd_series_has_no_epsilon_or_seed(capsys, map_file, flag):
    x2 = map_file("x2.json", {"coeffs": ["0", "0", "1"]})
    argv = ["gcd-series", "--f", x2, "--g", x2, "-a", "125", "-b", "25",
            "--alpha", "1", "--beta", "1", "--max-n", "3"]
    code, out, _ = run_cli(capsys, argv)
    manifest = json.loads(out)["manifest"]
    assert code == 0 and manifest["seed"] is None
    assert not {"epsilon", "seed"} & set(manifest["config"])
    with pytest.raises(SystemExit) as exc:
        dispatch(argv + flag)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert json.loads(captured.err)["error"] == "usage"


GCD_SERIES = ["gcd-series", "--f", "x2.json", "--g", "x2.json", "--max-n", "4", "-a", "3"]
CHOOSE_DEPTH = ["choose-depth", "--f", "x2.json", "--g", "x2.json", "--epsilon", "0.1",
                "-a", "3"]
NEGATIVE_VALUES = [
    (GCD_SERIES + ["-b", "2", "--alpha", "1"], "--beta", "-3/4"),
    (GCD_SERIES + ["--alpha", "1", "--beta", "1"], "-b", "-1/2"),
    (GCD_SERIES + ["-b", "2", "--beta", "1"], "--alpha", "-1e-1"),
    (["height"], "-x", "-1024/3"),
    (["hgcd", "-x", "5/3"], "-y", "-10/7"),
    (["canonical-height", "--map", "x2.json", "--tol", "1e-20"], "--point", "-1/2"),
    (["iterate", "--map", "x2.json", "--steps", "3"], "--start", "-.5"),
    (["classify", "mult-indep", "-b", "4"], "-a", "-2/3"),
    # every call builds only the subparser it runs; values stay values there
    (GCD_SERIES + ["--alpha", "1", "--beta", "1"], "-b", "-2/3"),
    (GCD_SERIES + ["-b", "2", "--beta", "1"], "--alpha", "-1"),
    (CHOOSE_DEPTH + ["-b", "2", "--alpha", "1"], "--beta", "-3/4"),
    (CHOOSE_DEPTH + ["-b", "2", "--beta", "1"], "--alpha", "-1"),
    (CHOOSE_DEPTH + ["--alpha", "1", "--beta", "1"], "-b", "-2/3"),
    (["iterate", "--map", "x2.json", "--steps", "3"], "--start", "-1/2"),
    (["canonical-height", "--map", "x2.json"], "--point", "-3"),
]


@pytest.mark.parametrize("argv,option,value", NEGATIVE_VALUES)
def test_cli_negative_rational_as_its_own_argument(capsys, map_file, monkeypatch, tmp_path,
                                                   argv, option, value):
    map_file("x2.json", {"coeffs": ["0", "0", "1"]})
    monkeypatch.chdir(tmp_path)
    outputs = []
    for tail in ([option, value], [f"{option}={value}"]):
        code, out, err = run_cli(capsys, argv + tail)
        assert code == 0 and err == "", (tail, err)
        outputs.append(out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv", [["height", "-x", "3", "--bogus"],
                                  ["height", "-x", "-3/4", "-q"],
                                  ["height", "-x", "-3/4", "-q", "-1/2"],
                                  ["hgcd", "-x", "-1/2", "-z", "3"]])
def test_cli_unknown_option_still_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        dispatch(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert json.loads(captured.err)["error"] == "usage"


COMMANDS = ["gcd-series", "height", "canonical-height", "hgcd", "iterate", "classify",
            "probe-genericity", "surface", "choose-depth", "ap-structure"]
NESTED = {"classify": ["exceptional", "preperiodic", "mult-indep", "special", "commutes"],
          "surface": ["intersect", "ample"]}


def test_cli_help_lists_every_command(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        dispatch(["-h"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert re.findall(r"^    (\S+)  ", out, re.M) == COMMANDS
    # the description is the user-facing part of the module docstring only
    assert "Every subcommand prints one JSON object" in out
    assert "_COMMANDS" not in out


@pytest.mark.parametrize("argv", [[name, "-h"] for name in COMMANDS]
                         + [[name, sub, "-h"] for name, subs in NESTED.items()
                            for sub in subs], ids=" ".join)
def test_cli_every_command_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        dispatch(argv)
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert out.startswith("usage: orbitgcd " + " ".join(argv[:-1]) + " [-h]")
    if len(argv) == 2:
        assert all(sub in out for sub in NESTED.get(argv[0], []))


def _choices_unquoted(message):
    # newer Pythons (3.13 among them) list an invalid choice's alternatives
    # without quotes; everything else in these messages is the same
    head, sep, tail = message.partition(" (choose from ")
    return head + sep + tail.replace("'", "")


PAIR = ["--f", "f.json", "--g", "g.json", "-a", "1", "-b", "2", "--alpha", "1", "--beta", "1"]
USAGE_ERRORS = [
    ([], "the following arguments are required: command"),
    (["bogus"], "argument command: invalid choice: 'bogus' (choose from 'gcd-series', "
     "'height', 'canonical-height', 'hgcd', 'iterate', 'classify', 'probe-genericity', "
     "'surface', 'choose-depth', 'ap-structure')"),
    (["gcd-series"], "the following arguments are required: --f, --g, -a, -b, --alpha, "
     "--beta, --max-n"),
    (["choose-depth", *PAIR[2:], "--epsilon", "0.1"],
     "the following arguments are required: --f"),
    (["gcd-series", *PAIR, "--max-n", "x"], "argument --max-n: invalid int value: 'x'"),
    (["classify"], "the following arguments are required: classify_command"),
    (["classify", "bogus"], "argument classify_command: invalid choice: 'bogus' (choose "
     "from 'exceptional', 'preperiodic', 'mult-indep', 'special', 'commutes')"),
    (["surface", "bogus"], "argument surface_command: invalid choice: 'bogus' (choose "
     "from 'intersect', 'ample')"),
    (["choose-depth", *PAIR, "--epsilon", "x"], "argument --epsilon: invalid float value: 'x'"),
    (["height", "-x", "3", "extra"], "unrecognized arguments: extra"),
]


@pytest.mark.parametrize("argv,message", USAGE_ERRORS)
def test_cli_usage_error_messages(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        dispatch(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    error = json.loads(captured.err)
    assert error["error"] == "usage"
    assert error["message"] in (message, _choices_unquoted(message))


def test_cli_builds_only_the_parsers_it_runs(capsys, map_file, monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    x2 = map_file("x2.json", {"coeffs": ["0", "0", "1"]})
    x2p1 = map_file("x2p1.json", {"coeffs": ["1", "0", "1"]})
    argv = ["choose-depth", "--f", x2p1, "--g", x2p1, "-a", "3", "-b", "2",
            "--alpha", "1", "--beta", "1", "--epsilon", "0.1"]
    # a command parses on its own parser, nested ones included
    assert run_cli(capsys, argv)[0] == 0
    assert len(built) == 1
    # a repeat parses with the parser the first call built
    built.clear()
    assert run_cli(capsys, argv)[0] == 0
    assert len(built) == 0
    assert run_cli(capsys, ["classify", "exceptional", "--map", x2, "--point", "0"])[0] == 0
    assert len(built) == 1
    # help builds them all: the top level, ten commands and seven nested ones;
    # the second help builds none and prints the same bytes
    helps = []
    for count in (18, 0):
        built.clear()
        with pytest.raises(SystemExit) as exc:
            dispatch(["-h"])
        helps.append(capsys.readouterr().out)
        assert exc.value.code == 0 and len(built) == count
    assert helps[0] == helps[1]


def _table_paths(commands=cli._COMMANDS, prefix=()):
    """Every command path in the table, nested ones included."""
    for name, command in commands.items():
        yield prefix + (name,)
        if isinstance(command.run, dict):
            yield from _table_paths(command.run, prefix + (name,))


def _root_parse(argv):
    return cli._build_parser(()).parse_args(argv)


@pytest.mark.parametrize("argv", [*CASES.values(), *_command_argvs()])
def test_cli_leaf_parse_gives_the_root_namespace(argv):
    root, leaf = vars(_root_parse(argv)), vars(cli._parse(argv))
    assert root.pop("command") == argv[0]
    assert {k: v for k, v in root.items() if not k.endswith("_command")} == leaf


def _exit(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", [["-h"], *([*path, "-h"] for path in _table_paths()),
                                  *(argv for argv, _ in USAGE_ERRORS)], ids=" ".join)
def test_cli_leaf_help_and_usage_errors_match_the_root_parser(capsys, argv):
    assert _exit(capsys, cli._parse, argv) == _exit(capsys, _root_parse, argv)


def test_cli_parser_memo_holds_one_parser_per_table_path(capsys):
    paths = list(_table_paths())
    assert len(paths) == len(COMMANDS) + sum(map(len, NESTED.values()))
    for i in range(1000):
        for argv in ([f"bogus-{i}"], ["classify", f"bogus-{i}"], ["surface", f"bogus-{i}"]):
            with pytest.raises(SystemExit) as exc:
                dispatch(argv)
            assert exc.value.code == 2
    capsys.readouterr()
    # the empty path, for argv that names no command, is the one more
    assert cli._build_parser.cache_info().currsize <= len(paths) + 1


def test_cli_indeterminate_is_labelled_as_itself(capsys, map_file, monkeypatch):
    def undecided(*args, **kwargs):
        raise IndeterminateError("neither outcome certified")

    monkeypatch.setattr(cli, "probe_genericity", undecided)
    x2 = map_file("x2.json", {"coeffs": ["0", "0", "1"]})
    code, out, err = run_cli(capsys, ["probe-genericity", "--f", x2, "--g", x2, "-a", "3",
                                      "-b", "2", "--deg-max", "1", "--points", "4"])
    assert code == 4 and out == ""
    assert json.loads(err) == {"error": "indeterminate",
                               "message": "neither outcome certified"}


@pytest.mark.parametrize("err, message", [(MemoryError(), "memory ran out"),
                                          (MemoryError("no room"), "memory ran out: no room")])
def test_cli_memory_error_is_budget_exhaustion(capsys, monkeypatch, err, message):
    def exhausted(*args, **kwargs):
        raise err

    monkeypatch.setattr(cli, "mult_indep", exhausted)
    code, out, stderr = run_cli(capsys, ["classify", "mult-indep", "-a", "2", "-b", "3"])
    assert code == 4 and out == ""
    assert json.loads(stderr) == {"error": "budget-exhausted", "message": message}


def test_cli_special_form_huge_coefficient(capsys, map_file):
    # 10^400 x^2: a float root estimate overflows; x -> 10^400 x is the witness
    poly = map_file("big.json", {"coeffs": ["0", "0", str(10**400)]})
    code, out, _ = run_cli(capsys, ["classify", "special", "--poly", poly])
    assert code == 0
    payload = json.loads(out)
    assert payload["tag"] == "power" and payload["caveat"] is False
    p, q, r, s = (rational_from_str(payload["witness"][k]) for k in "pqrs")
    sigma = RationalMap([q, p], [s, r])           # x -> (p x + q) / (r x + s)
    assert conjugate(RationalMap([0, 0, 10**400]), sigma) == X2


def test_cli_usage_and_budget_exit_codes(capsys, map_file, tmp_path):
    x2 = map_file("x2.json", {"coeffs": ["0", "0", "1"]})
    # invalid input -> 2
    code, _, err = run_cli(capsys, ["hgcd", "-x", "0", "-y", "0"])
    assert code == 2 and json.loads(err)["error"] == "invalid-input"
    # unknown subcommand -> SystemExit(2) from argparse
    with pytest.raises(SystemExit) as exc:
        dispatch(["bogus"])
    assert exc.value.code == 2
    capsys.readouterr()
    # budget exhaustion -> 4
    os.environ["ORBITGCD_DIGIT_BUDGET"] = "50"
    try:
        code, _, err = run_cli(capsys, ["iterate", "--map", x2, "--start",
                                        "125", "--steps", "30"])
    finally:
        del os.environ["ORBITGCD_DIGIT_BUDGET"]
    assert code == 4 and json.loads(err)["error"] == "budget-exhausted"
    # missing file -> 2
    code, _, err = run_cli(capsys, ["iterate", "--map",
                                    str(tmp_path / "nope.json"),
                                    "--start", "1", "--steps", "1"])
    assert code == 2


def test_cli_commutes_under_the_degree_budget(capsys, map_file, monkeypatch):
    # -x commutes with x^3 + x at k = 1, where h o f is already past degree 2
    argv = ["classify", "commutes", "--h", map_file("h.json", {"coeffs": ["0", "-1"]}),
            "--f", map_file("f.json", {"coeffs": ["0", "1", "0", "1"]}), "--k-max", "2"]
    monkeypatch.setenv("ORBITGCD_DEGREE_BUDGET", "2")
    code, out, err = run_cli(capsys, argv)
    assert code == 4 and out == ""
    assert json.loads(err) == {"error": "budget-exhausted",
                               "message": "symbolic degree 3 exceeds budget at k=1"}
    monkeypatch.delenv("ORBITGCD_DEGREE_BUDGET")
    code, out, _ = run_cli(capsys, argv)
    assert code == 0 and json.loads(out)["commutes_at"] == 1


MALFORMED_FILES = [
    (["iterate", "--start", "1", "--steps", "1", "--map"], {"coeffs": 5}),
    (["iterate", "--start", "1", "--steps", "1", "--map"], {"coeffs": "123"}),
    (["iterate", "--start", "1", "--steps", "1", "--map"], {"num": {"coeffs": None}}),
    (["iterate", "--start", "1", "--steps", "1", "--map"], ["0", "0", "1"]),
    (["iterate", "--start", "1", "--steps", "1", "--map"], {}),
    (["classify", "special", "--poly"], {"coeffs": {"0": 1}}),
    (["ap-structure", "--eta", "0.3", "--report"], {}),
    (["ap-structure", "--eta", "0.3", "--report"], [1]),
    (["ap-structure", "--eta", "0.3", "--report"],
     {"degree": 2, "last_n": 3, "rows": [{"log_gcd": 1.0}]}),
    (["ap-structure", "--eta", "0.3", "--report"],
     {"degree": 2, "last_n": 3, "rows": [{"n": 1, "log_gcd": "big"}]}),
    (["ap-structure", "--eta", "0.3", "--report"], {"degree": "2", "last_n": 3, "rows": []}),
    # a row index outside [0, last_n] (d**n for n = 100000 overflowed a float)
    (["ap-structure", "--eta", "0.3", "--report"],
     {"degree": 2, "last_n": 3, "rows": [{"n": 100000, "log_gcd": 1.0}]}),
    (["ap-structure", "--eta", "0.3", "--report"],
     {"degree": 2, "last_n": 3, "rows": [{"n": -1, "log_gcd": 1.0}]}),
    # json writes these as Infinity and NaN, which json.load reads back
    (["ap-structure", "--eta", "0.3", "--report"],
     {"degree": 2, "last_n": 3, "rows": [{"n": 0, "log_gcd": math.inf}]}),
    (["ap-structure", "--eta", "0.3", "--report"],
     {"degree": 2, "last_n": 3, "rows": [{"n": 2, "log_gcd": math.nan}]}),
    # a gcd-series report is of a map of degree >= 2
    (["ap-structure", "--eta", "0.3", "--report"], {"degree": 0, "last_n": 3, "rows": []}),
    (["ap-structure", "--eta", "0.3", "--report"],
     {"degree": -2, "last_n": 3, "rows": [{"n": 1, "log_gcd": 1.0}]}),
]


@pytest.mark.parametrize("argv,content", MALFORMED_FILES)
def test_cli_malformed_json_files_exit_2(capsys, map_file, argv, content):
    code, out, err = run_cli(capsys, [*argv, map_file("bad.json", content)])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "invalid-input"


def test_cli_ap_structure_pipeline(capsys, map_file, tmp_path):
    x3x = map_file("x3x.json", {"coeffs": ["0", "1", "0", "1"]})
    report = str(tmp_path / "rep.json")
    run_cli(capsys, [
        "gcd-series", "--f", x3x, "--g", x3x, "-a", "2", "-b", "-2",
        "--alpha", "1", "--beta", "-1", "--max-n", "6", "--out", report,
    ])
    code, out, _ = run_cli(capsys, ["ap-structure", "--report", report,
                                    "--eta", "0.3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["label"] == "window-consistent"
    assert {"start": 1, "step": 1} in payload["progressions"] or \
        payload["progressions"][0]["step"] == 1
    # the selection rule's eta > 0 check applies to the CLI too
    for eta in ("0", "-1"):
        code, out, err = run_cli(capsys, ["ap-structure", "--report", report,
                                          "--eta", eta])
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "invalid-input"


def test_cli_ap_structure_at_indices_past_the_float_range(capsys, map_file):
    # 2**2000 does not convert to a float; log_gcd >= eta * 2**n is decided
    # exactly, in rationals
    eta = 1e-300
    rows = [{"n": 5, "log_gcd": 2.0}, {"n": 6, "log_gcd": 0.5},
            {"n": 1100, "log_gcd": 1e32}, {"n": 1100, "log_gcd": 1e31},
            {"n": 2000, "log_gcd": 1e303}, {"n": 1999, "log_gcd": 1e300},
            {"n": 1998, "log_gcd": None}]
    report = map_file("rep.json", {"degree": 2, "last_n": 2000, "rows": rows})
    code, out, _ = run_cli(capsys, ["ap-structure", "--report", report,
                                    "--eta", repr(eta)])
    assert code == 0
    want = [row["n"] for row in rows if row["log_gcd"] is not None
            and Fraction(row["log_gcd"]) >= Fraction(eta) * 2 ** row["n"]]
    assert want == [5, 6, 1100, 2000]
    assert json.loads(out)["indices"] == want
