"""CLI stdout pinned byte for byte under ORBITGCD_TEST_MODE=1.

The expected text lives in ``tests/golden/<case>.out``.  A change that is
meant to alter CLI output regenerates it on purpose with

    PYTHONPATH=src python tests/test_cli_golden.py

and the diff of ``tests/golden`` shows exactly which bytes moved.
"""

import contextlib
import io
import json
import os
import pathlib
import sys
import tempfile

import pytest

from orbitgcd import _gmp
from orbitgcd.cli import dispatch
from orbitgcd.serialize import int_from_digits

GOLDEN = pathlib.Path(__file__).parent / "golden"

# map and polynomial files, written under these names into the working
# directory, so manifests that echo a path echo the same bytes every run
FILES = {
    "x2.json": {"coeffs": ["0", "0", "1"]},
    "x2_third.json": {"coeffs": ["1/3", "0", "1"]},
    "x2_m2fifth.json": {"coeffs": ["-2/5", "0", "1"]},
    "newton.json": {"num": {"coeffs": ["1", "0", "1"]},   # (x^2+1)/(2x), Res = 4
                    "den": {"coeffs": ["0", "2"]}},
    "cheb.json": {"coeffs": ["-1", "0", "2"]},               # 2x^2 - 1
    "x3x.json": {"coeffs": ["0", "1", "0", "1"]},
    "cubic_f.json": {"coeffs": ["1", "0", "0", "1"]},
    "cubic_g.json": {"coeffs": ["-1", "1", "0", "1"]},
    "neg_x.json": {"coeffs": ["0", "-1"]},
    "x_plus_1.json": {"coeffs": ["1", "1"]},
    # x^3 conjugated by x -> 2x/3 + 1/2: 3/2 ((2x/3 + 1/2)^3 - 1/2)
    "cube_conj.json": {"coeffs": ["-9/16", "3/4", "1", "4/9"]},
}

CASES = {
    "gcd-series-integral-json": [
        "gcd-series", "--f", "x2.json", "--g", "x2.json", "-a", "125", "-b", "25",
        "--alpha", "1", "--beta", "1", "--max-n", "5", "--exclude", "2,3"],
    "gcd-series-integral-csv": [
        "gcd-series", "--f", "x2.json", "--g", "x2.json", "-a", "125", "-b", "25",
        "--alpha", "1", "--beta", "1", "--max-n", "4", "--format", "csv"],
    "gcd-series-rational-json": [
        "gcd-series", "--f", "x2_third.json", "--g", "x2_m2fifth.json",
        "-a", "1/2", "-b", "2/3", "--alpha", "0", "--beta", "1/3",
        "--max-n", "5", "--exclude", "3"],
    "iterate": ["iterate", "--map", "x2_third.json", "--start", "1/2",
                "--steps", "6"],
    "height": ["height", "-x", "22/7"],
    "hgcd": ["hgcd", "-x", "5/12", "-y", "10/21"],
    "canonical-height": ["canonical-height", "--map", "newton.json",
                         "--point", "3", "--tol", "1e-50"],
    "classify-special": ["classify", "special", "--poly", "cheb.json"],
    "classify-special-power": ["classify", "special", "--poly", "cube_conj.json"],
    "classify-commutes": ["classify", "commutes", "--h", "neg_x.json",
                          "--f", "x3x.json", "--k-max", "2"],
    "classify-commutes-none": ["classify", "commutes", "--h", "x_plus_1.json",
                               "--f", "x3x.json", "--k-max", "2"],
    "classify-exceptional": ["classify", "exceptional", "--map", "x2.json",
                             "--point", "0"],
    "probe-genericity": ["probe-genericity", "--f", "x3x.json", "--g", "x3x.json",
                         "-a", "1", "-b", "-1", "--deg-max", "1", "--points", "8"],
    "choose-depth-cubic": ["choose-depth", "--f", "cubic_f.json", "--g",
                           "cubic_g.json", "-a", "1", "-b", "2", "--alpha", "1",
                           "--beta", "1", "--epsilon", "0.1"],
}


def _write_files(directory: pathlib.Path) -> None:
    for name, obj in FILES.items():
        (directory / name).write_text(json.dumps(obj))


def _stdout(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = dispatch(argv)
    assert code == 0, argv
    return buf.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_stdout_matches_golden(case, tmp_path, monkeypatch):
    monkeypatch.setenv("ORBITGCD_TEST_MODE", "1")
    monkeypatch.chdir(tmp_path)
    _write_files(tmp_path)
    expected = (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
    assert _stdout(CASES[case]) == expected


def test_goldens_without_libgmp(tmp_path, monkeypatch):
    # the pure Python gcd and decimal conversion print the same bytes
    monkeypatch.setenv("ORBITGCD_TEST_MODE", "1")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(_gmp, "_load", lambda: None)
    _write_files(tmp_path)
    for case, argv in CASES.items():
        assert _stdout(argv) == (GOLDEN / f"{case}.out").read_text(encoding="utf-8"), case


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_deep_gcd_series_same_bytes_without_libgmp(fmt, tmp_path, monkeypatch):
    # rows 12 and 13 take their gcds past 2^14 bits, and row 13 prints a
    # 5,727-digit gcd, past the 3,600 digits where int_to_str without libgmp
    # leaves str()
    monkeypatch.setenv("ORBITGCD_TEST_MODE", "1")
    monkeypatch.chdir(tmp_path)
    _write_files(tmp_path)
    argv = ["gcd-series", "--f", "x2.json", "--g", "x2.json", "-a", "125", "-b", "25",
            "--alpha", "1", "--beta", "1", "--max-n", "13", "--format", fmt]
    out = _stdout(argv)
    if fmt == "json":
        last = json.loads(out)["rows"][-1]["gcd"]
    else:
        last = out.splitlines()[-1].split(",")[3]
    assert int_from_digits(last) == 5**8192 - 1
    monkeypatch.setattr(_gmp, "_load", lambda: None)
    assert _stdout(argv) == out


if __name__ == "__main__":
    os.environ["ORBITGCD_TEST_MODE"] = "1"
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        _write_files(pathlib.Path(tmp))
        for case, argv in CASES.items():
            (GOLDEN / f"{case}.out").write_text(_stdout(argv), encoding="utf-8")
            print(f"wrote {case}", file=sys.stderr)
