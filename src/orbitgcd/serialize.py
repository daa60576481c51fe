"""Stable machine-readable formats: rational strings, polynomial and map
JSON files, run manifests, and gcd-series report emission (JSON and CSV).

Integers of any size print without the interpreter's int-to-string digit
limit: ``str`` below 3600 digits, the system GMP's conversion above
(bound through ctypes on first use), or a divide-and-conquer routine where
no libgmp loads; the digits are the same either way.

Rationals travel as decimal strings "num/den" (or "num"); polynomials as
{"coeffs": ["c0", "c1", ...]} ascending; rational maps as {"num": {...},
"den": {...}} with the denominator optional.  Every emitted report embeds
its manifest; with ORBITGCD_TEST_MODE set, timestamps are normalized so
identical manifests produce identical bytes.
"""

from __future__ import annotations

import csv
import datetime
import io
import json
import os
import re
from fractions import Fraction

from . import __version__, _gmp
from .errors import DomainError
from .experiments import GcdSeriesConfig, GcdSeriesReport
from .maps import DEFAULT_ORBIT_DIGIT_BUDGET, ProjPoint, RationalMap, digit_count
from .polys import Polynomial

JSON_ELIDE_DIGITS = 10**6
CSV_ELIDE_DIGITS = 10**4

# str() stops at 4300 digits by default (sys.int_max_str_digits); larger
# integers are split by powers of ten into chunks below that limit
_CHUNK_DIGITS = 3600
_CHUNK = 10**_CHUNK_DIGITS


def int_to_str(n: int) -> str:
    """Decimal digits of an integer of any size: ``str(n)`` below about
    3600 digits, the system GMP's conversion above, or without libgmp
    :func:`_digits_by_division` (no interpreter limit and no process-wide
    setting involved either way).

    >>> int_to_str(-10**5000) == "-1" + "0" * 5000
    True
    """
    if n < 0:
        return "-" + int_to_str(-n)
    if n < _CHUNK:
        return str(n)
    digits = _gmp.decimal(n)
    return _digits_by_division(n) if digits is None else digits


def _digits_by_division(n: int) -> str:
    """Decimal digits of an integer n >= 10^3600, divide and conquer by
    divmod against 10^(3600 * 2^j) (quadratic in the size of n)."""
    powers = [_CHUNK]                 # powers[j] = 10**(3600 * 2**j) <= n
    while powers[-1] ** 2 <= n:
        powers.append(powers[-1] ** 2)

    def digits(m: int, j: int, pad: bool) -> str:
        # m < powers[j]**2; with pad, zero-filled to 3600 * 2**(j+1) digits
        if j < 0:
            return str(m).zfill(_CHUNK_DIGITS) if pad else str(m)
        if not pad and m < powers[j]:
            return digits(m, j - 1, False)
        high, low = divmod(m, powers[j])
        return digits(high, j - 1, pad) + digits(low, j - 1, True)

    return digits(n, len(powers) - 1, False)


def rational_to_str(x, den: int = 1) -> str:
    """The string "num/den" ("num" when den is 1) of a rational x, or of
    the int x over a positive den coprime to it."""
    if not isinstance(x, int):
        x = Fraction(x) / den
        x, den = x.numerator, x.denominator
    if den == 1:
        return int_to_str(x)
    return f"{int_to_str(x)}/{int_to_str(den)}"


def int_from_digits(digits: str) -> int:
    """The integer of a string of ASCII decimal digits of any length, the
    mirror of :func:`int_to_str`: ``int`` up to 3600 digits, above that
    high * 10^(3600 * 2^j) + low, divide and conquer (no interpreter limit
    and no process-wide setting involved).

    >>> int_from_digits("1" * 5000) == (10**5000 - 1) // 9
    True
    """
    powers = [_CHUNK]                 # powers[j] = 10**(3600 * 2**j)
    while _CHUNK_DIGITS << len(powers) < len(digits):
        powers.append(powers[-1] ** 2)

    def value(s: str, j: int) -> int:
        # len(s) <= 3600 * 2**(j+1)
        if j < 0:
            return int(s)
        k = _CHUNK_DIGITS << j
        if len(s) <= k:
            return value(s, j - 1)
        return value(s[:-k], j - 1) * powers[j] + value(s[-k:], j - 1)

    return value(digits, len(powers) - 1)


# sign, integer digits, then a denominator, or a fraction part and exponent
_RATIONAL = re.compile(r"([+-]?)(?=\.?[0-9])([0-9]*)"
                       r"(?:/([0-9]+)|(?:\.([0-9]*))?(?:[eE]([+-]?[0-9]+))?)")
# the exponent of a form only ``Fraction`` reads (digits grouped with underscores)
_EXPONENT = re.compile(r"[eE]([+-]?[0-9_]+)$")


def _check_shift(shift: int) -> int:
    """``shift``, unless 10^|shift| has more digits than an orbit may
    (``maps.DEFAULT_ORBIT_DIGIT_BUDGET``): building that power alone takes
    12 s at 10^7 digits on a 2-core Xeon VM, and longer above, so it is
    refused as a parse error."""
    if abs(shift) >= DEFAULT_ORBIT_DIGIT_BUDGET:
        raise ValueError(f"10^{abs(shift)} has more than {DEFAULT_ORBIT_DIGIT_BUDGET} digits")
    return shift


def _clip(text: str, limit: int) -> str:
    """``text`` cut to ``limit`` characters, with its length when cut."""
    if len(text) <= limit:
        return text
    return f"{text[:limit]}... ({len(text)} characters)"


def rational_from_str(text: str) -> Fraction:
    """A rational from "p", "p/q" or "p.q" with an optional exponent
    ("-1.25e-3"; digit strings of any length), or any other form
    ``Fraction`` reads (digits grouped with underscores).  A power of ten
    of more than ``DEFAULT_ORBIT_DIGIT_BUDGET`` digits is a DomainError."""
    text = text.strip()
    try:
        m = _RATIONAL.fullmatch(text)
        if m is None:
            exp = _EXPONENT.search(text)
            _check_shift(int(exp.group(1)) if exp else 0)
            return Fraction(text)
        sign, whole, den, frac, exp = m.groups(default="")
        shift = _check_shift(int(exp or "0") - len(frac))
        num = int_from_digits(whole + frac or "0")    # value: num * 10^shift / den
        den = int_from_digits(den) if den else 1
        return Fraction((-num if sign == "-" else num) * 10**max(shift, 0),
                        den * 10**max(-shift, 0))
    except (ValueError, ZeroDivisionError) as err:
        raise DomainError(
            f"cannot parse rational from {_clip(text, 60)!r}: {_clip(str(err), 120)}"
        ) from err


def point_to_str(point: ProjPoint) -> str:
    return "oo" if point.is_infinity else rational_to_str(*point.pair())


def point_from_str(text: str) -> ProjPoint:
    text = text.strip()
    if text.lower() in ("oo", "inf", "infinity"):
        return ProjPoint.infinity()
    return ProjPoint(rational_from_str(text))


def poly_to_json(poly: Polynomial) -> dict:
    return {"coeffs": [rational_to_str(c) for c in poly.coeffs]}


def poly_from_json(obj: dict) -> Polynomial:
    if not isinstance(obj, dict) or not isinstance(obj.get("coeffs"), list):
        raise DomainError("polynomial JSON needs a 'coeffs' array")
    return Polynomial([rational_from_str(str(c)) for c in obj["coeffs"]])


def map_to_json(f: RationalMap) -> dict:
    out = {"num": poly_to_json(f.num)}
    if not (f.den.degree == 0 and f.den.coeff(0) == 1):
        out["den"] = poly_to_json(f.den)
    return out


def map_from_json(obj: dict) -> RationalMap:
    if not isinstance(obj, dict):
        raise DomainError("map JSON must be an object")
    if "coeffs" in obj:
        return RationalMap(poly_from_json(obj))
    if "num" not in obj:
        raise DomainError("map JSON needs 'num' (and optionally 'den')")
    den = poly_from_json(obj["den"]) if "den" in obj else None
    return RationalMap(poly_from_json(obj["num"]), den)


def load_map(path: str) -> RationalMap:
    with open(path, "r", encoding="utf-8") as fh:
        return map_from_json(json.load(fh))


def load_poly(path: str) -> Polynomial:
    with open(path, "r", encoding="utf-8") as fh:
        return poly_from_json(json.load(fh))


# --- manifests ---


def _timestamp() -> str:
    if os.environ.get("ORBITGCD_TEST_MODE"):
        return "1970-01-01T00:00:00Z"
    return (datetime.datetime.now(datetime.timezone.utc)
            .replace(microsecond=0).isoformat().replace("+00:00", "Z"))


def build_manifest(command: str, config: dict, seed: int | None = None,
                   budgets: dict | None = None) -> dict:
    return {
        "tool": "orbitgcd",
        "version": __version__,
        "command": command,
        "config": config,
        "seed": seed,
        "budgets": budgets or {},
        "created": _timestamp(),
    }


def config_echo(config: GcdSeriesConfig) -> dict:
    return {
        "f": map_to_json(config.f),
        "g": map_to_json(config.g),
        "a": point_to_str(config.a),
        "b": point_to_str(config.b),
        "alpha": rational_to_str(config.alpha),
        "beta": rational_to_str(config.beta),
        "n_max": config.n_max,
        "exclude": sorted(config.place_exclusions.primes),
        "digit_budget": config.digit_budget,
    }


# --- report emission ---


def _int_field(value: int | None, threshold: int) -> object:
    if value is None:
        return None
    digits = digit_count(value)
    if digits >= threshold:
        return {"elided": True, "digits": digits}
    return int_to_str(value)


def report_to_dict(report: GcdSeriesReport, manifest: dict,
                   gcd_digit_threshold: int = JSON_ELIDE_DIGITS) -> dict:
    rows = []
    for row in report.rows:
        rows.append({
            "n": row.n,
            "digits_f": row.digits_f,
            "digits_g": row.digits_g,
            "gcd": _int_field(row.gcd, gcd_digit_threshold),
            "log_gcd": row.log_gcd,
            "ratio": row.ratio,
            "hgcd_fin": row.hgcd_fin,
            "hgcd_S": row.hgcd_excluded,
            "flags": list(row.flags),
        })
    return {
        "manifest": manifest,
        "degree": report.degree,
        "truncated": report.truncated,
        "last_n": report.last_n,
        "ratio_summary": report.ratio_summary,
        "rows": rows,
    }


def report_to_json(report: GcdSeriesReport, manifest: dict) -> str:
    return json.dumps(report_to_dict(report, manifest), indent=2,
                      sort_keys=False) + "\n"


CSV_HEADER = ["n", "digits_f", "digits_g", "gcd", "log_gcd", "ratio",
              "hgcd_fin", "hgcd_S", "flags"]


def report_to_csv(report: GcdSeriesReport,
                  gcd_digit_threshold: int = CSV_ELIDE_DIGITS) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in report.rows:
        gcd_field = ""
        if row.gcd is not None:
            digits = digit_count(row.gcd)
            if digits >= gcd_digit_threshold:
                gcd_field = f"elided:digits={digits}:log={row.log_gcd}"
            else:
                gcd_field = int_to_str(row.gcd)
        writer.writerow([
            row.n,
            "" if row.digits_f is None else row.digits_f,
            "" if row.digits_g is None else row.digits_g,
            gcd_field,
            "" if row.log_gcd is None else repr(row.log_gcd),
            "" if row.ratio is None else repr(row.ratio),
            "" if row.hgcd_fin is None else repr(row.hgcd_fin),
            "" if row.hgcd_excluded is None else repr(row.hgcd_excluded),
            ";".join(row.flags),
        ])
    return buf.getvalue()


def plot_data(report: GcdSeriesReport) -> str:
    """Two-column (n, ratio) text for external plotting."""
    lines = [f"{row.n} {row.ratio!r}" for row in report.rows
             if row.ratio is not None]
    return "\n".join(lines) + "\n"
