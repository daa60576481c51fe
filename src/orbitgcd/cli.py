"""Command-line front end.

Every subcommand prints one JSON object to stdout (or writes report files
via --out) and embeds a run manifest; its seed is null except under
probe-genericity, the one command that draws random numbers.  Only
choose-depth takes --epsilon.  Errors are emitted as JSON objects on
stderr with exit codes: 0 success, 2 usage or malformed input,
3 hypothesis violation, 4 budget exhaustion.

Environment overrides (optional): ORBITGCD_DIGIT_BUDGET (orbits),
ORBITGCD_DEGREE_BUDGET (symbolic composition in ``classify commutes``),
ORBITGCD_TEST_MODE (normalizes manifest timestamps for byte-identical
reruns).

Each command is one ``_COMMANDS`` entry (help line, handler, options), and
``classify`` and ``surface`` nest theirs the same way.  ``dispatch`` parses
the arguments after a command's names on that command's own parser, and an
argv that names none (``-h``, ``--version``, an unknown name, ``classify``
alone) on the root parser, which holds every command; each parser is built
once per process.  The text before this paragraph
is the description ``orbitgcd -h`` prints.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import re
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, NamedTuple

from . import __version__
from .classify import (commutes, is_exceptional, is_preperiodic, mult_indep,
                       probe_genericity, special_form)
from .errors import (BudgetExceededError, DomainError, HypothesisViolationError,
                     IndeterminateError, OrbitgcdError)
from .exact import ARCH_PREC
from .experiments import (GcdSeriesConfig, ap_structure, choose_depth,
                          gcd_series, large_index_set)
from .heights import (PlaceSet, canonical_height, hgcd, hgcd_excluding,
                      hgcd_fin, weil_height)
from .maps import DEFAULT_DEGREE_BUDGET, DEFAULT_ORBIT_DIGIT_BUDGET, iterate
from .serialize import (build_manifest, config_echo, load_map, load_poly,
                        map_to_json, plot_data, point_from_str, point_to_str,
                        poly_to_json, rational_from_str, rational_to_str,
                        report_to_csv, report_to_json)
from .surface import (BlowupSurface, DivisorClass, intersect, is_ample_lemmaAG,
                      perturbed_ample)

_DESCRIPTION = (__doc__ or "").partition("\nEach command is one ")[0]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_HYPOTHESIS = 3
EXIT_BUDGET = 4


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads a separate argument starting "-" as an option
        # unless this pattern matches it, and its own matches only "-3" and
        # "-1.5"; no option here starts "-" and a digit, so "-3/4", "-1e-5"
        # and "-.5" are values
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise SystemExit(_fail("usage", message, EXIT_USAGE))


def _digit_budget() -> int:
    return int(os.environ.get("ORBITGCD_DIGIT_BUDGET", DEFAULT_ORBIT_DIGIT_BUDGET))


def _degree_budget() -> int:
    return int(os.environ.get("ORBITGCD_DEGREE_BUDGET", DEFAULT_DEGREE_BUDGET))


def _parse_places(text: str | None) -> PlaceSet:
    if not text:
        return PlaceSet()
    return PlaceSet(int(tok) for tok in text.split(",") if tok.strip())


def _parse_divisor(text: str) -> DivisorClass:
    # "a,b" or "a,b:m1,m2,..."
    head, _, tail = text.partition(":")
    ab = [rational_from_str(tok) for tok in head.split(",")]
    if len(ab) != 2:
        raise DomainError(f"divisor {text!r}: expected 'a,b[:m1,...]'")
    mults = [rational_from_str(tok) for tok in tail.split(",")] if tail else []
    return DivisorClass(ab[0], ab[1], mults)


def _logvalue_dict(lv) -> dict:
    return {
        "finite": {str(p): rational_to_str(c) for p, c in sorted(lv.finite.items())},
        "finite_str": " + ".join(
            (f"{rational_to_str(c)}*log {p}" if c != 1 else f"log {p}")
            for p, c in sorted(lv.finite.items())
        ) or "0",
        "arch": float(lv.arch),
        "total": float(lv.total()),
        "precision_bits": ARCH_PREC,
    }


def _emit(result: dict | str, out: str | None = None) -> None:
    """The one output path: a JSON payload, or already formatted report text,
    to ``out`` when given, else to stdout."""
    text = result if isinstance(result, str) else json.dumps(result, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_gcd_series(args) -> str:
    config = GcdSeriesConfig(
        f=load_map(args.f), g=load_map(args.g),
        a=point_from_str(args.a), b=point_from_str(args.b),
        alpha=rational_from_str(args.alpha), beta=rational_from_str(args.beta),
        n_max=args.max_n, place_exclusions=_parse_places(args.exclude),
        digit_budget=_digit_budget(),
    )
    report = gcd_series(config)
    if args.plot_data:
        _emit(plot_data(report), args.plot_data)
    if args.format == "csv":
        return report_to_csv(report)
    manifest = build_manifest("gcd-series", config_echo(config),
                              budgets={"digit_budget": config.digit_budget})
    return report_to_json(report, manifest)


def _cmd_height(args) -> dict:
    return {"height": float(weil_height(point_from_str(args.x))),
            "manifest": build_manifest("height", {"x": args.x})}


def _cmd_canonical_height(args) -> dict:
    f = load_map(args.map)
    est = canonical_height(f, point_from_str(args.point), args.tol)
    return {
        "value": float(est.value),
        "error_bound": float(est.error_bound),
        "iterations_used": est.iterations_used,
        "exact_zero": est.is_exact_zero,
        "manifest": build_manifest("canonical-height", {
            "map": map_to_json(f), "point": args.point, "tol": args.tol}),
    }


def _cmd_hgcd(args) -> dict:
    x, y = rational_from_str(args.x), rational_from_str(args.y)
    places = _parse_places(args.exclude)
    if places.primes:
        value = hgcd_excluding(places, x, y)
    elif args.fin:
        value = hgcd_fin(x, y)
    else:
        value = hgcd(x, y)
    manifest = build_manifest("hgcd", {
        "x": rational_to_str(x), "y": rational_to_str(y),
        "fin": bool(args.fin), "exclude": sorted(places.primes),
    })
    return {"hgcd": _logvalue_dict(value), "manifest": manifest}


def _cmd_iterate(args) -> dict:
    f = load_map(args.map)
    orbit = iterate(f, point_from_str(args.start), args.steps,
                    digit_budget=_digit_budget())
    return {
        "orbit": [point_to_str(p) for p in orbit],
        "manifest": build_manifest("iterate", {
            "map": map_to_json(f), "start": args.start, "steps": args.steps,
        }, budgets={"digit_budget": _digit_budget()}),
    }


def _cmd_exceptional(args) -> dict:
    f = load_map(args.map)
    return {"exceptional": is_exceptional(f, point_from_str(args.point)),
            "manifest": build_manifest("classify exceptional", {
                "map": map_to_json(f), "point": args.point})}


def _cmd_preperiodic(args) -> dict:
    f = load_map(args.map)
    return {"preperiodic": is_preperiodic(f, point_from_str(args.point),
                                          args.budget),
            "manifest": build_manifest("classify preperiodic", {
                "map": map_to_json(f), "point": args.point,
                "budget": args.budget})}


def _cmd_mult_indep(args) -> dict:
    result = mult_indep(rational_from_str(args.a), rational_from_str(args.b))
    return {"multiplicatively_independent": result,
            "manifest": build_manifest("classify mult-indep",
                                       {"a": args.a, "b": args.b})}


def _cmd_special(args) -> dict:
    poly = load_poly(args.poly)
    form = special_form(poly)
    witness = None
    if form.witness is not None:
        # x -> (p x + q) / (r x + s); an affine witness has r = 0 and s > 0
        (q, p), (s, r) = form.witness.forms
        witness = {k: rational_to_str(Fraction(c, s)) for k, c in zip("pqrs", (p, q, r, s))}
    return {
        "tag": form.tag,
        "caveat": form.caveat,
        "witness": witness,
        "manifest": build_manifest("classify special",
                                   {"poly": poly_to_json(poly)}),
    }


def _cmd_commutes(args) -> dict:
    h, f = load_poly(args.h), load_poly(args.f)
    k = commutes(h, f, args.k_max, degree_budget=_degree_budget())
    return {"commutes_at": k,
            "manifest": build_manifest("classify commutes", {
                "h": poly_to_json(h), "f": poly_to_json(f),
                "k_max": args.k_max})}


def _cmd_intersect(args) -> dict:
    surface = BlowupSurface(args.s)
    d1, d2 = _parse_divisor(args.d1), _parse_divisor(args.d2)
    return {"intersection": rational_to_str(intersect(surface, d1, d2)),
            "manifest": build_manifest("surface intersect", {
                "s": args.s, "d1": args.d1, "d2": args.d2})}


def _cmd_ample(args) -> dict:
    surface = BlowupSurface(args.s)
    report = is_ample_lemmaAG(surface, args.N)
    a_tilde = perturbed_ample(surface, args.N)
    return {
        "ample": report.ample,
        "witness": {k: (rational_to_str(v) if isinstance(v, Fraction) else v)
                    for k, v in report.witness.items()},
        "A_selfintersection": rational_to_str(
            intersect(surface, a_tilde, a_tilde)),
        "manifest": build_manifest("surface ample", {"s": args.s, "N": args.N}),
    }


def _cmd_probe_genericity(args) -> dict:
    f, g = load_map(args.f), load_map(args.g)
    relation = probe_genericity(
        f, g, point_from_str(args.a), point_from_str(args.b),
        args.deg_max, args.points, seed=args.seed,
        digit_budget=_digit_budget(),
    )
    return {
        "relation": None if relation is None else {
            "monomials": {f"{i},{j}": rational_to_str(c) for (i, j), c in
                          sorted(relation.polynomial.terms.items())},
            "degree_bound": relation.degree_bound,
            "points_tested": relation.points_tested,
        },
        "manifest": build_manifest("probe-genericity", {
            "f": map_to_json(f), "g": map_to_json(g), "a": args.a,
            "b": args.b, "deg_max": args.deg_max, "points": args.points,
        }, seed=args.seed),
    }


def _cmd_choose_depth(args) -> dict:
    cert = choose_depth(
        load_map(args.f), load_map(args.g),
        point_from_str(args.a), point_from_str(args.b),
        rational_from_str(args.alpha), rational_from_str(args.beta),
        args.epsilon,
    )
    # json writes and reads ints below 4300 digits only: a longer M' goes as digits
    m_prime = cert.m_prime if cert.m_prime.bit_length() <= 10_000 else rational_to_str(cert.m_prime)
    lhs = float(cert.lhs)
    fields = {f.name: getattr(cert, f.name) for f in dataclasses.fields(cert)}
    fields = {k: float(v) if isinstance(v, Fraction) else v for k, v in fields.items()}
    return {
        "depth": cert.depth,
        "m_prime": m_prime,
        "lhs": lhs,
        "bound": cert.bound,
        "certificate": fields | {"m_prime": m_prime, "lhs": lhs, "replays": cert.replay()},
        "manifest": build_manifest("choose-depth", {
            "f": args.f, "g": args.g, "a": args.a, "b": args.b,
            "alpha": args.alpha, "beta": args.beta, "epsilon": args.epsilon}),
    }


def _cmd_ap_structure(args) -> dict:
    with open(args.report, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    # large_index_set reads only these fields of a gcd-series report
    rows = data.get("rows") if isinstance(data, dict) else None
    if not (isinstance(rows, list) and all(isinstance(row, dict) for row in rows)
            and all(type(v) is int for v in (data.get("degree"), data.get("last_n"),
                                              *(row.get("n") for row in rows)))
            and all(type(v := row.get("log_gcd")) in (int, type(None))
                    or type(v) is float and math.isfinite(v) for row in rows)
            and data["degree"] >= 2 and all(0 <= row["n"] <= data["last_n"] for row in rows)):
        raise DomainError("report JSON needs integer 'degree' >= 2 and 'last_n', and "
                          "'rows' with integer 'n' in [0, last_n] and finite numeric "
                          "or null 'log_gcd'")
    report = SimpleNamespace(
        degree=data["degree"], last_n=data["last_n"],
        rows=[SimpleNamespace(n=row["n"], log_gcd=row.get("log_gcd")) for row in rows])
    index_set = large_index_set(report, args.eta)
    structure = ap_structure(index_set)
    return {
        "indices": list(index_set.entries),
        "window": structure.window,
        "label": structure.label,
        "progressions": [{"start": a0, "step": d0}
                         for a0, d0 in structure.progressions],
        "residual": list(structure.residual),
        "manifest": build_manifest("ap-structure", {
            "report": args.report, "eta": args.eta}),
    }


class _Command(NamedTuple):
    help: str
    run: Callable | dict  # the handler, or name -> _Command of nested commands
    options: tuple = ()   # (flags, add_argument keywords) pairs


def _opt(*flags, **keywords) -> tuple:
    return flags, keywords


def _req(*flags, **keywords) -> tuple:
    return flags, {"required": True, **keywords}


_MAP = _req("--map", metavar="FILE")
_A_B = (_req("-a"), _req("-b"))
_PAIR = (_req("--f", metavar="FILE"), _req("--g", metavar="FILE"), *_A_B)
_TARGETS = (_req("--alpha"), _req("--beta"))

_COMMANDS = {
    "gcd-series": _Command("gcd table along a pair of orbits", _cmd_gcd_series, (
        *_PAIR, *_TARGETS, _req("--max-n", type=int),
        _opt("--exclude", default="", help="comma separated primes"),
        _opt("--out"), _opt("--format", choices=("json", "csv"), default="json"),
        _opt("--plot-data", metavar="PATH"))),
    "height": _Command("Weil height of a rational point", _cmd_height,
                       (_req("-x"),)),
    "canonical-height": _Command(
        "canonical height with error bound", _cmd_canonical_height,
        (_MAP, _req("--point"), _opt("--tol", type=float, default=1e-8))),
    "hgcd": _Command("generalized gcd height of two rationals", _cmd_hgcd, (
        _req("-x"), _req("-y"),
        _opt("--fin", action="store_true", help="drop the archimedean term"),
        _opt("--exclude", default="", help="also drop these primes"))),
    "iterate": _Command("orbit of a point", _cmd_iterate, (
        _MAP, _req("--start"), _req("--steps", type=int))),
    "classify": _Command("dynamical classification predicates", {
        "exceptional": _Command("is the point exceptional for the map",
                                _cmd_exceptional, (_MAP, _req("--point"))),
        "preperiodic": _Command(
            "is the point preperiodic for the map", _cmd_preperiodic,
            (_MAP, _req("--point"), _opt("--budget", type=int, default=64))),
        "mult-indep": _Command("are two rationals multiplicatively independent",
                               _cmd_mult_indep, _A_B),
        "special": _Command("conjugacy of a polynomial to x^d or Chebyshev",
                            _cmd_special, (_req("--poly", metavar="FILE"),)),
        "commutes": _Command(
            "least k <= k-max with h o f^k = f^k o h", _cmd_commutes,
            (_req("--h", metavar="FILE"), _req("--f", metavar="FILE"),
             _opt("--k-max", type=int, default=3))),
    }),
    "probe-genericity": _Command("orbit relation probe", _cmd_probe_genericity, (
        *_PAIR, _req("--deg-max", type=int), _req("--points", type=int),
        _opt("--seed", type=int, default=0))),
    "surface": _Command("blowup intersection theory", {
        "intersect": _Command(
            "intersection number of two divisor classes", _cmd_intersect,
            (_req("--s", type=int), _req("--d1", help="'a,b[:m1,m2,...]'"),
             _req("--d2"))),
        "ample": _Command("ampleness of the perturbed divisor", _cmd_ample,
                          (_req("--s", type=int), _req("--N", type=int))),
    }),
    "choose-depth": _Command("depth selector with certificate", _cmd_choose_depth,
                             (*_PAIR, *_TARGETS, _req("--epsilon", type=float))),
    "ap-structure": _Command(
        "arithmetic progressions in a report", _cmd_ap_structure,
        (_req("--report", metavar="FILE"), _req("--eta", type=float))),
}


def _command_path(argv) -> tuple:
    """The names of the command that argv opens with, down the table to its
    handler (``("classify", "special")``), or ``()`` when they reach none."""
    path, run = (), _COMMANDS
    for arg in argv:
        if arg not in run:
            break
        path, run = path + (arg,), run[arg].run
        if not isinstance(run, dict):
            return path
    return ()


def _add_command(parser: _Parser, command: _Command, dest: str = "command") -> None:
    for flags, keywords in command.options:
        parser.add_argument(*flags, **keywords)
    if isinstance(command.run, dict):
        sub = parser.add_subparsers(dest=dest, required=True)
        for name, nested in command.run.items():
            _add_command(sub.add_parser(name, help=nested.help), nested, f"{name}_command")
    else:
        parser.set_defaults(run=command.run)


@functools.lru_cache(maxsize=None)
def _build_parser(path: tuple) -> _Parser:
    """The parser of the command at ``path``, or at ``()`` of them all, built
    once per process: parsing only reads a parser, so every call and thread
    shares it."""
    command = _Command("", _COMMANDS)
    for name in path:
        command = command.run[name]
    if path:
        parser = _Parser(prog=" ".join(("orbitgcd", *path)))
    else:
        parser = _Parser(prog="orbitgcd", description=_DESCRIPTION,
                         formatter_class=argparse.RawDescriptionHelpFormatter)
        parser.add_argument("--version", action="version", version=__version__)
    _add_command(parser, command)
    return parser


def _parse(argv) -> argparse.Namespace:
    """argv parsed on its command's own parser, which gives the root parser's
    namespace less ``command`` and ``*_command``, or else on the root parser."""
    path = _command_path(argv)
    return _build_parser(path).parse_args(argv[len(path):])


def _fail(label: str, err: Exception | str, code: int) -> int:
    json.dump({"error": label, "message": str(err)}, sys.stderr)
    sys.stderr.write("\n")
    return code


def dispatch(argv) -> int:
    args = _parse(argv)
    try:
        _emit(args.run(args), getattr(args, "out", None))
        return EXIT_OK
    except HypothesisViolationError as err:
        return _fail("hypothesis-violation", err, EXIT_HYPOTHESIS)
    except BudgetExceededError as err:
        return _fail("budget-exhausted", err, EXIT_BUDGET)
    except MemoryError as err:      # its str() is usually empty
        detail = str(err)
        return _fail("budget-exhausted", "memory ran out" + (f": {detail}" if detail else ""),
                     EXIT_BUDGET)
    except IndeterminateError as err:
        return _fail("indeterminate", err, EXIT_BUDGET)
    except (DomainError, OrbitgcdError, OSError, json.JSONDecodeError,
            ValueError) as err:
        return _fail("invalid-input", err, EXIT_USAGE)


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
