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
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

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
        json.dump({"error": "usage", "message": message}, sys.stderr)
        sys.stderr.write("\n")
        raise SystemExit(EXIT_USAGE)


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


def _build_parser() -> _Parser:
    parser = _Parser(prog="orbitgcd", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gcd-series", help="gcd table along a pair of orbits")
    p.add_argument("--f", required=True, metavar="FILE")
    p.add_argument("--g", required=True, metavar="FILE")
    p.add_argument("-a", required=True)
    p.add_argument("-b", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--exclude", default="", help="comma separated primes")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--plot-data", default=None, metavar="PATH")

    p = sub.add_parser("height", help="Weil height of a rational point")
    p.add_argument("-x", required=True)

    p = sub.add_parser("canonical-height", help="canonical height with error bound")
    p.add_argument("--map", required=True, metavar="FILE")
    p.add_argument("--point", required=True)
    p.add_argument("--tol", type=float, default=1e-8)

    p = sub.add_parser("hgcd", help="generalized gcd height of two rationals")
    p.add_argument("-x", required=True)
    p.add_argument("-y", required=True)
    p.add_argument("--fin", action="store_true", help="drop the archimedean term")
    p.add_argument("--exclude", default="", help="also drop these primes")

    p = sub.add_parser("iterate", help="orbit of a point")
    p.add_argument("--map", required=True, metavar="FILE")
    p.add_argument("--start", required=True)
    p.add_argument("--steps", type=int, required=True)

    p = sub.add_parser("classify", help="dynamical classification predicates")
    csub = p.add_subparsers(dest="classify_command", required=True)
    q = csub.add_parser("exceptional")
    q.add_argument("--map", required=True, metavar="FILE")
    q.add_argument("--point", required=True)
    q = csub.add_parser("preperiodic")
    q.add_argument("--map", required=True, metavar="FILE")
    q.add_argument("--point", required=True)
    q.add_argument("--budget", type=int, default=64)
    q = csub.add_parser("mult-indep")
    q.add_argument("-a", required=True)
    q.add_argument("-b", required=True)
    q = csub.add_parser("special")
    q.add_argument("--poly", required=True, metavar="FILE")
    q = csub.add_parser("commutes")
    q.add_argument("--h", required=True, metavar="FILE")
    q.add_argument("--f", required=True, metavar="FILE")
    q.add_argument("--k-max", type=int, default=3)

    p = sub.add_parser("probe-genericity", help="orbit relation probe")
    p.add_argument("--f", required=True, metavar="FILE")
    p.add_argument("--g", required=True, metavar="FILE")
    p.add_argument("-a", required=True)
    p.add_argument("-b", required=True)
    p.add_argument("--deg-max", type=int, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("surface", help="blowup intersection theory")
    ssub = p.add_subparsers(dest="surface_command", required=True)
    q = ssub.add_parser("intersect")
    q.add_argument("--s", type=int, required=True)
    q.add_argument("--d1", required=True, help="'a,b[:m1,m2,...]'")
    q.add_argument("--d2", required=True)
    q = ssub.add_parser("ample")
    q.add_argument("--s", type=int, required=True)
    q.add_argument("--N", type=int, required=True)

    p = sub.add_parser("choose-depth", help="depth selector with certificate")
    p.add_argument("--f", required=True, metavar="FILE")
    p.add_argument("--g", required=True, metavar="FILE")
    p.add_argument("-a", required=True)
    p.add_argument("-b", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--epsilon", type=float, required=True)

    p = sub.add_parser("ap-structure", help="arithmetic progressions in a report")
    p.add_argument("--report", required=True, metavar="FILE")
    p.add_argument("--eta", type=float, required=True)

    return parser


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
            "map": map_to_json(f), "point": args.point, "tol": args.tol,
        }),
    }


def _cmd_hgcd(args) -> dict:
    x = rational_from_str(args.x)
    y = rational_from_str(args.y)
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


def _cmd_classify(args) -> dict:
    if args.classify_command == "exceptional":
        f = load_map(args.map)
        payload = {"exceptional": is_exceptional(f, point_from_str(args.point))}
        config = {"map": map_to_json(f), "point": args.point}
    elif args.classify_command == "preperiodic":
        f = load_map(args.map)
        payload = {"preperiodic": is_preperiodic(f, point_from_str(args.point),
                                                 args.budget)}
        config = {"map": map_to_json(f), "point": args.point,
                  "budget": args.budget}
    elif args.classify_command == "mult-indep":
        result = mult_indep(rational_from_str(args.a), rational_from_str(args.b))
        payload = {"multiplicatively_independent": result}
        config = {"a": args.a, "b": args.b}
    elif args.classify_command == "special":
        poly = load_poly(args.poly)
        form = special_form(poly)
        payload = {
            "tag": form.tag,
            "caveat": form.caveat,
            "witness": None if form.witness is None else {
                "p": rational_to_str(form.witness.p),
                "q": rational_to_str(form.witness.q),
                "r": rational_to_str(form.witness.r),
                "s": rational_to_str(form.witness.s),
            },
        }
        config = {"poly": poly_to_json(poly)}
    else:
        h, f = load_poly(args.h), load_poly(args.f)
        k = commutes(h, f, args.k_max, degree_budget=_degree_budget())
        payload = {"commutes_at": k}
        config = {"h": poly_to_json(h), "f": poly_to_json(f),
                  "k_max": args.k_max}
    manifest = build_manifest(f"classify {args.classify_command}", config)
    return {**payload, "manifest": manifest}


def _cmd_surface(args) -> dict:
    if args.surface_command == "ample":
        surface = BlowupSurface(args.s)
        report = is_ample_lemmaAG(surface, args.N)
        a_tilde = perturbed_ample(surface, args.N)
        payload = {
            "ample": report.ample,
            "witness": {k: (rational_to_str(v) if isinstance(v, Fraction) else v)
                        for k, v in report.witness.items()},
            "A_selfintersection": rational_to_str(
                intersect(surface, a_tilde, a_tilde)),
        }
        config = {"s": args.s, "N": args.N}
    else:
        surface = BlowupSurface(args.s)
        d1 = _parse_divisor(args.d1)
        d2 = _parse_divisor(args.d2)
        payload = {"intersection": rational_to_str(intersect(surface, d1, d2))}
        config = {"s": args.s, "d1": args.d1, "d2": args.d2}
    manifest = build_manifest(f"surface {args.surface_command}", config)
    return {**payload, "manifest": manifest}


def _cmd_probe_genericity(args) -> dict:
    f, g = load_map(args.f), load_map(args.g)
    relation = probe_genericity(
        f, g, point_from_str(args.a), point_from_str(args.b),
        args.deg_max, args.points, seed=args.seed,
        digit_budget=_digit_budget(),
    )
    payload = {"relation": None}
    if relation is not None:
        payload["relation"] = {
            "monomials": {f"{i},{j}": rational_to_str(c)
                          for (i, j), c in
                          sorted(relation.polynomial.terms.items())},
            "degree_bound": relation.degree_bound,
            "points_tested": relation.points_tested,
        }
    payload["manifest"] = build_manifest("probe-genericity", {
        "f": map_to_json(f), "g": map_to_json(g), "a": args.a,
        "b": args.b, "deg_max": args.deg_max, "points": args.points,
    }, seed=args.seed)
    return payload


def _cmd_choose_depth(args) -> dict:
    cert = choose_depth(
        load_map(args.f), load_map(args.g),
        point_from_str(args.a), point_from_str(args.b),
        rational_from_str(args.alpha), rational_from_str(args.beta),
        args.epsilon,
    )
    return {
        "depth": cert.depth,
        "m_prime": cert.m_prime,
        "lhs": cert.lhs,
        "bound": cert.bound,
        "certificate": dataclasses.asdict(cert) | {"replays": cert.replay()},
        "manifest": build_manifest("choose-depth", {
            "f": args.f, "g": args.g, "a": args.a, "b": args.b,
            "alpha": args.alpha, "beta": args.beta,
            "epsilon": args.epsilon,
        }),
    }


def _cmd_ap_structure(args) -> dict:
    with open(args.report, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    # large_index_set reads only these fields of a gcd-series report
    report = SimpleNamespace(
        degree=data["degree"], last_n=data["last_n"],
        rows=[SimpleNamespace(n=row["n"], log_gcd=row.get("log_gcd"))
              for row in data["rows"]])
    index_set = large_index_set(report, args.eta)
    structure = ap_structure(index_set)
    manifest = build_manifest("ap-structure", {
        "report": args.report, "eta": args.eta,
    })
    return {
        "indices": list(index_set.entries),
        "window": structure.window,
        "label": structure.label,
        "progressions": [{"start": a0, "step": d0}
                         for a0, d0 in structure.progressions],
        "residual": list(structure.residual),
        "manifest": manifest,
    }


_COMMANDS = {
    "gcd-series": _cmd_gcd_series,
    "height": _cmd_height,
    "canonical-height": _cmd_canonical_height,
    "hgcd": _cmd_hgcd,
    "iterate": _cmd_iterate,
    "classify": _cmd_classify,
    "probe-genericity": _cmd_probe_genericity,
    "surface": _cmd_surface,
    "choose-depth": _cmd_choose_depth,
    "ap-structure": _cmd_ap_structure,
}


def dispatch(argv) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _emit(_COMMANDS[args.command](args), getattr(args, "out", None))
        return EXIT_OK
    except HypothesisViolationError as err:
        json.dump({"error": "hypothesis-violation", "message": str(err)},
                  sys.stderr)
        sys.stderr.write("\n")
        return EXIT_HYPOTHESIS
    except (BudgetExceededError, IndeterminateError) as err:
        json.dump({"error": "budget-exhausted", "message": str(err)}, sys.stderr)
        sys.stderr.write("\n")
        return EXIT_BUDGET
    except (DomainError, OrbitgcdError, OSError, json.JSONDecodeError,
            ValueError) as err:
        json.dump({"error": "invalid-input", "message": str(err)}, sys.stderr)
        sys.stderr.write("\n")
        return EXIT_USAGE


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
