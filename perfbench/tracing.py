"""Spans around orbitgcd's public functions, recorded from outside the
program.

``Tracer.install()`` replaces each listed function with a wrapper at every
module binding that holds it: ``from .maps import evaluate`` copies the
name into ``orbitgcd.experiments``, so that binding is patched as well as
``orbitgcd.maps.evaluate``.  Calls inside a module go through its
globals, so they are caught too.  Spans stay in memory; a span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from collections import defaultdict

TRACED = {
    "cli": ("dispatch",),
    "serialize": ("load_map", "point_to_str", "build_manifest", "report_to_dict",
                  "report_to_json", "report_to_csv"),
    "experiments": ("gcd_series", "choose_depth"),
    "maps": ("digit_count", "evaluate", "iterate", "compose", "self_compose",
             "fiber_polynomial"),
    "polys": ("poly_gcd", "squarefree_decomposition", "max_multiplicity",
              "multiplicity_at", "radical"),
    "heights": ("canonical_height", "discrepancy_bound", "map_resultant", "hgcd",
                "weil_height"),
    "exact": ("factor", "small_primes", "is_prime", "next_prime"),
    "classify": ("probe_genericity", "is_exceptional", "special_form"),
    "linalg": ("det_fraction", "solve_fraction", "kernel_modp", "rational_reconstruct"),
}


def _count_result(counts, name, args, result):
    """Work counters taken at the boundary, from arguments and results."""
    if name == "experiments.gcd_series":
        counts["experiments.gcd_series.operand_digits"] += sum(
            (r.digits_f or 0) + (r.digits_g or 0) for r in result.rows)
    elif name == "maps.evaluate":
        counts["maps.evaluate.out_bits"] += sum(abs(c).bit_length() for c in result.pair())
    elif name == "maps.compose":
        counts["maps.compose.max_degree"] = max(counts["maps.compose.max_degree"],
                                                result.degree)
    elif name == "heights.canonical_height":
        counts["heights.canonical_height.iterations"] += result.iterations_used
    elif name == "exact.factor":
        counts["exact.factor.input_bits"] += abs(args[0]).bit_length()
    elif name == "linalg.rational_reconstruct" and result is None:
        counts["linalg.rational_reconstruct.none"] += 1


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def _open(self, name: str) -> None:
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent])

    def _close(self) -> None:
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            _count_result(self.counts, name, args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "orbitgcd" or key.startswith("orbitgcd.")]
        for short, names in TRACED.items():
            home = importlib.import_module(f"orbitgcd.{short}")
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{short}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _), c in zip(self.spans, child)]

    def totals(self) -> dict[str, dict[str, float]]:
        """Per function name: calls, busy time (outermost spans only, so
        recursion is not counted twice) and self time."""
        out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        selfs = self.self_times()
        names = [s[0] for s in self.spans]
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += selfs[i]
            p = parent
            while p >= 0 and names[p] != name:
                p = self.spans[p][3]
            if p < 0:
                row["busy_s"] += end - start
        return dict(out)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
