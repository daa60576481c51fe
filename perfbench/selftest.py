"""Self-test of the benchmark at tiny sizes: ``python3 perfbench/run.py --self-test``.

1. Every workload runs at a reduced size and every output passes its check.
2. A deliberately corrupted output (another op's output of the same kind,
   or a negated boolean) is counted as a failed op, for every op kind.
3. In a traced pass no span's self time is negative or exceeds its span,
   children never outlast their parent, the copied binding
   ``orbitgcd.experiments.evaluate`` is traced, and uninstalling restores
   every original function.
4. A pass leaves no speed-probe timer or signal handler behind, and its
   scaled times are positive.
5. Full-size ops report under declared scenario names, and
   ``BENCHMARK.json``, when present, names exactly the metrics run.py reports.
"""

from __future__ import annotations

import json
import random
import shutil
import signal
import sys

import orbitgcd.experiments
import orbitgcd.maps
import workloads
from run import END_TO_END, OP_LIMIT_S, PER_LAYER, ROOT, SCENARIOS, WORK, Runner, _digest
from tracing import Tracer

_problems: list[str] = []


def _expect(condition: bool, message: str) -> None:
    if not condition:
        _problems.append(message)


def _tiny_ops(name: str):
    workdir = WORK / f"selftest-{name}"
    workdir.mkdir(parents=True, exist_ok=True)
    ops, _ = workloads.WORKLOADS[name](random.Random(3), workloads.MapFiles(str(workdir)),
                                       tiny=True)
    return ops


def _corrupted(op, outputs, ops):
    """A wrong output for ``op``: a differing output of another op of the
    same kind, or the negation of a boolean."""
    mine = _digest(outputs[op.id])
    for other in ops:
        if other.kind == op.kind and _digest(outputs[other.id]) != mine:
            return outputs[other.id]
    if isinstance(outputs[op.id], bool):
        return not outputs[op.id]
    return None


def check_workload(name: str) -> None:
    ops = _tiny_ops(name)
    handler = signal.getsignal(signal.SIGALRM)
    runner = Runner()
    timed = runner.run_pass(ops, 1)
    _expect(not runner.failures, f"{name}: tiny run failed: {runner.failures}")
    _expect(signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
            and signal.getsignal(signal.SIGALRM) == handler,
            f"{name}: the speed probe left its timer or handler behind")
    _expect(len(runner.meter.samples) >= 2 and all(t > 0 for _, t in timed),
            f"{name}: no probes or a non-positive scaled time")

    outputs = {op.id: op.run() for op in ops}
    corrupted_kinds = set()
    for op in ops:
        wrong = _corrupted(op, outputs, ops)
        if wrong is None:
            continue
        bad = workloads.Op(op.id, op.kind, op.scenario, lambda w=wrong: w, op.check)
        probe = Runner()
        charged = probe.execute(bad, 1)
        _expect(len(probe.failures) == 1 and charged >= OP_LIMIT_S,
                f"{name}: corrupted output of {op.id} was not counted as a failure")
        corrupted_kinds.add(op.kind)
    _expect(corrupted_kinds == {op.kind for op in ops},
            f"{name}: no corrupted output tried for "
            f"{sorted({op.kind for op in ops} - corrupted_kinds)}")

    tracer = Tracer()
    traced = Runner(tracer)
    traced.run_pass(ops, 1, traced=True)
    _expect(not traced.failures, f"{name}: traced tiny run failed: {traced.failures}")
    selfs = tracer.self_times()
    children: dict[int, float] = {}
    for (span_name, start, end, parent), own in zip(tracer.spans, selfs):
        _expect(-1e-9 <= own <= end - start + 1e-9,
                f"{name}: self time {own} of {span_name} outside [0, {end - start}]")
        if parent >= 0:
            children[parent] = children.get(parent, 0.0) + end - start
            _, pstart, pend, _ = tracer.spans[parent]
            _expect(pstart <= start and end <= pend, f"{name}: {span_name} outlasts its parent")
    for parent, total in children.items():
        _, pstart, pend, _ = tracer.spans[parent]
        _expect(total <= pend - pstart + 1e-9, f"{name}: children outlast span {parent}")
    _expect(len(tracer.spans) > len(ops), f"{name}: the tracer recorded no program spans")
    if name == "deep-series":
        names = [s[0] for s in tracer.spans]
        _expect(any(s[0] == "maps.evaluate" and names[s[3]] == "experiments.gcd_series"
                    for s in tracer.spans),
                "the experiments.evaluate binding was not traced")
    _expect(not hasattr(orbitgcd.experiments.evaluate, "__wrapped__")
            and orbitgcd.experiments.evaluate is orbitgcd.maps.evaluate,
            f"{name}: uninstall left a wrapper behind")


def check_scenarios(name: str) -> None:
    """Every full-size op reports under a scenario name run.py declares."""
    workdir = WORK / f"selftest-{name}"
    ops, _ = workloads.WORKLOADS[name](random.Random(3), workloads.MapFiles(str(workdir)),
                                       tiny=False)
    _expect({op.scenario for op in ops} <= set(SCENARIOS),
            f"{name}: undeclared scenarios {sorted({op.scenario for op in ops} - set(SCENARIOS))}")


def check_declared_metrics() -> None:
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return
    spec = json.loads(path.read_text())
    _expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END,
            "BENCHMARK.json end_to_end differs from run.END_TO_END")
    _expect({m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER,
            "BENCHMARK.json per_layer differs from run.PER_LAYER")
    _expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
            "BENCHMARK.json workloads differ from workloads.WORKLOADS")


def main() -> int:
    try:
        for name in workloads.WORKLOADS:
            check_workload(name)
            check_scenarios(name)
        check_declared_metrics()
    finally:
        for name in workloads.WORKLOADS:
            shutil.rmtree(WORK / f"selftest-{name}", ignore_errors=True)
    for problem in _problems:
        print(f"self-test: {problem}", file=sys.stderr)
    print("self-test: " + ("FAILED" if _problems else "ok"))
    return 1 if _problems else 0
