"""orbitgcd benchmark: seeded closed-loop workloads, one caller, one process.

    python3 perfbench/run.py --workload deep-series --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20   # every workload
    python3 perfbench/run.py --self-test

Run it from the root of a checkout; it builds nothing and imports the
package from ``src/``.  A run sets up (measured in child processes, see
``setup_s``), warms up with one tiny op of each kind, then repeats timed
passes over the op list in a seeded order until ``--seconds`` have
passed (at least three).  Each op's wall time is scaled to a fixed
reference speed by a probe timed about every 0.1 s during the passes
(see ``speed.py``), because the shared machine changes speed for longer
than a run lasts; the raw wall times are kept in the results.  Outputs
are checked against the oracles outside the timed region: in full the first time, later by digest of the
checked output (and in full again if it differs).  A failed or wrong op is charged ``OP_LIMIT_S``, so
it ranks after every success and a later fix cannot read as a slowdown.
``op_p50_ms`` and ``op_p90_ms`` are percentiles over the op list of each
op's median latency across the run's passes, so a list of a few slow ops
does not put a percentile on the edge between two of them.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics (per pass),
the scenario timings and the tracing overhead.  The last line of stdout
is one JSON object; a readable table, the machine and every failure go
to stderr and to ``.perfbench_results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".perfbench_results"
WORK = ROOT / ".perfbench_work"

OP_LIMIT_S = 60.0         # an op slower than this, or failed, is charged this
MIN_PASSES = 3
SETUP_REPEATS = 9

END_TO_END = {"pass_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}

SCENARIOS = ("generic-n16", "generic-n18", "generic-n20", "x2-n16-json", "x2-n16-csv",
             "x2-n17-json", "x2-n17-csv", "iterate", "rational-n16", "rational-n17",
             "quad-eps0.05", "cubic-eps0.1", "rational-eps0.1", "hgcd",
             "canonical-height-1e-10", "canonical-height-1e-50",
             "canonical-height-1e-100", "probe", "exceptional", "special-form")

_FUNCTION_METRICS = (
    ("experiments.gcd_series", ("busy_s", "self_s")),
    ("maps.digit_count", ("calls", "busy_s")),
    ("maps.evaluate", ("calls", "busy_s", "self_s")),
    ("maps.iterate", ("busy_s",)),
    ("maps.compose", ("calls", "busy_s", "self_s")),
    ("experiments.choose_depth", ("busy_s", "self_s")),
    ("polys.poly_gcd", ("busy_s",)),
    ("polys.squarefree_decomposition", ("busy_s",)),
    ("polys.max_multiplicity", ("calls",)),
    ("heights.canonical_height", ("calls", "busy_s", "self_s")),
    ("heights.discrepancy_bound", ("busy_s",)),
    ("linalg.det_fraction", ("busy_s",)),
    ("linalg.solve_fraction", ("busy_s",)),
    ("heights.hgcd", ("busy_s",)),
    ("exact.factor", ("calls", "busy_s")),
    ("exact.small_primes", ("calls", "busy_s")),
    ("exact.is_prime", ("calls",)),
    ("exact.next_prime", ("calls",)),
    ("classify.probe_genericity", ("calls", "busy_s")),
    ("linalg.kernel_modp", ("calls", "busy_s")),
    ("linalg.rational_reconstruct", ("calls",)),
    ("classify.is_exceptional", ("busy_s",)),
    ("classify.special_form", ("busy_s",)),
    ("serialize.report_to_dict", ("self_s",)),
    ("serialize.report_to_csv", ("busy_s",)),
    ("serialize.point_to_str", ("busy_s",)),
    ("cli.dispatch", ("calls", "self_s")),
)
_COUNTERS = {"experiments.gcd_series.operand_digits": "digits",
             "maps.evaluate.out_bits": "bits", "maps.compose.max_degree": "count",
             "heights.canonical_height.iterations": "count",
             "exact.factor.input_bits": "bits",
             "linalg.rational_reconstruct.none_ratio": "ratio",
             "serialize.emitted_bytes": "bytes"}
PER_LAYER = {
    **{f"{fn}.{field}": ("count" if field == "calls" else "s")
       for fn, fields in _FUNCTION_METRICS for field in fields},
    **_COUNTERS,
    **{f"scenario.{name}.s": "s" for name in SCENARIOS},
    "trace_overhead": "ratio",
}


def require_program() -> None:
    """Put the checkout's src/ first on the path, or exit 2 without a result."""
    if not (ROOT / "src" / "orbitgcd" / "__init__.py").is_file():
        print(f"perfbench: no orbitgcd sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["ORBITGCD_TEST_MODE"] = "1"    # fixed manifest timestamps


def _digest(output) -> str:
    return hashlib.sha256(pickle.dumps(output)).hexdigest()


class Runner:
    """Runs ops, checks outputs outside the timed region, keeps the tally."""

    def __init__(self, tracer=None, speed_exponent: float = 1.0):
        self.tracer = tracer
        self.speed_exponent = speed_exponent
        self.verified: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[dict] = []
        self.emitted = 0
        self.meter = speed.Speedometer()
        self.pass_walls: list[float] = []            # raw wall time per untraced pass
        self.op_walls: dict[str, list[float]] = {}   # raw wall time per op, untraced
        self.span = (0.0, 0.0)                       # start and end of the last op

    def execute(self, op, pass_no: int, traced: bool = False) -> float:
        """One op; returns the time charged to it."""
        spent = self.meter.spent
        start = time.perf_counter()
        try:
            if traced:
                with self.tracer.span("bench.op"):
                    output = op.run()
            else:
                output = op.run()
            error = None
        except Exception as exc:    # a crash in the program is a failed op
            output, error = None, f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        elapsed = end - start - (self.meter.spent - spent)    # less the speed probes
        self.span = (start, end)
        self.attempted += 1
        if traced and hasattr(output, "out"):
            self.emitted += len(output.out)
        if error is None and elapsed > OP_LIMIT_S:
            error = f"took {elapsed:.1f} s, over the {OP_LIMIT_S:g} s per-op limit"
        if error is None:
            error = self._check(op, output)
        if error is None:
            return elapsed
        self.failures.append({"op": op.id, "kind": op.kind, "pass": pass_no,
                              "message": error[:500]})
        return max(elapsed, OP_LIMIT_S)

    def _check(self, op, output) -> str | None:
        digest = _digest(output)
        if self.verified.get(op.id) == digest:
            return None
        try:
            op.check(output)
        except Exception as exc:    # CheckFailed, or output too malformed to read
            return f"wrong output: {type(exc).__name__}: {exc}"
        self.verified[op.id] = digest
        return None

    def run_pass(self, order, pass_no: int, traced: bool = False) -> list[tuple]:
        """Runs ``order``; returns (op, time) pairs, each successful op's
        time scaled to the reference speed by the probes around it.  An
        untraced pass is probed from a timer signal, also inside ops; a
        traced pass only between ops, so that no probe shows in a span."""
        if traced:
            self.tracer.install()
        self.meter.start(timer=not traced)
        try:
            rows = []
            for op in order:
                failures = len(self.failures)
                charged = self.execute(op, pass_no, traced)
                rows.append((op, charged, len(self.failures) > failures, self.span))
                if traced:
                    self.meter.tick_if_due()
        finally:
            self.meter.stop()
            if traced:
                self.tracer.uninstall()
        if not traced:
            self.pass_walls.append(sum(t for _, t, _, _ in rows))
            for op, t, _, _ in rows:
                self.op_walls.setdefault(op.id, []).append(t)
        return [(op, t if failed else speed.scale(t, self.meter.probe_around(*span),
                                                  self.speed_exponent))
                for op, t, failed, span in rows]


def measure_setup(name: str, repeats: int = SETUP_REPEATS) -> tuple[list[float], list[float]]:
    """Time from starting a fresh interpreter to the end of one tiny op
    of each kind the workload runs: interpreter start, ``import
    orbitgcd`` and the lazy first-call set-up (prime sieve, mpmath
    constants).  Measured in child processes, so every sample is cold.
    Returns the times scaled to the reference speed, by a probe in this
    process before the start and one in the child after its set-up, and
    the raw wall times."""
    scaled, wall = [], []
    for _ in range(repeats):
        before = speed.probe()
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--setup-probe", name],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        # perf_counter is the system-wide monotonic clock, so the child's
        # reading compares with this process's start.
        wall.append(child["ready"] - start)
        scaled.append(speed.scale(wall[-1], (before + child["probe"]) / 2))
    return scaled, wall


def warm_up(name: str, workdir: Path) -> None:
    """One tiny op of each kind the workload runs, unchecked and untimed."""
    import workloads
    workdir.mkdir(parents=True, exist_ok=True)
    ops, _ = workloads.WORKLOADS[name](random.Random(0), workloads.MapFiles(str(workdir)),
                                       tiny=True)
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            op.run()


def setup_probe(name: str) -> None:
    workdir = WORK / f"setup-{os.getpid()}"
    try:
        warm_up(name, workdir)
        ready = time.perf_counter()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"ready": ready, "probe": speed.probe()}))


def _machine(seed: int) -> dict:
    import mpmath
    cpu = platform.processor()
    try:
        cpu = next((line.split(":", 1)[1].strip()
                    for line in Path("/proc/cpuinfo").read_text().splitlines()
                    if line.startswith("model name")), cpu)
        load = list(os.getloadavg())
    except OSError:
        load = None
    return {"python": platform.python_version(), "mpmath": mpmath.__version__,
            "nproc": os.cpu_count(), "cpu_model": cpu, "loadavg_at_start": load,
            "seed": seed}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from tracing import Tracer

    machine = _machine(seed)
    setup_times, setup_wall = measure_setup(name)
    workdir = WORK / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops, defects = workloads.WORKLOADS[name](random.Random(seed),
                                                 workloads.MapFiles(str(workdir)), tiny=False)
        tracer = Tracer() if trace else None
        runner = Runner(tracer, workloads.SPEED_EXPONENT.get(name, 1.0))
        order_rng = random.Random(seed + 7919)
        warm_up(name, workdir / "warm-up")
        plain, traced, lengths = [], [], []
        start = time.perf_counter()
        while True:
            # Stop before a pass that would end past ``seconds``, once
            # there are enough passes.
            done = (time.perf_counter() - start + statistics.median(lengths) > seconds
                    if lengths else False)
            if done and len(plain) >= MIN_PASSES and (not trace or len(traced) >= MIN_PASSES):
                break
            use_trace = trace and len(traced) < len(plain)
            order = order_rng.sample(ops, len(ops))
            pass_start = time.perf_counter()
            (traced if use_trace else plain).append(
                runner.run_pass(order, len(plain) + len(traced) + 1, use_trace))
            lengths.append(time.perf_counter() - pass_start)
        outcomes = []
        for defect in defects:
            try:
                status, message = defect.classify(defect.run())
            except Exception as exc:    # a crash is a changed outcome, still reported
                status, message = "changed", f"{type(exc).__name__}: {exc}"
            outcomes.append({"id": defect.id, "kind": defect.kind, "known": defect.known,
                             "status": status, "message": message})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    pass_times = [sum(t for _, t in p) for p in plain]
    op_times = {op.id: [t for p in plain for o, t in p if o is op] for op in ops}
    typical = [statistics.median(times) for times in op_times.values()]
    samples = len(plain) * len(ops)
    metrics = {
        "pass_s": (statistics.median(pass_times), len(pass_times)),
        "op_p50_ms": (1e3 * statistics.median(typical), samples),
        "op_p90_ms": (1e3 * statistics.quantiles(typical, n=10, method="inclusive")[-1],
                      samples),
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    result = {"workload": name, "why": workloads.WHY[name], "machine": machine,
              "seconds": seconds, "trace": trace, "untraced_passes": len(plain),
              "traced_passes": len(traced), "ops_per_pass": len(ops),
              "attempted": runner.attempted, "failed": len(runner.failures),
              "fail_ratio": len(runner.failures) / runner.attempted,
              "failures": runner.failures, "known_defects": outcomes,
              "reference_probe_s": speed.REFERENCE_PROBE_S,
              "pass_times_s": pass_times,
              "op_times_s": op_times,
              "wall_pass_times_s": runner.pass_walls,
              "wall_op_times_s": runner.op_walls,
              "setup_times_s": setup_times, "wall_setup_times_s": setup_wall,
              "end_to_end": {k: {"value": v, "unit": END_TO_END[k], "samples": n}
                             for k, (v, n) in metrics.items()}}
    if trace:
        result.update(_layer_report(runner, plain, traced,
                                    f"{name}-seed{seed}"))
    return result


def _layer_report(runner, plain, traced, label: str) -> dict:
    tracer = runner.tracer
    n = len(traced)
    totals = tracer.totals()
    values = {}
    for fn, fields in _FUNCTION_METRICS:
        for field in fields:
            values[f"{fn}.{field}"] = totals.get(fn, {}).get(field, 0) / n
    counts = tracer.counts
    for key in _COUNTERS:
        values[key] = counts.get(key, 0) / n
    values["maps.compose.max_degree"] = counts.get("maps.compose.max_degree", 0)
    calls = totals.get("linalg.rational_reconstruct", {}).get("calls", 0)
    values["linalg.rational_reconstruct.none_ratio"] = (
        counts.get("linalg.rational_reconstruct.none", 0) / calls if calls else 0.0)
    values["serialize.emitted_bytes"] = runner.emitted / n
    for scenario in SCENARIOS:
        times = [t for p in plain for op, t in p if op.scenario == scenario]
        values[f"scenario.{scenario}.s"] = statistics.median(times) if times else 0.0
    values["trace_overhead"] = (statistics.median(sum(t for _, t in p) for p in traced)
                                / statistics.median(sum(t for _, t in p) for p in plain))
    ranked = sorted(((row["self_s"] / n, fn) for fn, row in totals.items()
                     if fn != "bench.op"), reverse=True)
    spans_path = RESULTS / f"spans-{label}.jsonl"
    RESULTS.mkdir(exist_ok=True)
    tracer.write(str(spans_path))
    return {"per_layer": {k: {"value": v, "unit": PER_LAYER[k], "samples": n}
                          for k, v in values.items()},
            "largest_self_time": [{"function": fn, "self_s_per_pass": s}
                                  for s, fn in ranked[:5]],
            "spans_file": str(spans_path.relative_to(ROOT))}


def _print_report(result: dict) -> None:
    err = sys.stderr
    m = result["machine"]
    print(f"== {result['workload']}: {result['why']}", file=err)
    print(f"   python {m['python']}, mpmath {m['mpmath']}, nproc {m['nproc']}, "
          f"{m['cpu_model']}, load {m['loadavg_at_start']}, seed {m['seed']}; "
          f"{result['ops_per_pass']} ops per pass, {result['untraced_passes']} untraced + "
          f"{result['traced_passes']} traced passes", file=err)
    tables = [result["end_to_end"]] + ([result["per_layer"]] if "per_layer" in result else [])
    for table in tables:
        for key, row in table.items():
            print(f"   {key:<44} {row['value']:>14.6g} {row['unit']:<6} "
                  f"n={row['samples']}", file=err)
    print(f"   fail_ratio {result['failed']}/{result['attempted']} = "
          f"{result['fail_ratio']:.4g}", file=err)
    for failure in result["failures"]:
        print(f"   FAILED {failure['kind']} {failure['op']} (pass {failure['pass']}): "
              f"{failure['message']}", file=err)
    for defect in result["known_defects"]:
        print(f"   known defect {defect['id']} [{defect['status']}]: {defect['message']}",
              file=err)
    for row in result.get("largest_self_time", []):
        print(f"   self time {row['function']:<36} {row['self_s_per_pass']:.4g} s/pass",
              file=err)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--setup-probe", metavar="WORKLOAD")
    args = parser.parse_args(argv)

    require_program()
    import workloads
    if args.self_test:
        import selftest
        return selftest.main()
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)} or all")

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    _print_report(result)
    table = result["per_layer"] if args.trace else result["end_to_end"]
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": row["value"], "unit": row["unit"]}
                    for k, row in table.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced."""
    import workloads
    summary = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)], cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"perfbench: {name} --trace {trace} exited {proc.returncode}",
                      file=sys.stderr)
                return proc.returncode
            summary[f"{name}/trace{trace}"] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
