"""End-to-end flow benchmark for the repro toolkit.

Runs one workload as a closed loop with a single client (the next op
starts when the last returns) and prints every metric by name and unit;
the last line of standard output is one JSON object.

    python3 flowbench/run.py --workload fig10_compare --seed 0 --seconds 30 --trace 0
    python3 flowbench/run.py --workload mc_variation --seed 3 --seconds 30 --trace 1

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` switches on the ``repro.obs`` counters, wraps the
benchmark's calls into each layer in spans, and reports the per-layer
metrics instead.  ``--write-reference`` records the first cycle's
outputs as the committed reference for the given seed.

Every time is normalised to a reference host speed (see
``calibrate.py``); raw wall times are printed beside the metrics.
Run it from the repository root; it imports the toolkit from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_PATH = HERE / "reference.json"

#: Fresh interpreters timed per run for ``setup_s`` (after one untimed
#: interpreter that lets Python write its bytecode cache).
IMPORT_SAMPLES = 7
IMPORT_SNIPPET = (
    "import sys, time\n"
    "sys.path[:0] = [{src!r}, {here!r}]\n"
    "from calibrate import kernel_seconds\n"
    "kernel_seconds()\n"
    "before = kernel_seconds()\n"
    "start = time.perf_counter()\n"
    "import repro.cli\n"
    "elapsed = time.perf_counter() - start\n"
    "print(elapsed, before, kernel_seconds())\n"
)
#: Failure messages echoed to stderr per run (all are counted).
MAX_REPORTED_FAILURES = 5

#: Layer spans the workloads open, in report order.
SPANS = (
    "isa.profile",
    "circuits.build",
    "switchsim.activity",
    "power.module_params",
    "analysis.compare",
    "power.setup",
    "power.sweep",
    "power.optimum",
    "analysis.surface",
    "analysis.mc_delay",
    "analysis.mc_leakage",
)
#: Per-op work counts: metric -> repro.obs counter.
COUNTS = {
    "isa.instructions": "machine.instructions",
    "switchsim.events": "simulator.events",
    "switchsim.vectors": "simulator.vectors",
    "power.vdd_solves": "optimizer.vdd_solves",
    "power.delay_probes": "optimizer.delay_probes",
    "power.golden_probes": "optimizer.golden_probes",
    "tech.opplan_points": "opplan.points_batched",
    "tech.plan_builds": "optimizer.plan_builds",
    "tech.samples_batched": "variation.samples_batched",
    "tech.variation_plan_builds": "variation.plan_builds",
}


def _fail(message: str) -> None:
    print(f"flowbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_toolkit():
    """Import the toolkit from this checkout's ``src/`` (or exit 2)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        _fail(f"no toolkit sources at {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    from repro import obs

    import workloads

    return obs, workloads


def _import_seconds():
    """Median (normalised, raw) ``import repro.cli`` time over fresh interpreters."""
    snippet = IMPORT_SNIPPET.format(src=str(SRC), here=str(HERE))
    normalised, raw = [], []
    for attempt in range(IMPORT_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, "-c", snippet],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if done.returncode != 0:
            _fail(f"fresh-interpreter import failed:\n{done.stderr}")
        if attempt:
            elapsed, before, after = map(float, done.stdout.split())
            normalised.append(elapsed * calibrate.factor(before, after))
            raw.append(elapsed)
    return statistics.median(normalised), statistics.median(raw)


class Spans:
    """In-memory layer spans: ``(op index, name, start, end)`` records."""

    def __init__(self):
        self.records = []
        self.op = 0

    @contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.records.append((self.op, name, start, time.perf_counter()))

    def seconds(self, factors: dict) -> dict:
        """Normalised seconds per layer over the ops in ``factors``."""
        totals = dict.fromkeys(SPANS, 0.0)
        for op, name, start, end in self.records:
            totals[name] += (end - start) * factors.get(op, 0.0)
        return totals


def _untraced_span(name: str):
    return nullcontext()


class Run:
    """Ops of one workload, timed, normalised and checked."""

    def __init__(self, workload, ops, spans=None):
        self.workload = workload
        self.ops = ops
        self.spans = spans
        self.durations = []  # normalised seconds of each successful op
        self.raw = []  # wall seconds of each successful op
        self.factors = {}  # attempted-op index -> normalisation factor
        self.cycle_seconds = []  # normalised seconds of each whole cycle
        self.attempted = 0
        self.failures = []
        self._calibration = calibrate.kernel_seconds()

    def fail(self, message: str) -> None:
        self.failures.append(message)
        if len(self.failures) <= MAX_REPORTED_FAILURES:
            print(f"flowbench: {message}", file=sys.stderr)

    def op(self, index: int, expected):
        """Run and check op ``index``; its summary must satisfy ``expected``."""
        op = self.ops[index]
        span = _untraced_span
        if self.spans is not None:
            self.spans.op = self.attempted
            span = self.spans.span
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = self.workload.run(op, span)
        except Exception:  # a failed op is counted, not fatal
            self.fail(f"op {index} raised:\n{traceback.format_exc()}")
            return None
        elapsed = time.perf_counter() - start
        after = calibrate.kernel_seconds()
        factor = calibrate.factor(self._calibration, after)
        self._calibration = after
        summary = self.workload.summary(result)
        problems = self.workload.check(op, result)
        if expected is not None:
            problems += expected(summary)
        if problems:
            self.fail(f"op {index} ({_describe(op)}): " + "; ".join(problems))
            return None
        self.factors[self.attempted - 1] = factor
        self.durations.append(elapsed * factor)
        self.raw.append(elapsed)
        return summary

    def cycle(self, expected_for) -> list:
        """One pass over every op; ``expected_for(index)`` checks outputs."""
        measured = len(self.durations)
        summaries = [self.op(index, expected_for(index)) for index in range(len(self.ops))]
        self.cycle_seconds.append(sum(self.durations[measured:]))
        return summaries


def _describe(op: dict) -> str:
    return ", ".join(f"{k}={v}" for k, v in op.items() if k != "vectors")


def _equals(want, label: str):
    return lambda got: [] if got == want else [f"{label} differs: {got} != {want}"]


def _measure(workload, ops, seconds, reference, spans=None, after_first_cycle=None):
    """Whole cycles of ``ops`` until ``seconds`` of wall time have passed.

    The first cycle is checked against ``reference`` (when given);
    every later cycle must reproduce the first cycle's outputs exactly.
    Returns the run and the first cycle's output summaries.
    """
    from workloads import compare_summaries

    run = Run(workload, ops, spans)
    deadline = time.perf_counter() + seconds
    first = run.cycle(
        lambda index: None if reference is None
        else lambda got: compare_summaries(got, reference[index])
    )
    if after_first_cycle is not None:
        after_first_cycle()
    while time.perf_counter() < deadline:
        run.cycle(lambda index: _equals(first[index], "repeated output"))
    return run, first


def _quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile of ``values``.

    A beta-weighted mean of all order statistics (weights taken at rank
    midpoints).  Op costs cluster by op kind, and a plain order
    statistic jumps from one cluster to the next when host noise
    reorders ops near the rank; the weighted mean moves smoothly.
    """
    ordered = sorted(values)
    n = len(ordered)
    a = p / 100.0 * (n + 1)
    b = (1.0 - p / 100.0) * (n + 1)
    logs = [
        (a - 1.0) * math.log((i + 0.5) / n) + (b - 1.0) * math.log(1.0 - (i + 0.5) / n)
        for i in range(n)
    ]
    peak = max(logs)
    weights = [math.exp(value - peak) for value in logs]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def _load_reference(workload_name: str, seed: int):
    if not REFERENCE_PATH.is_file():
        return None
    entry = json.loads(REFERENCE_PATH.read_text()).get(workload_name)
    if entry is None or entry["seed"] != seed:
        return None
    return entry["ops"]


def _write_reference(workload_name, workload, ops, seed) -> None:
    run = Run(workload, ops)
    summaries = run.cycle(lambda index: None)
    if run.failures:
        _fail(f"{len(run.failures)} ops failed; reference not written")
    data = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.is_file() else {}
    data[workload_name] = {"seed": seed, "ops": summaries}
    REFERENCE_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(summaries)} reference outputs for {workload_name} seed {seed}")


def _end_to_end(run: Run, setup_s: float) -> dict:
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(run.durations) / sum(run.durations), "1/s"),
        "op_p50_s": (_quantile(run.durations, 50.0), "s"),
        "op_p90_s": (_quantile(run.durations, 90.0), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "success_ratio": (1.0 - len(run.failures) / run.attempted, "ratio"),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _per_layer(obs, run, spans, counts, import_s, overhead) -> dict:
    op_seconds = sum(run.durations)
    n_ops = len(run.durations)
    layer = spans.seconds(run.factors)
    metrics = {}
    for name in SPANS:
        metrics[f"{name}_s"] = (layer[name] / n_ops, "s")
        metrics[f"{name}_share"] = (_ratio(layer[name], op_seconds), "ratio")
    other = op_seconds - sum(layer.values())
    metrics["bench.other_s"] = (other / n_ops, "s")
    metrics["bench.other_share"] = (_ratio(other, op_seconds), "ratio")
    for name, counter in COUNTS.items():
        metrics[name] = (counts.get(counter, 0) / len(run.ops), "count/op")
    metrics["switchsim.events_per_s"] = (
        _ratio(obs.counter_value("simulator.events"), layer["switchsim.activity"]),
        "1/s",
    )
    metrics["power.clamp_ratio"] = (
        _ratio(counts.get("optimizer.low_bound_clamps", 0),
               counts.get("optimizer.vdd_solves", 0)),
        "ratio",
    )
    for name, hits, misses in (
        ("tech.char_hit_ratio", "characterizer.hits", "characterizer.misses"),
        ("power.corner_hit_ratio", "ring.corner_hits", "ring.corner_misses"),
    ):
        hit, miss = counts.get(hits, 0), counts.get(misses, 0)
        metrics[name] = (_ratio(hit, hit + miss), "ratio")
    metrics["setup.import_s"] = (import_s, "s")
    metrics["trace.overhead"] = (overhead, "ratio")
    return metrics


def _accuracy_record(workloads) -> None:
    savings = workloads.xserver_savings()
    print("Fig. 10 X-server savings (duty 0.2), model vs paper:")
    for unit, paper in workloads.PAPER_SAVINGS_PERCENT.items():
        model = savings[unit]
        print(f"  {unit:<10} model {model:6.2f} %  paper {paper:5.1f} %  "
              f"error {model - paper:+6.2f} pp")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    obs, workloads = _import_toolkit()
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        _fail(f"unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}")

    import_s, raw_import_s = _import_seconds()
    before = calibrate.kernel_seconds()
    start = time.perf_counter()
    ops = workload.make_ops(random.Random(args.seed))
    build_s = time.perf_counter() - start
    setup_s = import_s + build_s * calibrate.factor(before, calibrate.kernel_seconds())

    if args.write_reference:
        _write_reference(args.workload, workload, ops, args.seed)
        return 0
    reference = _load_reference(args.workload, args.seed)

    if not args.trace:
        run, _ = _measure(workload, ops, args.seconds, reference)
    else:
        spans = Spans()
        counts = {}
        with obs.enabled_scope():
            run, first = _measure(
                workload, ops, args.seconds, reference, spans,
                after_first_cycle=lambda: counts.update(obs.snapshot()["counters"]),
            )
        # One more cycle untraced: outputs must equal the traced ones,
        # and its time against the last traced cycle's is the overhead.
        check = Run(workload, ops)
        check.cycle(lambda index: _equals(first[index], "untraced output"))
        run.attempted += check.attempted
        run.failures += check.failures
    if not run.durations:
        _fail(f"no op of {args.workload} succeeded")
    if args.trace:
        overhead = _ratio(run.cycle_seconds[-1], check.cycle_seconds[0])
        metrics = _per_layer(obs, run, spans, counts, import_s, overhead)
    else:
        metrics = _end_to_end(run, setup_s)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(run.durations)} ops measured of {run.attempted} attempted, "
          f"cycle of {len(ops)} ops"
          + ("" if reference is None else ", checked against the committed reference"))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:.6g} {unit}")
    print(f"  {'error_rate':<32} {len(run.failures) / run.attempted:.6g} "
          f"({len(run.failures)} failed / {run.attempted} attempted)")
    print(f"wall clock, not normalised: op p50 {_quantile(run.raw, 50.0):.6g} s, "
          f"p90 {_quantile(run.raw, 90.0):.6g} s, import {raw_import_s:.6g} s; "
          f"median host-speed factor {statistics.median(run.factors.values()):.4g}")
    _accuracy_record(workloads)
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
