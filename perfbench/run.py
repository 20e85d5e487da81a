"""blbc benchmark runner.

    python3 perfbench/run.py --workload construct-small --seed 1 --seconds 20 --trace 0

Runs one workload (see BENCHMARK.json) in this process, single-threaded,
on the blbc sources under ``src/`` of the checkout it sits in.  Set-up is
timed on its own and repeated; then ops run back to back for
``--seconds`` (at least one op), each checked against the digests in
``perfbench/expected.json``.  Human-readable lines come first; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

With ``--trace 1`` each untraced op is followed by a traced one that
makes the same public calls with a span around each; the spans go to
``perfbench/out/spans-<workload>-seed<seed>.json``.  Exit code 0 when
every output is correct, 1 when a check failed, 2 when blbc cannot be
imported from the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
OUT_DIR = BENCH_DIR / "out"

# Set-up runs per measured run; inspect's set-up builds two constructions
# (about 13 s), so it is repeated fewer times.
SETUP_REPS = {"construct-small": 5, "construct-wide": 5, "inspect": 2}
# Name of each timed call in the summary lines.
CALL_NAMES = {"construct": "construct_s", "verify": "verify_s", "oracle": "oracle_s",
              "analyze": "analyze_s", "render": "render_s"}
SPAN_METRICS = {"cli.command": "cli.overhead_s"}


def import_blbc() -> None:
    """Import blbc from this checkout's ``src``, never from site-packages."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import blbc

    if not Path(blbc.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"blbc resolved to {blbc.__file__}, not under {src}")


def mismatches(observed: dict, expected: dict) -> list[str]:
    return [f"{key}: got {observed.get(key)!r}, expected {value!r}"
            for key, value in expected.items() if observed.get(key) != value]


class Run:
    """Outcome accounting for one benchmark run."""

    def __init__(self, workload, expected: dict, tracer):
        self.wl = workload
        self.expected = expected
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def error(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)

    def checked(self, call):
        """Run one op (``call`` returns its Timed list), check every
        output; returns the Timed list and its observation, or None."""
        labels = self.expected["outputs"]
        gc.collect()
        try:
            timed = call()
            observed = self.wl.observe(timed)
        except Exception:  # an op that raises counts as failed, the run goes on
            self.attempted += len(labels)
            self.failed += len(labels)
            self.error(traceback.format_exc())
            return None
        for label, expected in labels.items():
            self.attempted += 1
            bad = mismatches(observed.get(label, {}), expected)
            if bad:
                self.failed += 1
                self.error(f"{label}: " + "; ".join(bad))
        return timed, observed


def measure(args, workload, expected: dict, tracer):
    """Set up, then run ops until the deadline; returns the Run, the set-up
    times, per-call samples, op totals and traced-run data."""
    run = Run(workload, expected, tracer)
    reps = 1 if args.trace else SETUP_REPS[args.workload]
    setup_times = []
    for _ in range(reps):
        gc.collect()
        t0 = time.perf_counter()
        inputs = workload.setup()
        setup_times.append(time.perf_counter() - t0)

    samples: dict[str, list[float]] = defaultdict(list)
    op_totals: list[float] = []
    layers: list[dict[str, float]] = []
    counters_seen: list[dict] = []
    overheads: list[float] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        result = run.checked(lambda: workload.op(inputs))
        if result is not None:
            timed, observed = result
            for t in timed:
                samples[t.label].append(t.seconds)
            op_totals.append(sum(t.seconds for t in timed))
            if args.trace:
                trace_once(run, inputs, observed, op_totals[-1], layers,
                           counters_seen, overheads)
        if time.perf_counter() >= deadline:
            break
    return run, setup_times, samples, op_totals, (layers, counters_seen, overheads)


def trace_once(run, inputs, untraced_obs, untraced_total, layers, counters_seen, overheads):
    """One traced op after an untraced one: same outputs, counters as
    recorded and as in the previous traced op."""
    tracer = run.tracer
    tracer.op += 1
    holder = {}

    def call():
        timed, holder["counters"] = run.wl.traced_op(inputs, tracer)
        return timed

    before = run.failed
    result = run.checked(call)
    if result is None:
        return
    timed, observed = result
    counters = holder["counters"]
    bad = mismatches(counters, run.expected["counters"]) + run.wl.check_counters(counters)
    if counters_seen and counters != counters_seen[-1]:
        bad.append(f"counters changed between traced ops: {counters_seen[-1]} -> {counters}")
    if observed != untraced_obs:
        bad.append(f"traced outputs {observed} differ from untraced {untraced_obs}")
    if bad:
        run.error("traced op: " + "; ".join(bad))
        if run.failed == before:  # its calls are already counted as attempted
            run.failed += 1
    counters_seen.append(counters)
    layers.append(tracer.self_times(tracer.op))
    overheads.append(sum(t.seconds for t in timed) - untraced_total)


def per_layer_metrics(names, samples, layers, counters_seen, overheads) -> dict:
    metrics = {name: 0.0 for name in names}

    def put(name, value):
        if name not in metrics:
            raise KeyError(f"{name} is not a per_layer metric in BENCHMARK.json")
        metrics[name] = value

    span_names = {span for op in layers for span in op}
    for span in span_names:
        put(SPAN_METRICS.get(span, span + "_s"),
            statistics.median(op.get(span, 0.0) for op in layers))
    for label, values in samples.items():
        if f"cli.{label}_s" in metrics:
            put(f"cli.{label}_s", statistics.median(values))
    if counters_seen:
        for name, value in counters_seen[-1].items():
            put(name, value)
    if overheads:
        put("trace.overhead_s", statistics.median(overheads))
    return metrics


def span_cost(n: int = 20000) -> float:
    """Seconds one empty span takes, to set against trace.overhead_s."""
    tracer = Tracer()
    t0 = time.perf_counter()
    for _ in range(n):
        with tracer.span("empty"):
            pass
    return (time.perf_counter() - t0) / n


def describe(name: str, values: list[float]) -> str:
    return (f"{name}: median {statistics.median(values):.4f} s over {len(values)} "
            f"samples: " + " ".join(f"{v:.4f}" for v in values))


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--profile", choices=("full", "smoke"), default="full",
                        help="input sizes; smoke is the tiny set the smoke test runs")
    args = parser.parse_args(argv)

    try:
        import_blbc()
    except ImportError as exc:
        print(f"error: cannot import blbc from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import workloads

    recorded = json.loads((BENCH_DIR / "expected.json").read_text(encoding="utf-8"))
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    try:
        wl = workloads.make(args.workload, args.seed, args.profile, workdir)
        expected = wl.expected(recorded[args.profile][args.workload])
        run, setup_times, samples, op_totals, traced = measure(args, wl, expected, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for message in run.errors:
        print(f"FAILED {message}", file=sys.stderr)
    for label, values in samples.items():
        print(describe(CALL_NAMES[label], values))
    print(describe("op_s", op_totals) if op_totals else "op_s: no op completed")
    print(describe("setup_s", setup_times))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak_rss_mib: {peak_rss_mib:.1f} MiB")
    print(f"failed_frac: {run.failed / max(run.attempted, 1):.4f} "
          f"({run.failed} of {run.attempted} calls)")

    if args.trace:
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(spans_path)
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}; "
              f"one empty span costs {span_cost() * 1e6:.2f} us")
        metrics = per_layer_metrics([m["name"] for m in bench["per_layer"]], samples, *traced)
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        for name, value in metrics.items():
            if value:
                print(f"{name}: {value if isinstance(value, int) else f'{value:.6g}'} "
                      f"{units[name]}")
    else:
        metrics = {"op_s": statistics.median(op_totals) if op_totals else 0.0,
                   "setup_s": statistics.median(setup_times),
                   "peak_rss_mib": peak_rss_mib}
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    correct = run.failed == 0 and bool(op_totals)
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
