"""Record the outputs and counters the benchmark checks against.

    python3 perfbench/record.py

Runs every workload of every profile once at this commit and writes
``perfbench/expected.json``: digests of each call's output and the exact
work counters of the traced op.  Construct outputs are recorded in the
default seed's frame and checked for two seeds; inspect outputs are
recorded for each input variant.  Re-record only when blbc's outputs are
meant to change.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
from tracing import Tracer


def record(profile: str, name: str, workloads) -> dict:
    seeds = (range(workloads.INSPECT_VARIANTS) if name == "inspect" else (0, 1))
    runs = []
    for seed in seeds:
        workdir = run.OUT_DIR / f"record-{name}-{seed}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            wl = workloads.make(name, seed, profile, workdir)
            inputs = wl.setup()
            observed = wl.observe(wl.op(inputs))
            traced, counters = wl.traced_op(inputs, Tracer())
            if wl.observe(traced) != observed:
                raise SystemExit(f"{profile}/{name}/{seed}: traced outputs differ")
            if wl.check_counters(counters):
                raise SystemExit(f"{profile}/{name}/{seed}: {wl.check_counters(counters)}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        runs.append((observed, counters))
        print(f"{profile}/{name} seed {seed}: recorded", file=sys.stderr)

    if name != "inspect":
        (observed, counters), (observed2, counters2) = runs
        shared = {k: v for k, v in counters.items() if k not in workloads.SEED_DEPENDENT}
        if observed2 != observed or any(counters2[k] != v for k, v in shared.items()):
            raise SystemExit(f"{profile}/{name}: seeds 0 and 1 disagree")
        return {"outputs": observed, "counters": shared}

    variants = []
    shared_outputs = shared_counters = None
    for observed, counters in runs:
        outputs = {label: {k: v for k, v in obs.items()
                           if k not in workloads.VARIANT_OUTPUTS.get(label, ())}
                   for label, obs in observed.items()}
        common = {k: v for k, v in counters.items() if k not in workloads.VARIANT_COUNTERS}
        if shared_outputs is None:
            shared_outputs, shared_counters = outputs, common
        elif (outputs, common) != (shared_outputs, shared_counters):
            raise SystemExit(f"{profile}/inspect: variants disagree on shared outputs")
        variants.append({
            "outputs": {label: {k: observed[label][k] for k in keys}
                        for label, keys in workloads.VARIANT_OUTPUTS.items()},
            "counters": {k: counters[k] for k in workloads.VARIANT_COUNTERS},
        })
    return {"outputs": shared_outputs, "counters": shared_counters, "variants": variants}


def main() -> int:
    run.import_blbc()
    import workloads

    doc = {profile: {name: record(profile, name, workloads)
                     for name in workloads.WORKLOADS}
           for profile in ("smoke", "full")}
    path = run.BENCH_DIR / "expected.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(run.ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
