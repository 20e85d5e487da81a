"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload inspect --runs 10 [--first-seed 1]

Runs the benchmark once per seed, one run at a time, and prints for each
end-to-end metric its median over the runs, its quartiles and the
distance between them as a share of the median, next to the metric's
bound in BENCHMARK.json.  ``--json FILE`` also writes every run's result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write every run's result here")
    args = parser.parse_args()

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        results.append({"seed": seed, "log": proc.stdout.splitlines()[:-1], **result})
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: {values if not args.trace else 'ok'}", flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        return 0

    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        print(f"{metric['name']}: median {median:.4f} {metric['unit']}, "
              f"quartiles {q1:.4f}..{q3:.4f}, spread {(q3 - q1) / median:.3f} "
              f"(bound {metric['bound']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
