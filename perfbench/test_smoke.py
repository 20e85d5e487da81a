"""Smoke test of the benchmark runner at tiny sizes: 20-point
constructions and a 6x6 lattice, untraced and traced.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, seed: int, trace: int, root: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--profile", "smoke"],
        cwd=root, capture_output=True, text=True, timeout=300)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.fixture(scope="module")
def traced():
    return {(w, seed): result_of(bench(w, seed, 1)) for w in WORKLOADS for seed in (3, 4)}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    metrics = result_of(bench(workload, 3, 0))["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    for spec in SPEC["end_to_end"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
        assert metrics[spec["name"]]["value"] > 0


def test_traced_run_reports_every_layer_metric(traced):
    names = [m["name"] for m in SPEC["per_layer"]]
    for result in traced.values():
        assert list(result["metrics"]) == names
    measured = {name for result in traced.values()
                for name, metric in result["metrics"].items() if metric["value"] != 0}
    assert measured == set(names)


def test_every_layer_metric_names_the_end_to_end_metric_it_moves():
    moves = json.loads((BENCH_DIR / "layers.json").read_text(encoding="utf-8"))["moves"]
    assert list(moves) == [m["name"] for m in SPEC["per_layer"]]


def test_counters_repeat_across_seeds(traced):
    seed_dependent = {"construction.max_coord_bits", "fileformat.bytes_out",
                      "fileformat.bytes_in", "svgrender.bytes"}
    for workload in WORKLOADS:
        a, b = (traced[workload, seed]["metrics"] for seed in (3, 4))
        for name, metric in a.items():
            if metric["unit"] != "s" and name not in seed_dependent:
                assert metric == b[name], (workload, name)


def test_fails_without_sources():
    bare = BENCH_DIR / "out" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("construct-small", 3, 0, root=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
