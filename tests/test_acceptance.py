"""Acceptance gate: one test per top-level criterion.

Each test prints a single ``criterion <label>: PASS/FAIL`` line (visible
with ``pytest -s``; under plain pytest the per-test PASSED/FAILED line
carries the same information).  Oracles here recompute everything from
definitions and never consult the structures under test.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from blbc.cli import main
from blbc.construction import (
    DEFAULT_SEED,
    choose_parameter,
    generate,
    generate_states,
    select_ordinary_pair,
)
from blbc.fileformat import PointFile, parse_point_file, serialize_point_file
from blbc.geometry import Orientation, Point, orientation, segment_param_point
from blbc.verifier import (
    verify_construction_run,
    verify_exclusion_bound,
    verify_trace_selections,
)
from blbc.visibility import (
    BlbcOutcome,
    PointSet,
    blocking_parameters,
    build_visibility_graph,
    check_blbc_instance,
    is_visible,
    max_collinear,
    max_visible_clique,
)

F = Fraction

GRID = [(x, y) for y in range(3) for x in range(3)]


@contextmanager
def criterion(label):
    passed = False
    try:
        yield
        passed = True
    finally:
        print(f"criterion {label}: {'PASS' if passed else 'FAIL'}")


@pytest.fixture(scope="module")
def full_run():
    """One 300-point construction with every prefix verified (shared by
    criteria 2 and 3)."""
    started = time.perf_counter()
    results, state = verify_construction_run(generate_states(DEFAULT_SEED, 300))
    elapsed = time.perf_counter() - started
    return results, state, elapsed


# independent oracles (definition-level, no reuse of library search code)


def visibility_matrix(ps):
    vis = {}
    for i, j in combinations(range(1, ps.n + 1), 2):
        vis[(i, j)] = is_visible(i, j, ps)
    return vis


def oracle_max_clique_size(ps, vis):
    n = ps.n
    best = 1 if n else 0
    for mask in range(1, 1 << n):
        members = [v + 1 for v in range(n) if mask >> v & 1]
        if len(members) <= best:
            continue
        if all(vis[(a, b)] for a, b in combinations(members, 2)):
            best = len(members)
    return best


def oracle_max_collinear_size(ps):
    best = min(ps.n, 2)
    for i, j in combinations(range(1, ps.n + 1), 2):
        count = 2 + sum(
            1
            for r in range(1, ps.n + 1)
            if r != i
            and r != j
            and orientation(ps.point(i), ps.point(j), ps.point(r))
            is Orientation.COLLINEAR
        )
        best = max(best, count)
    return best


def oracle_least_ordinary_pair(points):
    """Least pair in (j, i) order with no third collinear point, scanning
    every pair against every point."""
    n = len(points)
    for j in range(2, n + 1):
        for i in range(1, j):
            if all(orientation(points[i - 1], points[j - 1], points[r - 1])
                   is not Orientation.COLLINEAR
                   for r in range(1, n + 1) if r not in (i, j)):
                return (i, j)
    return None


def random_rational_set(rng):
    n = rng.randint(2, 10)
    pool = rng.choice([3, 5, 12])  # small pools force collinear structure
    pts = set()
    while len(pts) < n:
        pts.add(
            (
                F(rng.randint(-pool, pool), rng.randint(1, 3)),
                F(rng.randint(-pool, pool), rng.randint(1, 3)),
            )
        )
    return PointSet(sorted(pts))


# criteria


def test_criterion_1_golden_prefix():
    with criterion("1 (golden prefix)"):
        state = generate(DEFAULT_SEED, 6)
        assert [tuple(p) for p in state.points] == [
            (0, 0),
            (1, 0),
            (0, 1),
            (F(1, 2), 0),
            (0, F(1, 2)),
            (F(1, 2), F(1, 2)),
        ]
        assert [tuple(rec.pair) for rec in state.trace] == [(1, 2), (1, 3), (2, 3)]
        # the next step (placing point 7) must select pair (3, 4)
        assert tuple(select_ordinary_pair(state)) == (3, 4)
        # byte-identical across independent runs
        rerun = generate(DEFAULT_SEED, 6)
        first = serialize_point_file(PointFile(points=state.points))
        second = serialize_point_file(PointFile(points=rerun.points))
        assert first == second
        assert state.trace == rerun.trace


def test_criterion_2_theorem_surrogate_suite(full_run):
    with criterion("2 (300-point invariant sweep)"):
        results, _, elapsed = full_run
        assert [n for n, _ in results] == list(range(3, 301))
        for n, reports in results:
            assert [r.check for r in reports] == [
                "no4collinear",
                "uniquetriple",
                "visiblepairlemma",
                "trianglepending",
                "exclusionbound",
            ]
            for report in reports:
                assert report.passed, (n, report.check, report.counterexample)
        assert elapsed < 120, f"sweep took {elapsed:.1f}s, budget is 120s"


def test_criterion_3_exclusion_bound(full_run):
    with criterion("3 (exclusion bound)"):
        _, state, _ = full_run
        assert len(state.trace) == 297
        for rec in state.trace:
            assert 0 <= rec.excluded_count <= comb(rec.n - 3, 2), rec
        first = state.trace[0]
        assert first.n == 4
        assert comb(first.n - 3, 2) == 0
        assert first.excluded_count == 0
        assert verify_exclusion_bound(state.trace).passed


def test_criterion_4_ordinary_pair_cross_validation():
    with criterion("4 (ordinary-pair oracle, n <= 40)"):
        state = generate(DEFAULT_SEED, 40)
        report = verify_trace_selections(state.point_set(), state.trace)
        assert report.passed, report.counterexample
        assert report.stats == {"steps": 37, "points": 40}
        for rec in state.trace:
            assert tuple(rec.pair) == oracle_least_ordinary_pair(state.points[: rec.n - 1])


def test_criterion_5_analyzer_oracle_equivalence():
    with criterion("5 (analyzer vs exhaustive oracles, 200 sets)"):
        rng = random.Random(5_2026_08)
        disagreements = 0
        for _ in range(200):
            ps = random_rational_set(rng)
            vis = visibility_matrix(ps)

            clique_size, clique_witness = max_visible_clique(ps)
            if clique_size != oracle_max_clique_size(ps, vis):
                disagreements += 1
            assert len(clique_witness) == clique_size
            assert all(
                vis[(a, b)] for a, b in combinations(clique_witness, 2)
            )

            collinear_size, collinear_witness = max_collinear(ps)
            if collinear_size != oracle_max_collinear_size(ps):
                disagreements += 1
            assert len(collinear_witness) == collinear_size
            for a, b, c in combinations(collinear_witness, 3):
                assert orientation(
                    ps.point(a), ps.point(b), ps.point(c)
                ) is Orientation.COLLINEAR
        assert disagreements == 0


def test_criterion_6_blocking_monotonicity():
    with criterion("6 (blocking removes exactly one edge, 100 cases)"):
        rng = random.Random(6_2026_08)
        cases = 0
        for size in (10, 15, 20, 25):
            ps = generate(DEFAULT_SEED, size).point_set()
            graph = build_visibility_graph(ps)
            for i, j in rng.sample(graph.edges, 25):
                cases += 1
                t = choose_parameter(blocking_parameters(ps, i, j))
                blocker = segment_param_point(ps.point(i), ps.point(j), t)
                extended = PointSet(list(ps.points) + [blocker])
                rebuilt = build_visibility_graph(extended)
                rebuilt_edges = set(rebuilt.edges)

                new_vertex = extended.n
                old_edges = set(graph.edges)
                kept = {
                    (a, b) for a, b in rebuilt.edges if b != new_vertex
                }
                assert (i, j) not in rebuilt_edges
                assert kept == old_edges - {(i, j)}
                # the new point's own edges, validated independently
                for v in range(1, new_vertex):
                    assert ((v, new_vertex) in rebuilt_edges) == is_visible(
                        v, new_vertex, extended
                    )
        assert cases == 100


def test_criterion_7_conjecture_instance_sanity():
    with criterion("7 (instance verdicts)"):
        non_collinear = [
            [(0, 0), (1, 0), (0, 1)],
            [(0, 0), (2, 0), (1, 3)],
            [(-1, -1), (5, 0), (2, 7)],
        ]
        for pts in non_collinear:
            verdict = check_blbc_instance(PointSet(pts), k=3, l=3)
            assert verdict.outcome is BlbcOutcome.CLIQUE_FOUND, pts

        collinear = [
            [(0, 0), (1, 0), (2, 0)],
            [(0, 0), (1, 1), (2, 2)],
            [(0, 0), (0, 1), (0, 5)],
        ]
        for pts in collinear:
            verdict = check_blbc_instance(PointSet(pts), k=3, l=3)
            assert verdict.outcome is BlbcOutcome.COLLINEAR_FOUND, pts

        grid = PointSet(GRID)
        oracle_clique = oracle_max_clique_size(grid, visibility_matrix(grid))
        oracle_collinear = oracle_max_collinear_size(grid)
        assert oracle_clique == 4 and oracle_collinear == 3
        verdict = check_blbc_instance(grid, k=4, l=4)
        assert verdict.outcome is BlbcOutcome.CLIQUE_FOUND
        assert verdict.clique_size == oracle_clique
        assert verdict.collinear_size == oracle_collinear


def test_criterion_8_format_round_trip(tmp_path, capsys):
    with criterion("8 (format round-trip and rejection)"):
        rng = random.Random(8_2026_08)
        for _ in range(1000):
            points = [
                Point(
                    F(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)),
                    F(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)),
                )
                for _ in range(rng.randint(0, 6))
            ]
            metadata = rng.choice(
                [None, {"run": rng.randint(0, 99), "note": "round trip"}]
            )
            text = serialize_point_file(PointFile(points=points, metadata=metadata))
            reparsed = parse_point_file(text)
            assert reparsed.points == points
            assert serialize_point_file(reparsed) == text

        for idx, bad in enumerate(("2/4", "1/-3", "1/0")):
            path = tmp_path / f"bad{idx}.json"
            path.write_text(
                '{"format_version": 1, "points": [{"x": "%s", "y": "0"}]}' % bad
            )
            assert main(["verify", "--points", str(path)]) == 2
            err = capsys.readouterr().err
            assert "points[0].x" in err, (bad, err)


def test_cli_pipeline_all_counts(tmp_path, capsys):
    with criterion("cli pipeline (generate+verify, counts 3..120)"):
        points_path = tmp_path / "points.json"
        trace_path = tmp_path / "trace.json"
        for count in range(3, 121):
            assert (
                main(
                    [
                        "generate",
                        "--count",
                        str(count),
                        "--out",
                        str(points_path),
                        "--trace-out",
                        str(trace_path),
                    ]
                )
                == 0
            ), count
            code = main(
                ["verify", "--points", str(points_path), "--trace", str(trace_path)]
            )
            capsys.readouterr()
            assert code == 0, count
