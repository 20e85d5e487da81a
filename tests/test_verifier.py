import dataclasses
import random
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm
from types import SimpleNamespace

import pytest

from blbc import verifier
from blbc.construction import (
    DEFAULT_SEED,
    InsertionRecord,
    OrdinaryPair,
    generate,
    generate_states,
    init_state,
)
from blbc.errors import ConsistencyError, InputError
from blbc.geometry import Orientation, Point, on_open_segment, orientation, segment_param_point
from blbc.verifier import (
    CHECK_ORDER,
    CHECKS,
    VerificationReport,
    _lemma_line_failures,
    verify_construction_run,
    verify_exclusion_bound,
    verify_no_k_collinear,
    verify_ordinary_oracle,
    verify_points,
    verify_trace_selections,
    verify_triangle_pending,
    verify_unique_triple_at_insertion,
    verify_visible_pair_lemma,
)
from blbc.visibility import (
    PointSet,
    blocking_parameters,
    build_visibility_graph_naive,
    check_blbc_instance,
    is_visible,
    max_visible_clique,
)

F = Fraction


def golden(count):
    state = generate(DEFAULT_SEED, count)
    return state.point_set(), list(state.trace), set(state.pending)


# no-k-collinear


def test_no4collinear_passes_on_generated_run():
    ps, _, _ = golden(20)
    report = verify_no_k_collinear(ps, 4)
    assert report.passed
    assert report.counterexample is None
    assert report.stats["points"] == 20
    assert report.stats["max_collinear"] == 3


def test_no4collinear_fails_with_least_witness():
    # two violating lines; the witness must be the lexicographically least
    ps = PointSet(
        [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1), (2, 1), (3, 1)]
    )
    report = verify_no_k_collinear(ps, 4)
    assert not report.passed
    assert report.counterexample["indices"] == [1, 2, 3, 4]
    line = report.counterexample["line"]
    assert (line["a"], line["b"], line["c"]) == (0, 1, 0)
    assert report.stats["max_collinear"] == 4


def test_no4collinear_respects_threshold():
    ps = PointSet([(0, 0), (1, 0), (2, 0), (3, 0)])
    assert not verify_no_k_collinear(ps, 4).passed
    report5 = verify_no_k_collinear(ps, 5)
    assert report5.passed
    assert report5.check == "no5collinear"


def test_no4collinear_vacuous_below_threshold():
    assert verify_no_k_collinear(PointSet([(0, 0)]), 4).passed
    assert verify_no_k_collinear(PointSet([(0, 0), (1, 0), (2, 0)]), 4).passed


def test_no4collinear_threshold_validation():
    with pytest.raises(InputError):
        verify_no_k_collinear(PointSet([(0, 0)]), 2)


def test_report_json_omits_counterexample_when_passing():
    ps, _, _ = golden(6)
    doc = verify_no_k_collinear(ps, 4).to_json_dict()
    assert "counterexample" not in doc
    failing = verify_no_k_collinear(PointSet([(0, 0), (1, 0), (2, 0), (3, 0)]), 4)
    assert "counterexample" in failing.to_json_dict()


# unique-triple-at-insertion


def test_uniquetriple_passes_on_generated_run():
    ps, trace, _ = golden(8)
    report = verify_unique_triple_at_insertion(trace, ps)
    assert report.passed
    assert report.stats == {"records": 5, "points": 8}


def test_uniquetriple_vacuous_on_seed():
    report = verify_unique_triple_at_insertion([], PointSet(list(DEFAULT_SEED)))
    assert report.passed
    assert report.stats == {"records": 0, "points": 3}


def test_uniquetriple_detects_moved_point():
    # move point 4 off its recorded segment, consistently in trace and set
    ps, trace, _ = golden(6)
    moved = Point(F(1, 3), F(1, 3))
    points = list(ps.points)
    points[3] = moved
    trace = [
        dataclasses.replace(rec, point=moved) if rec.n == 4 else rec
        for rec in trace
    ]
    report = verify_unique_triple_at_insertion(trace, PointSet(points))
    assert not report.passed
    assert report.counterexample == {
        "n": 4,
        "expected_pair": [1, 2],
        "collinear_pairs": [],
        "on_segment": False,
    }


def test_uniquetriple_detects_extra_collinearity():
    # rewrite step 7 to use an excluded parameter: the moved point still
    # sits on its recorded segment (3, 4) but also on two spanned lines
    ps, trace, _ = golden(7)
    crossing = Point(F(1, 3), F(1, 3))
    points = list(ps.points)
    points[6] = crossing
    trace = [
        dataclasses.replace(rec, chosen_t=F(2, 3), point=crossing)
        if rec.n == 7
        else rec
        for rec in trace
    ]
    report = verify_unique_triple_at_insertion(trace, PointSet(points))
    assert not report.passed
    assert report.counterexample == {
        "n": 7,
        "expected_pair": [3, 4],
        "collinear_pairs": [[1, 6], [2, 5], [3, 4]],
        "on_segment": True,
    }


def test_uniquetriple_trace_point_mismatch_is_inconsistency():
    ps, trace, _ = golden(6)
    points = list(ps.points)
    points[3] = Point(F(1, 3), F(1, 3))  # set changed, trace not
    with pytest.raises(ConsistencyError):
        verify_unique_triple_at_insertion(trace, PointSet(points))


def test_uniquetriple_record_count_mismatch_is_inconsistency():
    ps, trace, _ = golden(6)
    with pytest.raises(ConsistencyError):
        verify_unique_triple_at_insertion(trace[:-1], ps)


def test_uniquetriple_nonconsecutive_records_are_inconsistency():
    ps, trace, _ = golden(6)
    trace = [dataclasses.replace(rec, n=rec.n + 1) if rec.n == 5 else rec for rec in trace]
    with pytest.raises(ConsistencyError):
        verify_unique_triple_at_insertion(trace, ps)


def test_uniquetriple_bad_pair_is_inconsistency():
    ps, trace, _ = golden(6)
    trace = [
        dataclasses.replace(rec, pair=OrdinaryPair(2, 2)) if rec.n == 4 else rec
        for rec in trace
    ]
    with pytest.raises(ConsistencyError):
        verify_unique_triple_at_insertion(trace, ps)


# visible-pair lemma


def test_visiblepairlemma_passes_on_generated_run():
    ps, _, _ = golden(8)
    report = verify_visible_pair_lemma(ps)
    assert report.passed
    assert report.stats == {"points": 8, "qualifying_pairs": 10}


def test_visiblepairlemma_vacuous_in_general_position():
    report = verify_visible_pair_lemma(PointSet([(0, 0), (1, 0), (0, 1), (3, 5)]))
    assert report.passed
    assert report.stats["qualifying_pairs"] == 0


def test_visiblepairlemma_ordering_matters():
    # ascending collinear triple: the blocker has the largest index
    report = verify_visible_pair_lemma(PointSet([(0, 0), (1, 0), (2, 0)]))
    assert not report.passed
    assert report.counterexample == {
        "pair": [1, 2],
        "line_points": [1, 2, 3],
        "reason": "third_not_earlier",
    }
    # same points with the blocker inserted last: complies
    assert verify_visible_pair_lemma(PointSet([(0, 0), (2, 0), (1, 0)])).passed


def test_visiblepairlemma_four_collinear():
    report = verify_visible_pair_lemma(PointSet([(0, 0), (1, 0), (2, 0), (3, 0)]))
    assert not report.passed
    assert report.counterexample["reason"] == "four_collinear"
    assert report.counterexample["pair"] == [1, 2]
    assert report.counterexample["line_points"] == [1, 2, 3, 4]


def test_lemma_line_failures_reports_not_between():
    # index 3 at an end of the line: pair (1, 3) has its larger index
    # outside the other two, which the per-line helper must flag; the
    # helper takes the line's indices in order along it
    points = [Point(F(1), F(0)), Point(F(2), F(0)), Point(F(0), F(0))]
    failures = _lemma_line_failures([3, 1, 2], points)
    assert {f["reason"] for f in failures} == {"third_not_earlier", "not_between"}
    by_pair = {tuple(f["pair"]): f["reason"] for f in failures}
    assert by_pair[(1, 3)] == "not_between"
    assert by_pair[(1, 2)] == "third_not_earlier"


# triangle-pending


def test_trianglepending_passes_with_all_pending():
    ps = PointSet(list(DEFAULT_SEED))
    report = verify_triangle_pending(ps, [(1, 2), (1, 3), (2, 3)])
    assert report.passed
    assert report.stats == {
        "points": 3,
        "visible_edges": 3,
        "candidate_edges": 0,
        "violations": 0,
    }


def test_trianglepending_fails_with_empty_pending():
    ps = PointSet(list(DEFAULT_SEED))
    report = verify_triangle_pending(ps, [])
    assert not report.passed
    assert report.counterexample == {"triangle": [1, 2, 3]}
    assert report.stats["violations"] == 1


def test_trianglepending_passes_on_generated_run():
    ps, _, pending = golden(8)
    report = verify_triangle_pending(ps, pending)
    assert report.passed
    assert report.stats == {
        "points": 8,
        "visible_edges": 23,
        "candidate_edges": 10,
        "violations": 0,
    }


def test_trianglepending_matches_naive_triple_scan():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(3, 9)
        pts = set()
        while len(pts) < n:
            pts.add((F(rng.randint(0, 5)), F(rng.randint(0, 5))))
        ps = PointSet(sorted(pts))
        all_pairs = list(combinations(range(1, n + 1), 2))
        pending = {p for p in all_pairs if rng.random() < 0.4}
        report = verify_triangle_pending(ps, pending)

        violations = []
        for a, b, c in combinations(range(1, n + 1), 3):
            edges = [(a, b), (a, c), (b, c)]
            if all(is_visible(i, j, ps) for i, j in edges) and not any(
                e in pending for e in edges
            ):
                violations.append([a, b, c])
        assert report.stats["violations"] == len(violations)
        assert report.passed == (not violations)
        if violations:
            assert report.counterexample == {"triangle": min(violations)}


def test_trianglepending_validates_pending_entries():
    ps = PointSet(list(DEFAULT_SEED))
    with pytest.raises(InputError):
        verify_triangle_pending(ps, [(0, 2)])
    with pytest.raises(InputError):
        verify_triangle_pending(ps, [(2, 2)])
    with pytest.raises(InputError):
        verify_triangle_pending(ps, [(1, 4)])
    with pytest.raises(InputError):
        verify_triangle_pending(ps, [(1, 2, 3)])


# exclusion bound


def test_exclusionbound_passes_on_generated_run():
    _, trace, _ = golden(30)
    report = verify_exclusion_bound(trace)
    assert report.passed
    assert report.stats == {"records": 27}


def test_exclusionbound_detects_overrun():
    _, trace, _ = golden(8)
    bad = [
        dataclasses.replace(rec, excluded_count=comb(rec.n - 3, 2) + 1)
        if rec.n == 7
        else rec
        for rec in trace
    ]
    report = verify_exclusion_bound(bad)
    assert not report.passed
    assert report.counterexample == {"n": 7, "excluded_count": 7, "bound": 6}


def test_exclusionbound_first_record_allows_nothing():
    _, trace, _ = golden(6)
    bad = [
        dataclasses.replace(rec, excluded_count=1) if rec.n == 4 else rec
        for rec in trace
    ]
    report = verify_exclusion_bound(bad)
    assert not report.passed
    assert report.counterexample == {"n": 4, "excluded_count": 1, "bound": 0}


def test_exclusionbound_rejects_negative_counts():
    _, trace, _ = golden(6)
    bad = [dataclasses.replace(trace[0], excluded_count=-1)] + trace[1:]
    assert not verify_exclusion_bound(bad).passed


# ordinary-pair oracle


def test_ordinaryoracle_accepts_correct_selection():
    report = verify_ordinary_oracle(PointSet(list(DEFAULT_SEED)), (1, 2))
    assert report.passed
    assert report.stats == {"points": 3, "ordinary_pairs": 3}


def test_ordinaryoracle_rejects_wrong_selection():
    report = verify_ordinary_oracle(PointSet(list(DEFAULT_SEED)), (1, 3))
    assert not report.passed
    assert report.counterexample == {"selected": [1, 3], "expected": [1, 2]}


def test_ordinaryoracle_rejects_missing_selection():
    report = verify_ordinary_oracle(PointSet(list(DEFAULT_SEED)), None)
    assert not report.passed
    assert report.counterexample == {"selected": None, "expected": [1, 2]}


def test_ordinaryoracle_fails_when_no_ordinary_pair_exists():
    ps = PointSet([(0, 0), (1, 0), (2, 0)])
    report = verify_ordinary_oracle(ps, (1, 2))
    assert not report.passed
    assert report.counterexample == {"selected": [1, 2], "expected": None}
    assert report.stats["ordinary_pairs"] == 0


def test_ordinaryoracle_on_generated_prefix():
    ps, _, _ = golden(6)
    assert verify_ordinary_oracle(ps, (3, 4)).passed


def test_ordinaryoracle_input_validation():
    ps = PointSet(list(DEFAULT_SEED))
    with pytest.raises(InputError):
        verify_ordinary_oracle(PointSet([(0, 0)]), None)
    with pytest.raises(InputError):
        verify_ordinary_oracle(ps, (2, 1))
    with pytest.raises(InputError):
        verify_ordinary_oracle(ps, (1, 4))


def test_trace_selections_pass_on_generated_run():
    ps, trace, _ = golden(25)
    report = verify_trace_selections(ps, trace)
    assert report.passed
    assert report.check == "ordinaryoracle"
    assert report.stats == {"steps": 22, "points": 25}


def test_trace_selections_flag_wrong_step():
    ps, trace, _ = golden(8)
    bad = [
        dataclasses.replace(rec, pair=OrdinaryPair(1, 4)) if rec.n == 7 else rec
        for rec in trace
    ]
    report = verify_trace_selections(ps, bad)
    assert not report.passed
    assert report.counterexample == {
        "selected": [1, 4],
        "expected": [3, 4],
        "n": 7,
    }


def tampered_reports(field):
    """Reports of every check on the 30-point default run, before and
    after one field of one record is edited.  A moved point moves in the
    point set too, or the trace would not match it."""
    state = generate(DEFAULT_SEED, 30)
    points, trace = list(state.points), list(state.trace)
    clean = verify_points(PointSet(points), trace, list(CHECKS))
    n24, n30 = trace[20], trace[26]
    if field == "t":
        trace[20] = dataclasses.replace(n24, chosen_t=F(1, 7))
    elif field == "excluded_count":
        trace[20] = dataclasses.replace(n24, excluded_count=comb(21, 2) + 1)
    elif field == "pair":
        trace[26] = dataclasses.replace(n30, pair=OrdinaryPair(5, 10))
    else:
        # still strictly inside its segment, on no other spanned line
        moved = segment_param_point(points[3], points[9], F(2, 7))
        assert F(2, 7) not in blocking_parameters(PointSet(points[:29]), 4, 10)
        points[29] = moved
        trace[26] = dataclasses.replace(n30, point=moved)
    return clean, verify_points(PointSet(points), trace, list(CHECKS))


@pytest.mark.parametrize("field, failing, counterexample", [
    ("t", {"segmentparameter"},
     {"n": 24, "pair": [3, 9], "t": "1/7", "point": {"x": "1/15", "y": "5/6"},
      "expected_point": {"x": "1/21", "y": "37/42"}}),
    ("excluded_count", {"exclusionbound"},
     {"n": 24, "excluded_count": 211, "bound": 210}),
    ("pair", {"uniquetriple", "ordinaryoracle", "segmentparameter"},
     {"n": 30, "expected_pair": [5, 10], "collinear_pairs": [[4, 10]],
      "on_segment": False}),
    ("point", {"segmentparameter"},
     {"n": 30, "pair": [4, 10], "t": "1/4", "point": {"x": "11/28", "y": "1/28"},
      "expected_point": {"x": "13/32", "y": "1/32"}}),
])
def test_tampered_record_fails_only_its_checks(field, failing, counterexample):
    clean, tampered = tampered_reports(field)
    assert all(r.passed for r in clean)
    assert {r.check for r in tampered if not r.passed} == failing
    for before, after in zip(clean, tampered):
        if after.check not in failing:
            assert after == before
    first = min(failing, key=list(CHECKS).index)
    assert next(r for r in tampered if r.check == first).counterexample == counterexample


def test_segmentparameter_refuses_an_inexact_t():
    ps, trace, _ = golden(8)
    bad = [dataclasses.replace(rec, chosen_t=0.5) if rec.n == 4 else rec for rec in trace]
    with pytest.raises(InputError, match="Fraction"):
        verify_points(ps, bad, ["segmentparameter"])


# whole-run sweep


# Brute-force oracles for the sweep and the per-set checks.  They work from
# the definitions (orientation, betweenness, per-pair visibility) and build
# no incidence map, so they share no code with the check engine beyond the
# exact predicates.


def oracle_lines(points):
    """Every spanned line, as the ascending tuple of all indices on it."""
    idx = range(1, len(points) + 1)
    return {
        tuple(r for r in idx if orientation(points[i - 1], points[j - 1], points[r - 1])
              is Orientation.COLLINEAR)
        for i, j in combinations(idx, 2)
    }


def oracle_line_json(p, q):
    a, b = p.y - q.y, q.x - p.x
    c = a * p.x + b * p.y
    scale = lcm(a.denominator, b.denominator, c.denominator)
    a, b, c = (int(v * scale) for v in (a, b, c))
    g = gcd(a, b, c) * (-1 if a < 0 or (a == 0 and b < 0) else 1)
    return {"a": a // g, "b": b // g, "c": c // g}


def oracle_point_reports(points, pending):
    """no4collinear, visiblepairlemma and trianglepending from definitions."""
    n = len(points)
    lines = oracle_lines(points)
    four = sorted(line for line in lines if len(line) >= 4)
    no4 = VerificationReport(
        "no4collinear",
        not four,
        {"indices": list(four[0]),
         "line": oracle_line_json(points[four[0][0] - 1], points[four[0][1] - 1])}
        if four else None,
        {"points": n, "lines": len(lines), "max_collinear": max(map(len, lines), default=n)},
    )

    visible = build_visibility_graph_naive(PointSet(points)).edges
    line_of = {pair: line for line in lines for pair in combinations(line, 2)}
    qualifying, failures = 0, []
    for i, k in visible:
        line = line_of[(i, k)]
        if len(line) < 3:
            continue
        qualifying += 1
        (third, *_) = [m for m in line if m not in (i, k)]
        if len(line) > 3:
            reason = "four_collinear"
        elif third > k:
            reason = "third_not_earlier"
        elif not on_open_segment(points[k - 1], points[i - 1], points[third - 1]):
            reason = "not_between"
        else:
            continue
        failures.append({"pair": [i, k], "line_points": list(line), "reason": reason})
    lemma = VerificationReport(
        "visiblepairlemma",
        not failures,
        min(failures, key=lambda f: f["pair"]) if failures else None,
        {"points": n, "qualifying_pairs": qualifying},
    )

    candidates = {e for e in visible if e not in pending}
    triangles = [t for t in combinations(range(1, n + 1), 3)
                 if all(e in candidates for e in combinations(t, 2))]
    triangle = VerificationReport(
        "trianglepending",
        not triangles,
        {"triangle": list(triangles[0])} if triangles else None,
        {"points": n, "visible_edges": len(visible),
         "candidate_edges": len(candidates), "violations": len(triangles)},
    )
    return no4, lemma, triangle, failures


def oracle_record_failure(points, rec):
    m, (i, j) = rec.n, rec.pair
    collinear = [[a, b] for a, b in combinations(range(1, m), 2)
                 if orientation(points[a - 1], points[b - 1], points[m - 1])
                 is Orientation.COLLINEAR]
    between = on_open_segment(points[m - 1], points[i - 1], points[j - 1])
    if collinear == [[i, j]] and between:
        return None
    return {"n": m, "expected_pair": [i, j], "collinear_pairs": collinear,
            "on_segment": between}


def oracle_two_point_pairs(points):
    return {line for line in oracle_lines(points) if len(line) == 2}


def oracle_ordinary_pairs(points):
    """Pairs with no third collinear point, in (j, i) order, by scanning
    every pair against every point."""
    n = len(points)
    return [(i, j) for j in range(2, n + 1) for i in range(1, j)
            if all(orientation(points[i - 1], points[j - 1], points[r - 1])
                   is not Orientation.COLLINEAR
                   for r in range(1, n + 1) if r not in (i, j))]


def oracle_selection_report(points, trace):
    """The ordinaryoracle report over a trace, from the reference minimum
    at each record's prefix."""
    failures = []
    for rec in trace:
        ordinary = oracle_ordinary_pairs(points[: rec.n - 1])
        expected = list(ordinary[0]) if ordinary else None
        if list(rec.pair) != expected:
            failures.append({"selected": list(rec.pair), "expected": expected, "n": rec.n})
    return VerificationReport("ordinaryoracle", not failures,
                              failures[0] if failures else None,
                              {"steps": len(trace), "points": len(points)})


def test_sweep_reports_equal_pure_checks():
    snapshots = []
    for state in generate_states(DEFAULT_SEED, 25):
        snapshots.append(
            (list(state.points), list(state.trace), set(state.pending))
        )
    results, final = verify_construction_run(generate_states(DEFAULT_SEED, 25),
                                             checks=list(CHECKS))
    assert len(results) == len(snapshots) == 23
    assert final.n == 25
    for (n, reports), (points, trace, pending) in zip(results, snapshots):
        assert n == len(points)
        no4, lemma, triangle, _ = oracle_point_reports(points, pending)
        records = {"records": len(trace), "points": n}
        unique = [f for f in (oracle_record_failure(points, r) for r in trace) if f]
        bound = [{"n": r.n, "excluded_count": r.excluded_count, "bound": comb(r.n - 3, 2)}
                 for r in trace if not 0 <= r.excluded_count <= comb(r.n - 3, 2)]
        off_segment = [r.n for r in trace if r.point != segment_param_point(
            points[r.pair[0] - 1], points[r.pair[1] - 1], r.chosen_t)]
        assert not off_segment
        assert reports == [
            no4,
            VerificationReport("uniquetriple", not unique, unique[0] if unique else None,
                               records),
            lemma,
            triangle,
            VerificationReport("exclusionbound", not bound, bound[0] if bound else None,
                               {"records": len(trace)}),
            oracle_selection_report(points, trace),
            VerificationReport("segmentparameter", True, None, {"records": len(trace)}),
        ]


ORACLE_SETS = {
    "lattice_5x5": [(x, y) for y in range(5) for x in range(5)],
    "five_on_a_line_plus_two": [(x, 0) for x in range(5)] + [(0, 1), (2, 3)],
    "thirty_on_a_line_plus_two": [(x, 0) for x in range(30)] + [(0, 1), (2, 3)],
}


@pytest.mark.parametrize("name", sorted(ORACLE_SETS))
def test_ordinaryoracle_matches_reference_at_every_prefix(name):
    points = PointSet(ORACLE_SETS[name]).points
    empty_prefixes = 0
    for n in range(2, len(points) + 1):
        ps = PointSet(points[:n])
        ordinary = oracle_ordinary_pairs(points[:n])
        empty_prefixes += not ordinary
        expected = list(ordinary[0]) if ordinary else None
        stats = {"points": n, "ordinary_pairs": len(ordinary)}
        wrong = [[i, j] for i, j in combinations(range(1, n + 1), 2) if [i, j] != expected]
        for selected in [None, expected] + wrong[-1:]:
            passed = expected is not None and selected == expected
            assert verify_ordinary_oracle(ps, selected) == VerificationReport(
                "ordinaryoracle", passed,
                None if passed else {"selected": selected, "expected": expected},
                stats,
            ), (n, selected)
    assert empty_prefixes


FAILING_SETS = {
    "four_collinear": [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1)],
    "third_not_earlier": [(0, 0), (1, 0), (2, 0), (0, 1)],
    "not_between": [(1, 0), (2, 0), (0, 0), (0, 1)],
    # the pending two-point pairs miss every edge of the visible triangle
    # (1, 2, 5): its edges lie on a row, a column and a diagonal
    "unpended_triangle": [(x, y) for y in range(3) for x in range(3)],
    "thirty_on_a_line_plus_two": [(x, 0) for x in range(30)] + [(0, 1), (2, 3)],
}


def fabricated_states(points):
    """Prefix states of a run that placed ``points`` in order: seed first,
    then one insertion record per point, pending = the two-point pairs."""
    points = PointSet(points).points
    trace = [InsertionRecord(n, OrdinaryPair(1, 2), 0, F(1, 2), points[n - 1])
             for n in range(4, len(points) + 1)]
    for n in range(3, len(points) + 1):
        yield SimpleNamespace(points=points[:n], trace=trace[: n - 3],
                              pending=oracle_two_point_pairs(points[:n]))


@pytest.mark.parametrize("name", sorted(FAILING_SETS))
def test_failing_sets_match_oracles_one_shot_and_sweep(name):
    ps = PointSet(FAILING_SETS[name])
    pending = oracle_two_point_pairs(ps.points)
    no4, lemma, triangle, failures = oracle_point_reports(ps.points, pending)
    reasons = {f["reason"] for f in failures}
    assert (name in reasons
            or (name == "unpended_triangle" and not triangle.passed)
            or (name == "thirty_on_a_line_plus_two" and "four_collinear" in reasons))
    one_shot = [verify_no_k_collinear(ps), verify_visible_pair_lemma(ps),
                verify_triangle_pending(ps, pending)]
    assert one_shot == [no4, lemma, triangle]
    results, _ = verify_construction_run(
        fabricated_states(ps.points),
        checks=["no4collinear", "visiblepairlemma", "trianglepending"],
    )
    assert results[-1] == (ps.n, one_shot)


def test_sweep_drops_a_triangle_when_a_point_splits_its_edge():
    # the triangle (1, 2, 3) is there once each of its sides carries a
    # third point, and goes when point 7 lands inside side (1, 2)
    points = PointSet([(0, 0), (4, 0), (0, 4), (8, 0), (0, 8), (-4, 8), (2, 0)]).points
    results, _ = verify_construction_run(fabricated_states(points),
                                         checks=["trianglepending"])
    for n, (report,) in results:
        prefix = points[:n]
        assert report == oracle_point_reports(prefix, oracle_two_point_pairs(prefix))[2], n
    assert [report.passed for _, (report,) in results] == [True, True, True, False, True]


def test_checks_do_not_use_the_incidence_map():
    # the sweep never reads the construction's map: snapshots without one
    # report exactly what the live states do
    snapshots = [SimpleNamespace(points=list(s.points), trace=list(s.trace),
                                 pending=set(s.pending))
                 for s in generate_states(DEFAULT_SEED, 30)]
    ps, trace = PointSet(snapshots[-1].points), snapshots[-1].trace
    live_sweep, _ = verify_construction_run(generate_states(DEFAULT_SEED, 30),
                                            checks=list(CHECKS))
    sweep, _ = verify_construction_run(iter(snapshots), checks=list(CHECKS))
    assert sweep == live_sweep
    assert [n for n, _ in sweep] == list(range(3, 31))
    assert sweep[-1][1] == verify_points(ps, trace, list(CHECKS))
    assert all(r.passed for r in sweep[-1][1])


def test_trianglepending_missing_edge_matches_oracle():
    state = generate(DEFAULT_SEED, 10)
    ps = state.point_set()
    violated = 0
    for pair in sorted(state.pending):
        pending = set(state.pending) - {pair}
        _, _, triangle, _ = oracle_point_reports(ps.points, pending)
        violated += not triangle.passed
        assert verify_triangle_pending(ps, pending) == triangle
    assert violated


def test_sweep_passes_and_covers_every_prefix():
    results, final = verify_construction_run(generate_states(DEFAULT_SEED, 40))
    assert [n for n, _ in results] == list(range(3, 41))
    for n, reports in results:
        assert [r.check for r in reports] == list(CHECK_ORDER)
        assert all(r.passed for r in reports), n
    assert final.points == generate(DEFAULT_SEED, 40).points


def test_sweep_check_subset_and_threshold():
    results, _ = verify_construction_run(
        generate_states(DEFAULT_SEED, 10),
        k=5,
        checks=["no4collinear", "trianglepending"],
    )
    for _, reports in results:
        assert [r.check for r in reports] == ["no5collinear", "trianglepending"]
        assert all(r.passed for r in reports)


def test_sweep_rejects_unknown_check():
    with pytest.raises(InputError):
        verify_construction_run(generate_states(DEFAULT_SEED, 5), checks=["nope"])


def test_sweep_rejects_empty_run():
    with pytest.raises(InputError):
        verify_construction_run([])


def test_sweep_rejects_non_growing_states():
    state = init_state()
    with pytest.raises(ConsistencyError):
        verify_construction_run([state, state])


def test_sweep_rejects_seed_with_records():
    def tampered():
        state = generate(DEFAULT_SEED, 4)
        yield state  # 4 points, claims to be the first state

    with pytest.raises(ConsistencyError):
        verify_construction_run(tampered())


def test_sweep_detects_pending_divergence():
    def tampered():
        for state in generate_states(DEFAULT_SEED, 8):
            if state.n == 6:
                state.lines.covered.add(min(state.pending, key=lambda p: (p[1], p[0])))
            yield state

    with pytest.raises(ConsistencyError) as exc:
        verify_construction_run(tampered())
    assert "pending" in str(exc.value)


def test_sweep_detects_a_covered_pair_swapped_for_a_pending_one():
    # as many pending pairs as the engine has, but not the same ones
    def tampered():
        for state in generate_states(DEFAULT_SEED, 8):
            if state.n == 6:
                before = len(state.pending)
                pending = min(state.pending, key=lambda p: (p[1], p[0]))
                state.lines.covered.remove(min(state.lines.covered))
                state.lines.covered.add(pending)
                assert len(state.pending) == before
            yield state

    with pytest.raises(ConsistencyError, match="pending") as exc:
        verify_construction_run(tampered())
    assert "extra [(1, 2)]" in str(exc.value)


def test_sweep_detects_record_point_mismatch():
    def tampered():
        for state in generate_states(DEFAULT_SEED, 8):
            if state.n == 6:
                state.trace[-1] = dataclasses.replace(
                    state.trace[-1], point=Point(F(9), F(9))
                )
            yield state

    with pytest.raises(ConsistencyError):
        verify_construction_run(tampered())


def test_sweep_holds_only_the_covered_pairs(monkeypatch):
    # each insertion covers three pairs, so both the state's map and the
    # engine's hold 3(n - 3) pairs, and no structure of either is dense
    engines = []

    class Recorded(verifier._Engine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    monkeypatch.setattr(verifier, "_Engine", Recorded)
    results, state = verify_construction_run(generate_states(DEFAULT_SEED, 200))
    (engine,) = engines
    n = 200
    assert all(r.passed for r in results[-1][1])
    for lines in (state.lines, engine.lines):
        assert len(lines.covered) == 3 * (n - 3)
        assert all(len(v) <= 3 * (n - 3) for v in vars(lines).values()
                   if isinstance(v, (set, dict)))
    assert not isinstance(state.pending, (set, frozenset))
    assert len(state.pending) == comb(n, 2) - 3 * (n - 3)
    assert state.pending == engine.lines.two_point


def test_sweep_rejects_repeated_point():
    points = list(DEFAULT_SEED) + [DEFAULT_SEED[0]]
    trace = [InsertionRecord(4, OrdinaryPair(1, 2), 0, F(1, 2), points[3])]
    states = [SimpleNamespace(points=points[:n], trace=trace[: n - 3],
                              pending=oracle_two_point_pairs(points[:n]) if n == 3 else set())
              for n in (3, 4)]
    with pytest.raises(ConsistencyError, match="points 1 and 4 coincide"):
        verify_construction_run(iter(states), checks=["no4collinear"])


def test_report_equality_and_determinism():
    a, _ = verify_construction_run(generate_states(DEFAULT_SEED, 15))
    b, _ = verify_construction_run(generate_states(DEFAULT_SEED, 15))
    assert a == b
    assert isinstance(a[0][1][0], VerificationReport)


# integer arguments


SQUARE = PointSet([(0, 0), (1, 0), (0, 1), (1, 1)])


@pytest.mark.parametrize(
    "call",
    [
        lambda: SQUARE.point(True),
        lambda: SQUARE.point(1.5),
        lambda: generate(DEFAULT_SEED, 5).point(1.5),
        lambda: is_visible(True, 2, SQUARE),
        lambda: is_visible(1.5, 2, SQUARE),
        lambda: blocking_parameters(SQUARE, True, 2),
        lambda: blocking_parameters(SQUARE, 1.5, 2),
        lambda: verify_triangle_pending(SQUARE, [("1", "2")]),
        lambda: verify_triangle_pending(SQUARE, [(True, 2)]),
        lambda: verify_ordinary_oracle(SQUARE, ("1", "2")),
        lambda: verify_ordinary_oracle(SQUARE, (True, 2)),
    ],
    ids=["point-bool", "point-float", "state-point-float", "visible-bool",
         "visible-float", "blocking-bool", "blocking-float", "pending-str",
         "pending-bool", "oracle-str", "oracle-bool"],
)
def test_indices_must_be_ints(call):
    # a bool would act as index 1, and a float or string is no index
    with pytest.raises(InputError, match="must be int"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: verify_no_k_collinear(SQUARE, 3.5),
        lambda: verify_no_k_collinear(SQUARE, "4"),
        lambda: verify_construction_run(generate_states(DEFAULT_SEED, 5), k=3.5),
        lambda: check_blbc_instance(SQUARE, 2.5, 3),
        lambda: check_blbc_instance(SQUARE, 3, 2.5),
        lambda: check_blbc_instance(SQUARE, "3", 3),
        lambda: max_visible_clique(SQUARE, cap=2.5),
        lambda: max_visible_clique(SQUARE, cap=True),
        lambda: generate(DEFAULT_SEED, 4.5),
        lambda: generate(DEFAULT_SEED, "5"),
    ],
    ids=["nokcollinear-float", "nokcollinear-str", "sweep-float", "blbc-k-float",
         "blbc-l-float", "blbc-k-str", "cap-float", "cap-bool", "count-float",
         "count-str"],
)
def test_thresholds_must_be_ints(call):
    # a fractional threshold or count would be compared as given
    with pytest.raises(InputError, match="must be int"):
        call()


# record fields are checked, not trusted


def trace_with(point, **fields):
    """A 6-point run's trace with the record of ``point`` given ``fields``."""
    ps, trace, _ = golden(6)
    return ps, [dataclasses.replace(rec, **fields) if rec.n == point else rec
                for rec in trace]


def test_exclusion_bound_refuses_a_float_point_number():
    _, trace = trace_with(4, n=4.0)
    with pytest.raises(InputError, match="record point number must be int"):
        verify_exclusion_bound(trace)


def test_unique_triple_refuses_a_float_pair_index():
    ps, trace = trace_with(4, pair=OrdinaryPair(1.0, 2))
    with pytest.raises(InputError, match="must be int"):
        verify_unique_triple_at_insertion(trace, ps)


def test_exclusion_bound_refuses_a_bool_excluded_count():
    # True would be judged as 1, within the bound C(2, 2) = 1 at point 5
    _, trace = trace_with(5, excluded_count=True)
    with pytest.raises(InputError, match="record excluded_count must be int"):
        verify_exclusion_bound(trace)
