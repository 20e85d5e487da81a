import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from blbc.construction import DEFAULT_SEED, generate
from blbc.errors import DuplicatePointError, ImpossibleStateError, InputError
from blbc.geometry import Point, line_through
from blbc.visibility import (
    BlbcOutcome,
    LineIncidenceMap,
    PointSet,
    TwoPointPairs,
    VisibilityGraph,
    _assert_pairwise_visible,
    blocking_parameters,
    build_visibility_graph,
    build_visibility_graph_naive,
    check_blbc_instance,
    is_visible,
    max_collinear,
    max_visible_clique,
)

F = Fraction
GRID = [(x, y) for y in range(3) for x in range(3)]


def random_point_set(rng, n, pool=6):
    """Distinct points drawn from a small grid so collinear triples occur."""
    pts = set()
    while len(pts) < n:
        pts.add(
            (
                Fraction(rng.randint(-pool, pool), rng.randint(1, 3)),
                Fraction(rng.randint(-pool, pool), rng.randint(1, 3)),
            )
        )
    return PointSet(sorted(pts))


# PointSet


def test_point_set_basics():
    ps = PointSet([(0, 0), (1, 0), (Fraction(1, 2), 2)])
    assert ps.n == 3
    assert len(ps) == 3
    assert ps.point(1) == Point(Fraction(0), Fraction(0))
    assert ps.point(3) == Point(Fraction(1, 2), Fraction(2))
    assert list(ps) == list(ps.points)


def test_point_set_rejects_duplicates_naming_both_indices():
    with pytest.raises(DuplicatePointError) as exc:
        PointSet([(0, 0), (1, 1), (0, 0)])
    assert "1" in str(exc.value) and "3" in str(exc.value)


def test_point_set_rejects_inexact_coordinates():
    with pytest.raises(InputError):
        PointSet([(0.5, 0)])
    with pytest.raises(InputError):
        PointSet([(True, 0)])
    with pytest.raises(InputError):
        PointSet([("1/2", 0)])


def test_point_index_range():
    ps = PointSet([(0, 0), (1, 1)])
    with pytest.raises(InputError):
        ps.point(0)
    with pytest.raises(InputError):
        ps.point(3)


def test_point_set_equality():
    assert PointSet([(0, 0), (1, 1)]) == PointSet([(0, 0), (1, 1)])
    assert PointSet([(0, 0), (1, 1)]) != PointSet([(1, 1), (0, 0)])


# LineIncidenceMap


def all_lines(lmap):
    """Ascending member list of every line of the map."""
    return [list(pair) for pair in lmap.two_point] + list(lmap.multi.values())


def test_incidence_map_collects_collinear_indices():
    ps = PointSet([(0, 0), (1, 0), (2, 0), (0, 1)])
    lmap = LineIncidenceMap.from_point_set(ps)
    assert lmap.multi == {(1, 2): [1, 2, 3]}
    # lines: x-axis, plus one per pair with point 4
    assert len(lmap) == 4
    assert sum(comb(len(lst), 2) for lst in all_lines(lmap)) == comb(4, 2)


def test_incidence_map_pair_partition_random():
    rng = random.Random(3)
    for _ in range(25):
        ps = random_point_set(rng, rng.randint(2, 12))
        lmap = LineIncidenceMap.from_point_set(ps)
        assert sum(comb(len(lst), 2) for lst in all_lines(lmap)) == comb(ps.n, 2)
        for idxs in all_lines(lmap):
            assert idxs == sorted(idxs)
            assert len(idxs) >= 2
            line = line_through(ps.point(idxs[0]), ps.point(idxs[1]))
            for i in idxs:
                assert line.contains(ps.point(i))
        for i, j in combinations(range(1, ps.n + 1), 2):
            others = [r for r in range(1, ps.n + 1) if r not in (i, j)]
            line = line_through(ps.point(i), ps.point(j))
            assert ((i, j) in lmap.two_point) == (
                not any(line.contains(ps.point(r)) for r in others))


def test_two_point_pairs_and_multi_entries():
    lmap = LineIncidenceMap.from_point_set(PointSet([(0, 0), (1, 0), (2, 0), (0, 1)]))
    assert list(lmap.multi.values()) == [[1, 2, 3]]
    assert lmap.two_point_pairs() == {(1, 4), (2, 4), (3, 4)}
    # a copy: changing it leaves the map alone
    lmap.two_point_pairs().clear()
    assert len(lmap) == 4


def test_advance_reports_the_lines_it_joined():
    ps = PointSet([(0, 0), (2, 0), (0, 2), (1, 0), (0, 1), (1, 1)])
    lmap = LineIncidenceMap(ps.homogeneous())
    assert [lmap.advance(n).through for n in range(1, 5)] == [[], [], [], [[1, 2]]]
    assert lmap.advance(5).through == [[1, 3]]
    # (1, 1) lies on the line through (2, 0) and (0, 2) only
    assert lmap.advance(6).through == [[2, 3]]
    assert lmap.multi == LineIncidenceMap.from_point_set(ps).multi
    assert lmap.two_point == LineIncidenceMap.from_point_set(ps).two_point


def brute_two_point(points):
    """Pairs (i < j) of ``points`` with no third point on their line."""
    return {
        (i, j)
        for i, j in combinations(range(1, len(points) + 1), 2)
        if not any(line_through(points[i - 1], points[j - 1]).contains(p)
                   for r, p in enumerate(points, start=1) if r not in (i, j))
    }


@st.composite
def collinear_rich_points(draw):
    """A few small grid points, then forced collinear triples (one more
    point on a pair's line) and quadruples (two more), in any order."""
    small = st.integers(-4, 4)
    base = draw(st.lists(st.tuples(small, small), min_size=2, max_size=6, unique=True))
    points = [Point(F(x), F(y)) for x, y in base]
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.sampled_from(points)), draw(st.sampled_from(points))
        ts = draw(st.sampled_from([(F(1, 2),), (F(2),), (F(1, 3), F(2, 3)), (F(-1), F(1, 2))]))
        if a != b:
            points += [Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)) for t in ts]
    return draw(st.permutations(list(dict.fromkeys(points))))


@settings(max_examples=60, deadline=None)
@given(collinear_rich_points(), st.sampled_from(["none", "cover", "uncover", "swap", "junk"]))
def test_two_point_view_agrees_with_brute_force(points, tamper):
    lmap = LineIncidenceMap.from_point_set(points)
    view, expected = lmap.two_point, brute_two_point(points)
    n = len(points)
    assert isinstance(view, TwoPointPairs)
    assert len(lmap.covered) == sum(comb(len(m), 2) for m in lmap.multi.values())
    probes = [(i, j) for i in range(-1, n + 3) for j in range(-1, n + 3)]
    assert [p in view for p in probes] == [p in expected for p in probes]
    assert [1, 2] not in view and (1, 2, 3) not in view and "12" not in view
    assert len(view) == len(expected)
    assert list(view) == sorted(expected, key=lambda p: (p[1], p[0]))
    assert view == expected and expected == view and not view != expected
    assert view == lmap.two_point_pairs() and view != expected | {(n, n + 1)}

    # against another map's view: over the same points, then over one
    # point less, with one map's covered pairs written to from outside
    same = LineIncidenceMap.from_point_set(points)
    fewer = LineIncidenceMap.from_point_set(points[:-1])
    covered = same.covered
    if tamper == "cover" and expected:
        covered.add(min(expected))
    elif tamper == "uncover" and covered:
        covered.discard(min(covered))
    elif tamper == "swap" and covered and expected:
        pair = min(expected)
        covered.discard(min(covered))
        covered.add(pair)
    elif tamper == "junk":
        covered.update({(2, 1), (0, 1), (n, n + 1)})
    for other in (same.two_point, fewer.two_point):
        plain = set(other)
        assert (view == other) == (expected == plain) == (other == view)
        assert (view != other) == (expected != plain)
        assert (other == expected) == (plain == expected)


def test_two_point_view_is_read_only_and_live():
    lmap = LineIncidenceMap(PointSet([(0, 0), (1, 0), (2, 0), (0, 1)]).homogeneous())
    view = lmap.two_point
    assert not hasattr(view, "add") and not hasattr(view, "discard")
    assert list(view) == [] and len(view) == 0
    lmap.advance(2)
    assert list(view) == [(1, 2)]
    lmap.advance(4)
    assert list(view) == [(1, 4), (2, 4), (3, 4)] and len(view) == 3
    assert view - {(1, 4)} == {(2, 4), (3, 4)} and isinstance(view - set(), set)
    assert view != [(1, 4), (2, 4), (3, 4)]


def test_from_point_set_reads_raw_sequences_through_point_set():
    raw = [Point(Fraction(0), Fraction(0)), (1, 0), (Fraction(1, 2), 3)]
    from_raw = LineIncidenceMap.from_point_set(raw)
    from_set = LineIncidenceMap.from_point_set(PointSet(raw))
    assert (from_raw.two_point, from_raw.multi) == (from_set.two_point, from_set.multi)
    with pytest.raises(DuplicatePointError, match="points 1 and 2"):
        LineIncidenceMap.from_point_set([Point(0, 0), Point(0, 0)])


def test_max_collinear_breaks_ties_to_smallest_indices():
    # two 3-point lines: y=0 carries {1,2,3}, x=0 carries {1,4,5}
    ps = PointSet([(0, 0), (1, 0), (2, 0), (0, 1), (0, 2)])
    assert max_collinear(ps) == (3, [1, 2, 3])
    # y=0 {1,3,4} is completed before x=0 {1,2,5}; the smaller list wins
    ps = PointSet([(0, 0), (0, 1), (1, 0), (2, 0), (0, 2)])
    assert max_collinear(ps) == (3, [1, 2, 5])


# is_visible and graph builders


def test_is_visible_blocked_by_middle_point():
    ps = PointSet([(0, 0), (1, 0), (2, 0)])
    assert is_visible(1, 2, ps)
    assert is_visible(2, 3, ps)
    assert not is_visible(1, 3, ps)


def test_is_visible_rejects_equal_indices():
    ps = PointSet([(0, 0), (1, 0)])
    with pytest.raises(InputError):
        is_visible(1, 1, ps)
    with pytest.raises(InputError):
        is_visible(0, 1, ps)


def test_grid_visibility_graph():
    ps = PointSet(GRID)
    naive = build_visibility_graph_naive(ps)
    fast = build_visibility_graph(ps)
    assert naive == fast
    assert fast.edge_count == 28
    blocked = {(1, 3), (1, 7), (1, 9), (2, 8), (3, 7), (3, 9), (4, 6), (7, 9)}
    edges = set(fast.edges)
    for i, j in combinations(range(1, 10), 2):
        assert ((i, j) in edges) == ((i, j) not in blocked)


def test_builders_agree_on_random_sets():
    rng = random.Random(11)
    for _ in range(40):
        ps = random_point_set(rng, rng.randint(2, 10))
        assert build_visibility_graph(ps) == build_visibility_graph_naive(ps)


def test_graph_edges_match_pairwise_predicate():
    rng = random.Random(12)
    for _ in range(15):
        ps = random_point_set(rng, rng.randint(2, 9))
        edges = set(build_visibility_graph(ps).edges)
        for i, j in combinations(range(1, ps.n + 1), 2):
            assert ((i, j) in edges) == is_visible(i, j, ps)


def test_general_position_graph_is_complete():
    # no 3 collinear: every pair visible
    ps = PointSet([(0, 0), (1, 0), (0, 1), (3, 5)])
    graph = build_visibility_graph(ps)
    assert graph.edge_count == comb(4, 2)


def test_inserting_blocker_removes_edge():
    ps = PointSet([(0, 0), (2, 2), (5, 0)])
    assert (1, 2) in set(build_visibility_graph(ps).edges)
    extended = PointSet(list(ps.points) + [Point(Fraction(1), Fraction(1))])
    edges = set(build_visibility_graph(extended).edges)
    assert (1, 2) not in edges
    assert (1, 4) in edges and (2, 4) in edges


def test_visibility_graph_interface():
    graph = VisibilityGraph(3, [(2, 1), (2, 3)])
    assert graph.edges == ((1, 2), (2, 3))
    assert [list(e) for e in graph.edges] == [[1, 2], [2, 3]]
    edges = set(graph.edges)
    assert (1, 2) in edges
    assert (1, 3) not in edges
    assert graph.adjacency()[2] == {1, 3}
    assert len(graph.adjacency()[2]) == 2 and len(graph.adjacency()[1]) == 1
    assert graph.edge_count == 2
    adj = graph.adjacency()
    adj[1].add(99)  # fresh sets, not a view
    assert graph.adjacency()[1] == {2}


@pytest.mark.parametrize("edge", [(1, 5), (0, 1), (2, 2), (1.0, 2)])
def test_visibility_graph_refuses_bad_edges(edge):
    with pytest.raises(InputError):
        VisibilityGraph(3, [edge])


def test_visibility_graph_refuses_bad_vertex_count():
    for n, edges in [(2.5, [(1, 2)]), ("3", []), (True, []), (-2, [])]:
        with pytest.raises(InputError):
            VisibilityGraph(n, edges)


def test_clique_witness_check_matches_is_visible():
    rng = random.Random(11)
    for _ in range(30):
        ps = random_point_set(rng, rng.randint(3, 12), pool=1)  # 8 of 30 blocked
        witness = sorted(rng.sample(range(1, ps.n + 1), rng.randint(2, min(5, ps.n))))
        ok = all(is_visible(a, b, ps) for a, b in combinations(witness, 2))
        if ok:
            _assert_pairwise_visible(ps, witness)
        else:
            with pytest.raises(ImpossibleStateError, match="invisible pair"):
                _assert_pairwise_visible(ps, witness)


# max_collinear / max_visible_clique


def test_max_collinear_examples():
    assert max_collinear(PointSet([(0, 0), (1, 0), (0, 1)])) == (2, [1, 2])
    assert max_collinear(PointSet([(0, 0), (1, 0), (2, 0), (0, 1)])) == (3, [1, 2, 3])
    assert max_collinear(PointSet(GRID)) == (3, [1, 2, 3])


def test_max_collinear_needs_two_points():
    with pytest.raises(InputError):
        max_collinear(PointSet([(0, 0)]))


def test_max_collinear_witness_is_collinear():
    rng = random.Random(4)
    for _ in range(20):
        ps = random_point_set(rng, rng.randint(2, 10))
        size, witness = max_collinear(ps)
        assert len(witness) == size >= 2
        if size >= 3:
            line = line_through(ps.point(witness[0]), ps.point(witness[1]))
            assert all(line.contains(ps.point(i)) for i in witness[2:])


def test_check_blbc_instance_makes_one_line_pass(monkeypatch):
    # one analysis reads the collinear witness and the visibility graph off
    # one pass, feeding each point once
    sets = [generate(DEFAULT_SEED, 30).point_set(), PointSet(GRID)]
    expected = [(max_collinear(ps), max_visible_clique(ps, cap=4)) for ps in sets]
    fed = []
    advance = LineIncidenceMap.advance

    def counting(self, n):
        fed.append(max(n - self.n, 0))
        return advance(self, n)

    monkeypatch.setattr(LineIncidenceMap, "advance", counting)
    for ps, (collinear, clique) in zip(sets, expected):
        fed.clear()
        verdict = check_blbc_instance(ps, 4, 3)
        assert sum(fed) == ps.n
        assert (verdict.collinear_size, verdict.clique_size) == (collinear[0], clique[0])
        assert verdict.clique_witness == clique[1]
    assert expected[1][0] == (3, [1, 2, 3])


def test_max_visible_clique_grid():
    assert max_visible_clique(PointSet(GRID)) == (4, [1, 2, 4, 5])


def test_max_visible_clique_cap():
    ps = PointSet(GRID)
    size, witness = max_visible_clique(ps, cap=2)
    assert size == 2 and len(witness) == 2
    assert max_visible_clique(ps, cap=10) == (4, [1, 2, 4, 5])


def test_max_visible_clique_witness_pairwise_visible():
    rng = random.Random(5)
    for _ in range(15):
        ps = random_point_set(rng, rng.randint(1, 9))
        size, witness = max_visible_clique(ps)
        assert len(witness) == size
        for a, b in combinations(witness, 2):
            assert is_visible(a, b, ps)


# check_blbc_instance


def test_verdict_clique_found():
    verdict = check_blbc_instance(PointSet([(0, 0), (1, 0), (0, 1)]), k=3, l=3)
    assert verdict.outcome is BlbcOutcome.CLIQUE_FOUND
    assert verdict.clique_witness == [1, 2, 3]
    assert verdict.collinear_witness is None
    assert (verdict.collinear_size, verdict.clique_size) == (2, 3)


def test_verdict_collinear_found():
    verdict = check_blbc_instance(PointSet([(0, 0), (1, 0), (2, 0)]), k=3, l=3)
    assert verdict.outcome is BlbcOutcome.COLLINEAR_FOUND
    assert verdict.collinear_witness == [1, 2, 3]
    assert verdict.clique_witness is None


def test_verdict_both_found():
    # 3 collinear and a visible triangle
    verdict = check_blbc_instance(PointSet([(0, 0), (1, 0), (2, 0), (0, 1)]), k=3, l=3)
    assert verdict.outcome is BlbcOutcome.BOTH_FOUND
    assert verdict.collinear_witness == [1, 2, 3]
    assert verdict.clique_witness is not None


def test_verdict_neither_found():
    verdict = check_blbc_instance(PointSet([(0, 0), (1, 0), (0, 1)]), k=5, l=5)
    assert verdict.outcome is BlbcOutcome.NEITHER_FOUND
    assert verdict.collinear_witness is None and verdict.clique_witness is None


def test_verdict_grid():
    verdict = check_blbc_instance(PointSet(GRID), k=4, l=4)
    assert verdict.outcome is BlbcOutcome.CLIQUE_FOUND
    assert verdict.collinear_size == 3
    assert verdict.clique_size == 4
    assert verdict.clique_witness == [1, 2, 4, 5]


def test_verdict_thresholds_split_correctly():
    # 4 collinear points, max clique 3: k and l must not be interchangeable
    ps = PointSet([(0, 0), (1, 0), (2, 0), (3, 0), (0, 1)])
    assert check_blbc_instance(ps, k=4, l=4).outcome is BlbcOutcome.COLLINEAR_FOUND
    assert check_blbc_instance(ps, k=3, l=5).outcome is BlbcOutcome.CLIQUE_FOUND


def test_verdict_clique_size_is_capped_at_k():
    verdict = check_blbc_instance(PointSet([(0, 0), (1, 0), (0, 1), (3, 5)]), k=2, l=9)
    assert verdict.clique_size == 2
    assert verdict.outcome is BlbcOutcome.CLIQUE_FOUND


def test_verdict_json_dict():
    doc = check_blbc_instance(PointSet(GRID), k=4, l=4).to_json_dict()
    assert doc == {
        "k": 4,
        "l": 4,
        "outcome": "CliqueFound",
        "collinear_size": 3,
        "clique_size": 4,
        "collinear_witness": None,
        "clique_witness": [1, 2, 4, 5],
    }


def test_verdict_threshold_validation():
    ps = PointSet([(0, 0), (1, 0)])
    with pytest.raises(InputError):
        check_blbc_instance(ps, k=1, l=3)
    with pytest.raises(InputError):
        check_blbc_instance(ps, k=3, l=1)


def test_single_point_instance():
    verdict = check_blbc_instance(PointSet([(0, 0)]), k=2, l=2)
    assert verdict.outcome is BlbcOutcome.NEITHER_FOUND
    assert (verdict.collinear_size, verdict.clique_size) == (1, 1)


# blocking_parameters


def test_blocking_parameters_example():
    ps = PointSet([(0, 0), (4, 0), (0, 4), (1, 1)])
    assert blocking_parameters(ps, 1, 2) == {Fraction(1, 3)}


def test_blocking_parameters_empty_for_triangle():
    ps = PointSet([(0, 0), (1, 0), (0, 1)])
    assert blocking_parameters(ps, 1, 2) == set()


def test_blocking_parameters_mark_exactly_the_collinear_placements():
    # restricted to pairs on two-point lines, where an unblocked placement
    # must create exactly the one triple {i, new, j}
    rng = random.Random(6)
    trials = 0
    while trials < 12:
        ps = random_point_set(rng, rng.randint(4, 8))
        pairs = sorted(LineIncidenceMap.from_point_set(ps).two_point_pairs())
        if not pairs:
            continue
        i, j = pairs[rng.randrange(len(pairs))]
        trials += 1
        banned = blocking_parameters(ps, i, j)
        a, b = ps.point(i), ps.point(j)
        for num in range(1, 8):
            for den in range(num + 1, 9):
                t = Fraction(num, den)
                cand = Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
                if any(cand == p for p in ps.points):
                    continue
                extended = PointSet(list(ps.points) + [cand])
                # count collinear pairs through the new point, the last fed
                through = LineIncidenceMap.from_point_set(extended).through
                pairs = sum(comb(len(group), 2) for group in through)
                assert (pairs > 1) == (t in banned), (tuple(ps.points), (i, j), t)
