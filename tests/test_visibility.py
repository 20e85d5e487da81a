import copy
import random
from bisect import insort
from fractions import Fraction
from itertools import combinations
from math import comb, gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from blbc import visibility
from blbc.clique import find_max_clique
from blbc.construction import DEFAULT_SEED, generate
from blbc.errors import DuplicatePointError, ImpossibleStateError, InputError
from blbc.geometry import Orientation, Point, line_through, on_open_segment, orientation
from blbc.svgrender import render_svg
from blbc.visibility import (
    BlbcOutcome,
    LineIncidenceMap,
    PointSet,
    TwoPointPairs,
    VisibilityGraph,
    _assert_pairwise_visible,
    _largest_clique,
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


def test_point_set_refuses_a_repeat_written_another_way():
    with pytest.raises(DuplicatePointError) as exc:
        PointSet([(1, 2), (0, 0), (Fraction(4, 4), Fraction(2))])
    assert str(exc.value) == "points 1 and 3 are both (1, 2)"


def test_point_set_rejects_inexact_coordinates():
    with pytest.raises(InputError):
        PointSet([(0.5, 0)])
    with pytest.raises(InputError):
        PointSet([(True, 0)])
    with pytest.raises(InputError):
        PointSet([("1/2", 0)])


class Half(Fraction):
    """A Fraction subclass: an exact value, but not of type Fraction."""


def test_an_exact_point_is_taken_as_it_is():
    p = Point(F(1, 2), F(3))
    assert visibility._coerce_point(p, 1) is p
    assert PointSet([p]).point(1) is p
    # each record holds the point the state holds, not a copy of it
    state = generate(DEFAULT_SEED, 8)
    assert all(rec.point is state.points[rec.n - 1] for rec in state.trace)


@pytest.mark.parametrize("raw", [Point(1, 2), Point(F(1), 2), (F(1), F(2)), Point(Half(1), F(2))])
def test_any_other_exact_pair_is_copied_into_fractions(raw):
    p = visibility._coerce_point(raw, 1)
    assert p is not raw and p == Point(F(1), F(2))
    assert (type(p), type(p.x), type(p.y)) == (Point, Fraction, Fraction)


def test_a_bool_coordinate_is_refused_in_a_point_too():
    with pytest.raises(InputError, match=r"^point 4 has a non-rational coordinate True; "
                       "coordinates must be int or Fraction to stay exact$"):
        visibility._coerce_point(Point(True, 0), 4)


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
    """Member list of every line of the map, two-point lines ascending and
    the others in order along the line."""
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
            assert len(idxs) >= 2
            for a, b, c in zip(idxs, idxs[1:], idxs[2:]):
                assert on_open_segment(ps.point(b), ps.point(a), ps.point(c))
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


SMALL = st.integers(-4, 4)
SMALL_GRID = st.lists(st.tuples(SMALL, SMALL), min_size=2, max_size=6, unique=True).map(
    lambda base: [Point(F(x), F(y)) for x, y in base])


@st.composite
def collinear_rich_points(draw, base=SMALL_GRID):
    """A few points that ``base`` draws, small grid points by default,
    then forced collinear triples (one more point on a pair's line) and
    quadruples (two more), in any order."""
    points = list(draw(base))
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


@settings(max_examples=60, deadline=None)
@given(collinear_rich_points())
def test_visible_pairs_are_the_naive_edges(points):
    # compared as lists: a pair yielded twice, as (j, i), or out of
    # ascending (i, j) order fails here
    lmap = LineIncidenceMap.from_point_set(points)
    assert list(lmap.visible()) == list(build_visibility_graph_naive(PointSet(points)).edges)


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


def test_advance_refuses_a_repeated_point():
    # the third triple is the origin again, written with W = 2
    lmap = LineIncidenceMap([(0, 0, 1), (1, 0, 1), (0, 0, 2)])
    with pytest.raises(DuplicatePointError, match="^points 1 and 3 coincide$"):
        lmap.advance(3)
    assert lmap.n == 2 and not lmap.covered
    p61, p89, p107 = 2**61 - 1, 2**89 - 1, 2**107 - 1  # Mersenne primes
    for hom, den in (
        # (0, 1) again, on the vertical line through it that 1 and 3 share
        ([(0, 0, 1), (0, 1, 1), (0, 3, 1), (0, 1, 1)], 1),
        # (3, 2) again, with an |X| and a W above those of every point fed
        ([(0, 0, 1), (3, 2, 1), (1, 5, 1), (9, 6, 3)], 1),
        # (1, 0) again, after a rescale to L = 3, and with a W that would
        # rescale L to 6
        ([(0, 0, 1), (1, 0, 1), (1, 1, 3), (2, 0, 2)], 3),
        # (1/2, 0) again, after rescales to L = 6, with a W dividing L
        ([(0, 0, 1), (1, 0, 2), (1, 1, 3), (3, 0, 6)], 6),
        # (0, 1/p89) again, after the common denominator is dropped
        ([(1, 0, p61), (0, 1, p89), (1, 1, p107), (0, 2, 2 * p89)], None),
    ):
        lmap = LineIncidenceMap(hom).advance(3)
        assert (lmap._common and lmap._common.den) == den
        fed = copy.deepcopy(vars(lmap))  # the key bounds included
        with pytest.raises(DuplicatePointError, match="^points 2 and 4 coincide$"):
            lmap.advance(4)
        assert vars(lmap) == fed


def test_advance_refuses_to_feed_past_the_points_held():
    lmap = LineIncidenceMap([(0, 0, 1), (1, 0, 1)])
    with pytest.raises(InputError, match="^cannot feed point 3: the map holds 2 points$"):
        lmap.advance(3)
    assert lmap.n == 0


def three_on_a_line_map():
    """Points 1, 2 and 3 on the x-axis, 4 and 5 off it, three fed."""
    lmap = LineIncidenceMap(PointSet([(0, 0), (1, 0), (2, 0), (0, 1), (3, 5)]).homogeneous())
    assert lmap.advance(3).through == [[1, 2]]
    return lmap


@pytest.mark.parametrize("n", [2, 0, -4])
def test_advance_refuses_to_go_back(n):
    # a stale ``through`` would still describe point 3
    lmap = three_on_a_line_map()
    with pytest.raises(InputError, match=f"^cannot feed up to point {n}: 3 points are fed already$"):
        lmap.advance(n)
    assert lmap.n == 3 and lmap.through == [[1, 2]]


def test_advance_to_the_points_fed_changes_nothing():
    lmap = three_on_a_line_map()
    assert lmap.advance(3).through == [[1, 2]] and lmap.n == 3


@pytest.mark.parametrize("n", [True, 4.0, "4"])
def test_advance_refuses_a_non_int_count(n):
    # True would feed one point, as if it were 1
    lmap = LineIncidenceMap(PointSet([(0, 0), (1, 0), (2, 0)]).homogeneous())
    with pytest.raises(InputError, match="^point count must be int"):
        lmap.advance(n)
    assert lmap.n == 0


def test_line_refuses_a_key_that_is_not_a_pair_of_the_points_fed():
    # unchecked, (0, 1) read point 4 as point 0 and named 7x - 5y = 0,
    # (1, 1) divided by zero and (2, 9) indexed past the points
    lmap = LineIncidenceMap.from_point_set([(0, 0), (1, 0), (0, 1), (5, 7)])
    for key in [(0, 1), (1, 1), (2, 9)]:
        with pytest.raises(InputError, match=r"^line key \(\d, \d\) is not two indices"):
            lmap.line(key)
    assert lmap.line((1, 4)) == line_through(Point(F(0), F(0)), Point(F(5), F(7)))


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


@pytest.mark.parametrize("edge", [(1, 5), (0, 1), (2, 2), (1.0, 2), (1, 0), (4, 2)])
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


def test_analysis_and_render_build_no_visibility_graph(monkeypatch):
    # the readers take the visible pairs from the map; a VisibilityGraph
    # is only what the graph builders return
    sets = [generate(DEFAULT_SEED, 40).point_set(),
            PointSet([(x, y) for y in range(6) for x in range(6)])]

    def outputs(ps):
        return (check_blbc_instance(ps, 5, 4), max_visible_clique(ps),
                max_visible_clique(ps, cap=3), render_svg(ps, "visibility"))

    expected = [outputs(ps) for ps in sets]

    def refuse(self, n, edges):
        raise AssertionError("a VisibilityGraph was built")

    monkeypatch.setattr(VisibilityGraph, "__init__", refuse)
    assert [outputs(ps) for ps in sets] == expected


@st.composite
def construction_prefixes(draw):
    """A short run from a random seed of small rationals: the points that
    the selection cursor has passed see every point."""
    small = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
    seed = draw(st.lists(st.tuples(small, small), min_size=3, max_size=3, unique=True))
    assume(orientation(*(Point(*p) for p in seed)) is not Orientation.COLLINEAR)
    return list(generate(seed, draw(st.integers(3, 22))).points)


def j_then_i(pair):
    return pair[1], pair[0]


# three points on the x-axis, one off it, then a fourth on the axis
LINE_THEN_OFF = [Point(F(x), F(y)) for x, y in [(0, 0), (1, 0), (2, 0), (0, 1), (3, 0)]]


@settings(max_examples=60, deadline=None)
@given(construction_prefixes() | collinear_rich_points(),
       st.lists(st.integers(0, 24), max_size=8))
@example(LINE_THEN_OFF, [3, 4])
def test_least_reads_the_walk_from_its_cursor(points, stops):
    # fed up to each stop in turn, and asked twice there: least() is the
    # least two-point pair in (j, i) order, also after an ask at 0, 1 or
    # 3 collinear points found none and put its cursor past every pair
    lmap = LineIncidenceMap(PointSet(points).homogeneous())
    for m in [0, *sorted(min(m, len(points)) for m in stops), len(points)]:
        lmap.advance(m)
        pairs = list(lmap.two_point)
        assert pairs == sorted(pairs, key=j_then_i)
        least = min(pairs, key=j_then_i, default=None)
        assert lmap.least() == least and lmap.least() == least


@settings(max_examples=60, deadline=None)
@given(construction_prefixes().map(lambda p: (p, True))
       | collinear_rich_points().map(lambda p: (p, False)))
def test_blocked_partners_are_the_pairs_the_naive_graph_leaves_out(drawn):
    points, constructed = drawn
    ps = PointSet(points)
    partners = LineIncidenceMap.from_point_set(ps).blocked()
    pairs = {(i, j) for i, near in partners.items() for j in near if i < j}
    assert all(near and all(i in partners[j] for j in near) for i, near in partners.items())
    naive = set(build_visibility_graph_naive(ps).edges)
    assert pairs == set(combinations(range(1, ps.n + 1), 2)) - naive
    if constructed:
        assert len(pairs) == ps.n - 3


def reference_grouping(hom):
    """The map's grouping written with gcd and Fraction: each earlier
    point keyed by its reduced direction from the new one, each line's
    members ordered by their exact position along that direction.
    Returns ``through`` after each point fed, then ``multi`` and
    ``covered``."""
    throughs, multi, covered = [], {}, set()
    for m in range(1, len(hom) + 1):
        hx, hy, hw = hom[m - 1]
        buckets = {}
        for r in range(1, m):
            rx, ry, rw = hom[r - 1]
            dx, dy = rx * hw - hx * rw, ry * hw - hy * rw
            g = gcd(dx, dy)
            if dx < 0 or (dx == 0 and dy < 0):
                g = -g
            buckets.setdefault((dx // g, dy // g), []).append(r)
        through = []
        for (ux, uy), group in buckets.items():
            if len(group) == 1:
                continue
            through.append(group)

            def along(r, ux=ux, uy=uy):
                x, y, w = hom[r - 1]
                return Fraction(ux * x + uy * y, w)

            key = (group[0], group[1])
            if len(group) == 2:
                multi[key] = sorted([*group, m], key=along)
                covered.add(key)
            else:
                insort(multi[key], m, key=along)
            covered.update((r, m) for r in group)
        throughs.append(through)
    return throughs, multi, covered


WIDE = st.builds(F, st.integers(-2**200, 2**200), st.integers(1, 2**200))


@st.composite
def wide_collinear_rich_points(draw):
    """`collinear_rich_points` under x -> a·x + c, y -> b·y + d, with a, b,
    c, d rationals of numerators and denominators up to 200 bits: every
    collinearity is kept, vertical and horizontal lines included."""
    a, b = draw(WIDE.filter(bool)), draw(WIDE.filter(bool))
    c, d = draw(WIDE), draw(WIDE)
    return [Point(a * p.x + c, b * p.y + d) for p in draw(collinear_rich_points())]


# the ten largest primes below 2^64
PRIMES_64 = [2**64 - k for k in (59, 83, 95, 179, 189, 257, 279, 323, 353, 363)]


@st.composite
def prime_denominator_points(draw):
    """Nine or ten points, each over its own prime near 2^64, then forced
    collinear points: L, the lcm of the W's, outgrows 2·bits(max W) + 32,
    so the map drops its common denominator.  A forced point brings no new
    prime and a W under 2^261 (four primes times 27), so nine primes, over
    2^575, are always past the bound; six were not, a forced W of three
    primes held 384 bits of L within 2·192 + 32."""
    primes = draw(st.permutations(PRIMES_64))[:draw(st.integers(9, 10))]
    base = [Point(F(draw(st.integers(1, p - 1)), p), F(draw(st.integers(1 - p, p - 1)), p))
            for p in primes]
    return draw(collinear_rich_points(st.just(base)))


LATE_PRIMES = [2**31 - 1, 2**61 - 1]


@st.composite
def late_prime_points(draw):
    """Points over small denominators, then two on the line of two of them
    whose W's bring in a new prime: the map must rescale its common
    coordinates late, and keep them."""
    points = draw(construction_prefixes() | collinear_rich_points())
    a, b = draw(st.permutations(points))[:2]
    t = F(draw(st.integers(1, 99)), draw(st.sampled_from(LATE_PRIMES)))
    return points + [Point(a.x + k * t * (b.x - a.x), a.y + k * t * (b.y - a.y)) for k in (1, 2)]


@settings(max_examples=160, deadline=None)
@given(st.one_of(
    (collinear_rich_points() | construction_prefixes() | wide_collinear_rich_points())
    .map(lambda points: (points, "common")),
    prime_denominator_points().map(lambda points: (points, "per point")),
    late_prime_points().map(lambda points: (points, "rescaled late")),
))
def test_map_groups_as_the_reference_does(case):
    # fed one point at a time: the int slope and position keys group and
    # order every line as reduced directions and Fractions do, over the
    # common denominator or per point
    points, path = case
    hom = PointSet(points).homogeneous()
    throughs, multi, covered = reference_grouping(hom)
    lmap = LineIncidenceMap(hom)
    assert [lmap.advance(m).through for m in range(1, len(hom) + 1)] == throughs
    assert list(lmap.multi.items()) == list(multi.items())
    assert lmap.covered == covered
    assert (lmap._common is None) == (path == "per point")
    if path == "rescaled late":
        # the new prime divides L from the first late point on
        early = LineIncidenceMap(hom).advance(len(hom) - 2)._common.den
        assert any(lmap._common.den % p == 0 and early % p for p in LATE_PRIMES)


# Farey neighbours p/q and p2/q2 (p·q2 - p2·q = ±1): q is the bound D that
# the map proves for point 4, the origin, and q2 is just under it; keys
# of width `_key_bits(D) - 2` give both slopes one floor
@pytest.mark.parametrize("p, q, p2, q2", [
    (1, 1000, 1, 999),
    (999, 1000, 998, 999),
    (333, 1000, 332, 997),
    (524285, 1048571, 524284, 1048569),
])
def test_slope_keys_separate_farey_neighbours(p, q, p2, q2):
    assert abs(p * q2 - p2 * q) == 1
    # point 3 is on point 1's line through the origin, on its far side
    lmap = LineIncidenceMap(PointSet([(q, p), (q2, p2), (-q, -p), (0, 0)]).homogeneous())
    assert lmap.advance(4).through == [[1, 3]]
    assert lmap.multi == {(1, 3): [3, 4, 1]}


@settings(max_examples=60, deadline=None)
@given(construction_prefixes() | collinear_rich_points(), st.data())
def test_peeled_clique_is_the_whole_graph_search(points, data):
    # the universal vertices are taken without a search; the witness is
    # still the one the search on the whole naive graph returns
    ps = PointSet(points)
    cap = data.draw(st.none() | st.integers(1, ps.n + 1))
    witness = find_max_clique(range(1, ps.n + 1), build_visibility_graph_naive(ps).adjacency(), cap)
    assert max_visible_clique(ps, cap) == (len(witness), witness)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 14), st.integers(0, 10), st.sampled_from([0.1, 0.3, 0.6, 0.9]),
       st.integers(0, 2**32), st.data())
def test_peel_on_random_graphs_with_universal_vertices(core, extra, density, seed, data):
    # ``extra`` vertices, spread among the ids, are in no blocked pair
    rng = random.Random(seed)
    n = core + extra
    ids = rng.sample(range(1, n + 1), n)
    blocked = [e for e in combinations(sorted(ids[:core]), 2) if rng.random() < density]
    adjacency = {v: set(range(1, n + 1)) - {v} for v in range(1, n + 1)}
    partners = {}
    for i, j in blocked:
        adjacency[i].discard(j)
        adjacency[j].discard(i)
        partners.setdefault(i, set()).add(j)
        partners.setdefault(j, set()).add(i)
    cap = data.draw(st.none() | st.integers(1, n + 1))
    witness = find_max_clique(range(1, n + 1), adjacency, cap)
    assert _largest_clique(n, partners, cap) == (len(witness), witness)


def test_check_blbc_instance_searches_only_the_non_universal_vertices(monkeypatch):
    ps = generate(DEFAULT_SEED, 300).point_set()
    expected = check_blbc_instance(ps, 301, 301)
    degree = {v: len(near) for v, near in build_visibility_graph(ps).adjacency().items()}
    searched = []

    def recording(vertices, adjacency, cap=None):
        searched.append(sorted(vertices))
        return find_max_clique(vertices, adjacency, cap)

    monkeypatch.setattr(visibility, "find_max_clique", recording)
    assert check_blbc_instance(ps, 301, 301) == expected
    assert searched == [[v for v in range(1, 301) if degree[v] < 299]]
    # the blocked pairs lie among the points before the selection cursor
    assert len(searched[0]) == 27


@pytest.mark.parametrize("cap", [0, -1, 2.0, True, "2"])
def test_peel_checks_the_cap_before_taking_universal_vertices(cap):
    # all four corners of a square are universal, so a cap up to 4 needs
    # no search; it is refused all the same
    with pytest.raises(InputError, match="clique size cap"):
        max_visible_clique(PointSet([(0, 0), (1, 0), (0, 1), (1, 1)]), cap)


def test_max_visible_clique_grid():
    assert max_visible_clique(PointSet(GRID)) == (4, [1, 2, 4, 5])


def test_max_visible_clique_cap():
    ps = PointSet(GRID)
    size, witness = max_visible_clique(ps, cap=2)
    assert size == 2 and len(witness) == 2
    assert max_visible_clique(ps, cap=10) == (4, [1, 2, 4, 5])


@pytest.mark.parametrize("side", range(2, 13))
def test_integer_lattice_has_visible_cliques_of_four_at_most(side):
    # the midpoint of two lattice points of one parity class is a lattice
    # point between them, so a clique takes at most one point of each of
    # the four classes, and the unit square has one of each
    lattice = PointSet([(x, y) for y in range(side) for x in range(side)])
    assert max_visible_clique(lattice)[0] == 4


def test_twelve_by_twelve_lattice_has_neither_structure():
    lattice = PointSet([(x, y) for y in range(12) for x in range(12)])
    verdict = check_blbc_instance(lattice, k=5, l=13)
    assert verdict.outcome is BlbcOutcome.NEITHER_FOUND
    assert (verdict.clique_size, verdict.collinear_size) == (4, 12)


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
