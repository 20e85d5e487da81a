import itertools
import random
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from blbc.construction import (
    DEFAULT_SEED,
    ConstructionState,
    InsertionRecord,
    OrdinaryPair,
    SeedTriple,
    choose_parameter,
    excluded_parameters,
    farey_order,
    generate,
    generate_states,
    init_state,
    insert_point,
    select_ordinary_pair,
    state_from_points,
)
from blbc.errors import (
    ImpossibleStateError,
    InputError,
    ParameterRangeError,
    PendingPairError,
    PlacementError,
    SeedError,
)
from blbc.geometry import Orientation, Point, line_through, on_open_segment, orientation
from blbc.verifier import CHECKS, verify_construction_run, verify_no_k_collinear
from blbc.visibility import (
    ExclusionSet,
    LineIncidenceMap,
    PointSet,
    _key_bits,
    blocking_parameters,
    is_visible,
)

F = Fraction


def selection_key(pair):
    """Selection order of an (i, j) pair: j first, then i."""
    return (pair[1], pair[0])


GOLDEN_RECORDS = [
    (4, (1, 2), 0, F(1, 2), (F(1, 2), F(0))),
    (5, (1, 3), 0, F(1, 2), (F(0), F(1, 2))),
    (6, (2, 3), 0, F(1, 2), (F(1, 2), F(1, 2))),
    (7, (3, 4), 2, F(1, 3), (F(1, 6), F(2, 3))),
    (8, (2, 5), 3, F(1, 3), (F(2, 3), F(1, 6))),
]


def as_tuples(trace):
    return [
        (r.n, tuple(r.pair), r.excluded_count, r.chosen_t, tuple(r.point))
        for r in trace
    ]


# seeding


def test_default_seed():
    assert DEFAULT_SEED == SeedTriple(
        Point(F(0), F(0)), Point(F(1), F(0)), Point(F(0), F(1))
    )


def test_init_state():
    state = init_state()
    assert state.n == 3
    assert state.trace == []
    assert state.pending == {
        OrdinaryPair(1, 2),
        OrdinaryPair(1, 3),
        OrdinaryPair(2, 3),
    }
    assert state.point(1) == Point(F(0), F(0))
    assert state.point_set().n == 3


def test_init_state_rejects_bad_seeds():
    with pytest.raises(SeedError):
        init_state([(0, 0), (1, 0)])
    with pytest.raises(SeedError):
        init_state([(0, 0), (1, 0), (1, 0), (0, 1)])
    with pytest.raises(SeedError):
        init_state([(0, 0), (1, 0), (1, 0)])
    with pytest.raises(SeedError):
        init_state([(0, 0), (1, 1), (2, 2)])


def test_state_from_points_pending_matches_two_point_lines():
    pts = [(0, 0), (4, 0), (0, 4), (1, 1)]
    state = state_from_points(pts)
    assert state.n == 4
    assert state.trace == []
    lmap = LineIncidenceMap.from_point_set(state.point_set())
    assert {tuple(p) for p in state.pending} == lmap.two_point_pairs()


def test_state_from_points_rejects_four_collinear():
    with pytest.raises(InputError):
        state_from_points([(0, 0), (1, 0), (2, 0), (3, 0), (0, 1)])


def test_state_from_points_names_the_first_crowded_line():
    # two lines of four or more points; the message names the least line,
    # the one whose ascending indices come first
    pts = [(9, 9), (1, 1), (2, 2), (3, 3), (0, 5), (0, 6), (0, 7), (0, 8), (4, 4), (5, 0)]
    with pytest.raises(InputError) as exc:
        state_from_points(pts)
    assert str(exc.value) == (
        "5 collinear points (indices [1, 2, 3, 4, 9]) on line (1, -1, 0); "
        "at most 3 are allowed"
    )


def test_state_from_points_names_the_line_no4collinear_names():
    # the least line, [1, 5, 6, 7], is not the one with the least second
    # index, [2, 3, 4, 8]; both messages name the least
    pts = [(0, 0), (10, 1), (10, 2), (10, 3), (1, 0), (2, 0), (3, 0), (10, 4)]
    with pytest.raises(InputError) as exc:
        state_from_points(pts)
    assert str(exc.value) == (
        "4 collinear points (indices [1, 5, 6, 7]) on line (0, 1, 0); at most 3 are allowed"
    )
    report = verify_no_k_collinear(PointSet(pts), 4)
    assert report.counterexample == {"indices": [1, 5, 6, 7],
                                     "line": {"a": 0, "b": 1, "c": 0}}


def test_state_from_points_allows_three_collinear():
    state = state_from_points([(0, 0), (1, 0), (2, 0)])
    assert state.pending == set()
    with pytest.raises(ImpossibleStateError):
        select_ordinary_pair(state)


def test_state_from_points_needs_three():
    with pytest.raises(InputError):
        state_from_points([(0, 0), (1, 0)])


# selection


def test_selection_order_prefers_small_j_then_i():
    assert OrdinaryPair(2, 5).key == (5, 2)
    pairs = [OrdinaryPair(1, 4), OrdinaryPair(3, 4), OrdinaryPair(1, 2)]
    assert min(pairs, key=lambda p: p.key) == OrdinaryPair(1, 2)


def test_select_on_fresh_state():
    assert select_ordinary_pair(init_state()) == OrdinaryPair(1, 2)


def test_select_is_a_peek():
    state = init_state()
    before = set(state.pending)
    assert select_ordinary_pair(state) == select_ordinary_pair(state)
    assert state.pending == before


def test_select_sequence_follows_golden_trace():
    state = init_state()
    for n, pair, _, t, _ in GOLDEN_RECORDS:
        assert tuple(select_ordinary_pair(state)) == pair, n
        insert_point(state, pair, t)


def test_select_after_three_insertions():
    state = generate(DEFAULT_SEED, 6)
    assert select_ordinary_pair(state) == OrdinaryPair(3, 4)


def test_select_matches_direct_minimum_at_every_step():
    for state in generate_states(DEFAULT_SEED, 25):
        expected = min(state.pending, key=selection_key)
        assert select_ordinary_pair(state) == expected
    # inserting on the largest pending pair leaves the least one pending
    state = init_state()
    while state.n < 25:
        assert select_ordinary_pair(state) == min(state.pending, key=selection_key)
        pair = max(state.pending, key=selection_key)
        insert_point(state, pair, choose_parameter(excluded_parameters(state, pair)))
    assert select_ordinary_pair(state) == min(state.pending, key=selection_key)


def test_select_refuses_a_pending_set_behind_the_selection_order():
    state = generate(DEFAULT_SEED, 8)
    select_ordinary_pair(state)
    # pending is a view: leave (1, 2) alone uncovered
    state.lines.covered.update(itertools.combinations(range(1, state.n + 1), 2))
    state.lines.covered.discard((1, 2))
    assert state.pending == {(1, 2)}
    with pytest.raises(ImpossibleStateError, match="selection order disagree"):
        select_ordinary_pair(state)


# excluded parameters and choice


def test_excluded_parameters_empty_with_no_crossing_lines():
    state = init_state()
    assert excluded_parameters(state, (1, 2)) == set()


def test_excluded_parameters_crossing_example():
    state = state_from_points([(0, 0), (4, 0), (0, 4), (1, 1)])
    assert excluded_parameters(state, (1, 2)) == {F(1, 3)}


def test_excluded_parameters_requires_pending_pair():
    state = init_state()
    with pytest.raises(PendingPairError):
        excluded_parameters(state, (1, 4))
    with pytest.raises(PendingPairError):
        excluded_parameters(state, (2, 1))


@pytest.mark.parametrize(
    "make, pair",
    [
        (lambda: generate(DEFAULT_SEED, 6), (3.7, 4.0)),
        (lambda: generate(DEFAULT_SEED, 6), ("3", "4")),
        (lambda: generate(DEFAULT_SEED, 6), (F(7, 2), 4)),
        (init_state, (True, 2)),
    ],
    ids=["float", "str", "fraction", "bool"],
)
def test_pair_indices_must_be_ints(make, pair):
    # each pair would name a pending pair if its indices were truncated
    state = make()
    n = state.n
    with pytest.raises(InputError, match="must be int"):
        excluded_parameters(state, pair)
    with pytest.raises(InputError, match="must be int"):
        insert_point(state, pair, F(1, 2))
    assert state.n == n


def test_excluded_counts_along_golden_run():
    state = init_state()
    for n, pair, count, t, _ in GOLDEN_RECORDS:
        assert len(excluded_parameters(state, pair)) == count, n
        insert_point(state, pair, t)


def test_farey_order_prefix():
    got = list(itertools.islice(farey_order(), 11))
    assert got == [
        F(1, 2), F(1, 3), F(2, 3), F(1, 4), F(3, 4),
        F(1, 5), F(2, 5), F(3, 5), F(4, 5), F(1, 6), F(5, 6),
    ]


def test_farey_order_values_are_reduced_and_in_range():
    for t in itertools.islice(farey_order(), 200):
        assert 0 < t < 1


def test_choose_parameter():
    assert choose_parameter(set()) == F(1, 2)
    assert choose_parameter({F(1, 2)}) == F(1, 3)
    assert choose_parameter({F(1, 2), F(1, 3), F(2, 3)}) == F(1, 4)


def test_choose_parameter_never_returns_excluded():
    excluded = {F(p, q) for q in range(2, 9) for p in range(1, q)}
    t = choose_parameter(excluded)
    assert t not in excluded
    assert 0 < t < 1


class UniterableExclusionSet(ExclusionSet):
    def __iter__(self):
        raise AssertionError("the exclusion set was iterated")


def exclusion_set(*fractions):
    bits = _key_bits(max((t.denominator for t in fractions), default=0))
    return ExclusionSet({(t.numerator << bits) // t.denominator for t in fractions}, bits)


def test_choose_parameter_probes_without_copying():
    bits = _key_bits(3)
    excluded = UniterableExclusionSet({(1 << bits) // 2, (1 << bits) // 3}, bits)
    assert choose_parameter(excluded) == F(2, 3)


# insertion


def test_insert_point_returns_same_state_and_records_step():
    state = init_state()
    out = insert_point(state, (1, 2), F(1, 2))
    assert out is state
    assert state.n == 4
    rec = state.trace[-1]
    assert rec == InsertionRecord(
        n=4,
        pair=OrdinaryPair(1, 2),
        excluded_count=0,
        chosen_t=F(1, 2),
        point=Point(F(1, 2), F(0)),
    )
    assert OrdinaryPair(1, 2) not in state.pending
    assert {p for p in state.pending if p[1] == 4} == {(3, 4)}


def test_insert_point_validates_parameter():
    state = init_state()
    with pytest.raises(InputError):
        insert_point(state, (1, 2), 0.5)
    with pytest.raises(ParameterRangeError):
        insert_point(state, (1, 2), F(0))
    with pytest.raises(ParameterRangeError):
        insert_point(state, (1, 2), F(1))
    with pytest.raises(ParameterRangeError):
        insert_point(state, (1, 2), F(3, 2))
    assert state.n == 3 and state.trace == []


def test_insert_point_rejects_non_pending_pair():
    state = init_state()
    with pytest.raises(PendingPairError):
        insert_point(state, (1, 4), F(1, 2))
    insert_point(state, (1, 2), F(1, 2))
    with pytest.raises(PendingPairError):
        insert_point(state, (1, 2), F(1, 3))


def test_insert_point_rejects_excluded_parameter():
    state = state_from_points([(0, 0), (4, 0), (0, 4), (1, 1)])
    with pytest.raises(PlacementError):
        insert_point(state, (1, 2), F(1, 3))
    # an unblocked value on the same pair works
    insert_point(state, (1, 2), F(1, 2))
    assert state.n == 5


def test_insert_point_excluded_kwarg_matches_recomputation():
    manual = init_state()
    auto = init_state()
    for _ in range(12):
        pair = select_ordinary_pair(manual)
        excl = excluded_parameters(manual, pair)
        t = choose_parameter(excl)
        insert_point(manual, pair, t, _excluded=excl)
        insert_point(auto, select_ordinary_pair(auto), t)
    assert as_tuples(manual.trace) == as_tuples(auto.trace)


# full runs


def test_generate_golden_trace():
    state = generate(DEFAULT_SEED, 8)
    assert as_tuples(state.trace) == GOLDEN_RECORDS
    assert state.n == 8


def test_generate_is_deterministic():
    first = generate(DEFAULT_SEED, 30)
    second = generate(DEFAULT_SEED, 30)
    assert first.points == second.points
    assert as_tuples(first.trace) == as_tuples(second.trace)


def test_generate_states_yields_live_state_per_size():
    sizes = []
    objs = set()
    for state in generate_states(DEFAULT_SEED, 9):
        sizes.append(state.n)
        objs.add(id(state))
    assert sizes == list(range(3, 10))
    assert len(objs) == 1


def test_generate_count_validation():
    with pytest.raises(InputError):
        generate(DEFAULT_SEED, 2)
    assert generate(DEFAULT_SEED, 3).n == 3


def test_generate_from_custom_seed():
    state = generate([(0, 0), (2, 0), (1, 3)], 12)
    assert state.n == 12
    lmap = LineIncidenceMap.from_point_set(state.point_set())
    assert max(map(len, lmap.multi.values())) == 3
    assert state.pending == lmap.two_point_pairs()


@pytest.mark.parametrize(
    "seed",
    [[(0, 0), (0, 1), (-1, 0)], [(5, 7), (5, 9), (2, 7)], DEFAULT_SEED],
    ids=["turned", "shifted_and_turned", "default"],
)
def test_construction_map_orders_its_lines_in_the_seed_frame(seed):
    # the map holds the points in the seed's frame, where the seed is
    # (0,0), (1,0), (0,1); an affine map keeps betweenness, so the map's
    # blocked pairs are the raw covered pairs with a point between them.
    # Every two-point pair is visible, so only the others need the
    # per-pair test of build_visibility_graph_naive.
    for state in generate_states(seed, 40):
        ps = state.point_set()
        hidden = {pair for pair in itertools.combinations(range(1, ps.n + 1), 2)
                  if pair not in state.lines.two_point and not is_visible(*pair, ps)}
        partners = state.lines.blocked()
        assert {(i, j) for i, near in partners.items() for j in near if i < j} == hidden


def test_construction_invariants_hold_along_run():
    for state in generate_states(DEFAULT_SEED, 20):
        lmap = LineIncidenceMap.from_point_set(state.point_set())
        assert state.pending == lmap.two_point_pairs()
        assert state.lines.multi == lmap.multi
        assert len(state.lines) == len(lmap)
        assert all(len(lst) == 3 for lst in lmap.multi.values())


def test_records_describe_blocked_midpoints():
    state = generate(DEFAULT_SEED, 20)
    ps = state.point_set()
    for rec in state.trace:
        i, j = rec.pair
        assert on_open_segment(ps.point(rec.n), ps.point(i), ps.point(j))
        # once blocked, the pair stays invisible in every later prefix
        assert not is_visible(i, j, ps)
        assert rec.excluded_count <= comb(rec.n - 3, 2)
        assert rec.n == ps.points.index(rec.point) + 1


def test_selected_keys_strictly_increase():
    state = generate(DEFAULT_SEED, 40)
    keys = [rec.pair.key for rec in state.trace]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_no_selectable_pair_left_behind():
    # every pair ordered before the last selected one was either consumed
    # by selection or sits on a line that carries three points
    state = generate(DEFAULT_SEED, 40)
    last_key = state.trace[-1].pair.key
    selected = {rec.pair for rec in state.trace}
    on_full_line = {
        tuple(sorted((lst[a], lst[b])))
        for lst in state.lines.multi.values()
        for a in range(3)
        for b in range(a + 1, 3)
    }
    for j in range(2, state.n + 1):
        for i in range(1, j):
            pair = OrdinaryPair(i, j)
            if pair.key >= last_key:
                continue
            assert pair in selected or tuple(pair) in on_full_line, pair


# the exclusion kernel against a brute-force reference


def reference_exclusions(points, i, j):
    """Every t in (0, 1) where the line through two other points crosses
    the segment (p_i, p_j), by direct Fraction arithmetic."""
    a, b = points[i - 1], points[j - 1]
    out = set()
    others = [m for m in range(1, len(points) + 1) if m not in (i, j)]
    for m, r in itertools.combinations(others, 2):
        line = line_through(points[m - 1], points[r - 1])
        slope = line.a * (b.x - a.x) + line.b * (b.y - a.y)
        if slope:
            t = (line.c - line.a * a.x - line.b * a.y) / slope
            if 0 < t < 1:
                out.add(t)
    return out


WIDE_SEED = [  # the bit pattern of the benchmark's wide seeds
    (0, 0),
    (F(2**40 + 15, 2**31 - 1), F(3, 2**33 + 7)),
    (F(-5, 2**35 + 3), F(2**41 - 9, 2**29 + 11)),
]


@pytest.mark.parametrize(
    "make, count",
    [
        (lambda: init_state(DEFAULT_SEED), 60),
        (lambda: init_state(WIDE_SEED), 40),
        (lambda: state_from_points(
            [(0, 0), (6, 0), (0, 6), (3, 0), (0, 3), (3, 3), (1, 1), (5, 2)]), 30),
    ],
    ids=["default", "wide", "three_point_lines"],
)
def test_excluded_parameters_match_reference_at_every_step(make, count):
    state = make()
    while state.n < count:
        pair = select_ordinary_pair(state)
        excluded = excluded_parameters(state, pair)
        assert excluded == reference_exclusions(state.points, *pair), state.n
        insert_point(state, pair, choose_parameter(excluded), _excluded=excluded)


def tampered_state():
    """A run and one of its three-point lines."""
    state = generate(DEFAULT_SEED, 12)
    key, members = next(iter(state.lines.multi.items()))
    return state, key, members


def pending_through(state, point):
    return next(p for p in sorted(state.pending) if point in p)


def tamper_two_point_pair(state, key, members):
    state.lines.covered.discard((members[0], members[2]))
    return pending_through(state, members[1])


def tamper_drop_member(state, key, members):
    state.lines.multi[key] = members[:2]
    return pending_through(state, members[2])


def tamper_add_endpoint(state, key, members):
    pair = next(p for p in sorted(state.pending) if not set(p) & set(members))
    state.lines.multi[key] = [*members, pair[0]]
    return pair


@pytest.mark.parametrize(
    "tamper",
    [tamper_two_point_pair, tamper_drop_member, tamper_add_endpoint],
    ids=["two_point_pair_with_a_third_point", "line_missing_a_member",
         "line_listing_an_endpoint_off_it"],
)
def test_kernel_ignores_a_tampered_map(tamper):
    # the kernel reads coordinates only, so a corrupted line listing
    # cannot change what it excludes
    state, key, members = tampered_state()
    pair = tamper(state, key, members)
    assert excluded_parameters(state, pair) == reference_exclusions(state.points, *pair)


# the exclusion set


def test_exclusion_set_equals_the_fraction_set():
    fractions = {F(1, 2), F(1, 3), F(5, 8)}
    excluded = exclusion_set(*fractions)
    assert len(excluded) == 3
    assert excluded == fractions
    assert fractions == excluded
    assert excluded != {F(1, 2), F(1, 3)}
    assert {F(1, 2), F(1, 3), F(3, 8)} != excluded
    assert F(5, 8) in excluded and F(3, 8) not in excluded
    assert set(excluded) == fractions
    assert excluded - {F(1, 2)} == {F(1, 3), F(5, 8)}


@pytest.mark.parametrize("t", [0.5, 1, True, "1/2", (1, 2)])
def test_exclusion_set_membership_refuses_a_non_fraction(t):
    # 0.5 == Fraction(1, 2), so a float probe would be decided inexactly
    with pytest.raises(InputError, match="parameter must be a Fraction"):
        t in exclusion_set(F(1, 2))


def test_exclusion_keys_are_distinct_and_decode():
    fractions = [F(p, q) for q in range(2, 60) for p in range(1, q) if gcd(p, q) == 1]
    fractions += [F(2**200 + 1, 2**201), F(3**150, 2**240 + 1)]
    excluded = exclusion_set(*fractions)
    assert len(excluded) == len(fractions)
    assert sorted(excluded) == sorted(fractions)
    assert all(t in excluded for t in fractions)


@pytest.mark.parametrize("t", [F(3, 2), F(4, 3), F(0), F(1), F(-1, 3), F(-2, 3)])
def test_exclusion_set_holds_no_parameter_outside_the_open_interval(t):
    # 3/2 and 4/3 would share the keys of 1/3 and 1/4
    excluded = exclusion_set(*(F(p, q) for q in range(2, 9) for p in range(1, q)))
    assert t not in excluded


def farey_neighbours(t, order):
    """The fractions next to t, below and above it, in the Farey
    sequence of the given order."""
    p, q = t.numerator, t.denominator
    inverse = pow(p, -1, q)
    # the largest denominators up to the order with p·c - q·a = 1 (the
    # left neighbour a/c) and q·e - p·f = 1 (the right one, e/f)
    below = inverse + (order - inverse) // q * q
    above = q - inverse + (order - q + inverse) // q * q
    return F((p * below - 1) // q, below), F((p * above + 1) // q, above)


@st.composite
def floor_keyed_sets(draw):
    """Reduced t in (0, 1) with denominators below 2^b, and probes: for
    each member its Farey neighbours, points closer to it than 2^-2b,
    and its shifts outside (0, 1); fractions with denominators of 2^b or
    more; and 0 and 1."""
    b = draw(st.integers(1, 300))
    top = 2**b - 1

    def fraction(lo, hi):
        den = draw(st.integers(lo, hi))
        return F(draw(st.integers(1, den - 1)), den)

    members = {fraction(2, top) for _ in range(draw(st.integers(0, 12 if b > 1 else 0)))}
    probes = {F(0), F(1), F(-1, 2**b), F(2**b + 1, 2**b)}
    for t in members:
        probes.update(farey_neighbours(t, top))
        probes.update((t - F(1, 2 ** (2 * b + 2)), t + F(1, 2 ** (2 * b + 2))))
        probes.update((-t, t + 1, 2 - t, 1 / t))
    far = [fraction(2**b, 2 ** (b + 2)) for _ in range(draw(st.integers(1, 8)))]
    probes.update(t for t in far if t.denominator > top)
    return b, members, probes


@settings(max_examples=300, deadline=None)
@given(floor_keyed_sets())
def test_floor_keyed_exclusion_set_acts_as_its_fraction_set(case):
    b, members, probes = case
    bits = _key_bits(2**b - 1)
    excluded = ExclusionSet({(t.numerator << bits) // t.denominator for t in members}, bits)
    assert len(excluded) == len(members)
    assert set(excluded) == members
    assert sorted(excluded) == sorted(members)
    assert excluded == members and members == excluded
    assert all(t in excluded for t in members)
    for t in probes - members:
        assert t not in excluded


def test_two_lines_crossing_at_one_parameter_count_once():
    # x = 2 and the line through (1, 1) and (3, -1) both cross the segment
    # from (0, 0) to (4, 0) at (2, 0); the other two crossing pairs give
    # 3/8 and 5/8
    points = [(0, 0), (4, 0), (2, 1), (2, -1), (1, 1), (3, -1)]
    excluded = blocking_parameters(PointSet(points), 1, 2)
    assert len(excluded) == 3
    assert excluded == {F(1, 2), F(3, 8), F(5, 8)}
    assert excluded == reference_exclusions(PointSet(points).points, 1, 2)


def test_wide_keys_beyond_64_bits_match_reference():
    # crossing parameters are affine-invariant, so an affine image of the
    # default seed (WIDE_SEED) keeps its small keys; wide keys need wide
    # points in general position
    rng = random.Random(5)
    wide = [(F(rng.getrandbits(40), rng.getrandbits(30) | 1),
             F(rng.getrandbits(40), rng.getrandbits(30) | 1)) for _ in range(12)]
    state = state_from_points(wide)
    while state.n < 16:
        pair = select_ordinary_pair(state)
        excluded = excluded_parameters(state, pair)
        assert max(t.denominator.bit_length() for t in excluded) > 64
        assert excluded == reference_exclusions(state.points, *pair)
        assert reference_exclusions(state.points, *pair) == excluded
        insert_point(state, pair, choose_parameter(excluded), _excluded=excluded)


def test_order_keys_closer_than_two_to_the_minus_64_stay_exact():
    # seen from A, the cotangents of points 3 and 4 differ by 2^-71, so
    # their floor keys (value * 2^64, rounded down) are equal; only the
    # exact keys tell the two lines apart, and the line through the points
    # crosses the segment at t = 2^-70, next to A
    c = F(1, 2**70)
    points = [(0, 0), (1, 0), (1 + c, 1), (2 + c, 2)]
    excluded = blocking_parameters(PointSet(points), 1, 2)
    assert excluded == {c}
    assert excluded == reference_exclusions(PointSet(points).points, 1, 2)


def test_frame_coordinates_over_1100_bits_match_reference():
    # far beyond a float's range: an exact kernel must not care
    rng = random.Random(11)
    wide = [(F(rng.getrandbits(1100), rng.getrandbits(1100) | 1),
             F(rng.getrandbits(1100), rng.getrandbits(1100) | 1)) for _ in range(10)]
    state = state_from_points(wide)
    assert min(max(map(abs, h)).bit_length() for h in state.lines.hom) > 1100
    pair = select_ordinary_pair(state)
    excluded = excluded_parameters(state, pair)
    assert max(t.denominator.bit_length() for t in excluded) > 1100
    assert excluded == reference_exclusions(state.points, *pair)


def test_points_on_the_segment_line_alone_exclude_nothing():
    # a point inside the segment excludes its own t only through a line
    # to a point off AB
    points = [(0, 0), (4, 0), (1, 0), (5, 0), (-1, 0)]
    assert blocking_parameters(PointSet(points), 1, 2) == set()
    assert blocking_parameters(PointSet([*points, (7, 3)]), 1, 2) == {F(1, 4)}


_small = st.integers(-6, 6) | st.builds(F, st.integers(-12, 12), st.integers(1, 5))
_nonzero = _small.filter(bool)


@st.composite
def segment_cases(draw):
    """A segment AB and other points written as A + s(B - A) + h(B - A)⊥:
    points on both sides of AB, three-point lines through A and through B,
    and points on AB inside and outside the segment, in shuffled order."""
    a = (draw(_small), draw(_small))
    b = draw(st.tuples(_small, _small).filter(lambda p: p != a))
    ux, uy = b[0] - a[0], b[1] - a[1]

    def at(s, h):
        return (a[0] + s * ux - h * uy, a[1] + s * uy + h * ux)

    off = [at(draw(_small), h) for h in (abs(draw(_nonzero)), -abs(draw(_nonzero)))]
    off += [at(draw(_small), draw(_nonzero)) for _ in range(draw(st.integers(0, 5)))]
    beyond = draw(_small.filter(lambda s: not 0 <= s <= 1))
    extra = [at(draw(st.fractions(0, 1).filter(lambda s: 0 < s < 1)), 0), at(beyond, 0)]
    for end in (a, b):  # a third point on the line from an endpoint to another
        px, py = draw(st.sampled_from(off))
        lam = draw(_nonzero.filter(lambda v: v != 1))
        extra.append((end[0] + lam * (px - end[0]), end[1] + lam * (py - end[1])))
    others = list(dict.fromkeys(p for p in off + extra if p not in (a, b)))
    points = draw(st.permutations([a, b, *others]))
    return points, points.index(a) + 1, points.index(b) + 1


@settings(max_examples=150, deadline=None)
@given(segment_cases())
def test_kernel_matches_reference_on_random_segments(case):
    points, i, j = case
    ps = PointSet(points)
    assert blocking_parameters(ps, i, j) == reference_exclusions(ps.points, i, j)


@settings(max_examples=150, deadline=None)
@given(segment_cases(), st.integers(0, 2**32 - 1))
def test_kernel_matches_reference_on_wide_affine_images_of_random_segments(case, seed):
    # an affine map keeps the three-point lines, the lines crossing at one
    # point and the points on AB, and its 100-bit entries widen every
    # coordinate past 128 bits
    points, i, j = case
    rng = random.Random(seed)

    def wide():
        return rng.choice((-1, 1)) * F(rng.getrandbits(100) | 2**99, rng.getrandbits(100) | 2**99)

    o, m = (wide(), wide()), (wide(), wide(), wide(), wide())
    assume(m[0] * m[3] != m[1] * m[2])
    image = [(o[0] + m[0] * x + m[1] * y, o[1] + m[2] * x + m[3] * y) for x, y in points]
    ps = PointSet(image)
    assert max(max(map(abs, h)).bit_length() for h in ps.homogeneous()) > 256
    assert blocking_parameters(ps, i, j) == reference_exclusions(ps.points, i, j)


# seed coordinates: small ints, and fractions with up to 120-bit numerators
# and 100-bit denominators
_coords = st.integers(-3, 3) | st.builds(
    F, st.integers(-(2**120), 2**120), st.integers(1, 2**100))


@settings(max_examples=50, deadline=None)
@given(st.tuples(_coords, _coords), st.tuples(_coords, _coords), st.tuples(_coords, _coords))
def test_any_seed_runs_the_affine_image_of_the_default(a, b, c):
    # the construction is affine-invariant: from the image of the default
    # seed under p -> a + M p, step by step it selects the same pair, picks
    # the same t after ruling out as many, keeps the same frame coordinates
    # (the default run's own, reduced), and places the image of the default
    # run's point
    seed = [Point(F(x), F(y)) for x, y in (a, b, c)]
    assume(orientation(*seed) is not Orientation.COLLINEAR)
    o, p, q = seed
    m = (p.x - o.x, q.x - o.x, p.y - o.y, q.y - o.y)
    det = m[0] * m[3] - m[1] * m[2]

    def back(pt):
        dx, dy = pt.x - o.x, pt.y - o.y
        return Point((m[3] * dx - m[1] * dy) / det, (m[0] * dy - m[2] * dx) / det)

    def lockstep():
        runs = zip(generate_states(seed, 25), generate_states(DEFAULT_SEED, 25))
        for state, default in runs:
            assert state.lines.hom == default.lines.hom
            assert tuple(default.lines.hom) == PointSet(default.points).homogeneous()
            assert [back(pt) for pt in state.points] == default.points
            if state.trace:
                rec, ref = state.trace[-1], default.trace[-1]
                assert (rec.pair, rec.chosen_t, rec.excluded_count) == (
                    ref.pair, ref.chosen_t, ref.excluded_count)
            yield state

    results, final = verify_construction_run(lockstep(), checks=list(CHECKS))
    assert final.n == 25
    assert all(r.passed for _, reports in results for r in reports)
