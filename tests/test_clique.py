import functools
import hashlib
import json
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from blbc import clique
from blbc.clique import _dsatur, find_max_clique
from blbc.construction import DEFAULT_SEED, generate
from blbc.errors import InputError
from blbc.visibility import PointSet, build_visibility_graph, check_blbc_instance


def adjacency_from_edges(vertices, edges):
    adj = {v: set() for v in vertices}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def brute_force_max_clique(vertices, adj):
    """Reference oracle: scan all subsets, largest first."""
    verts = sorted(vertices)
    for size in range(len(verts), 0, -1):
        for combo in combinations(verts, size):
            if all(b in adj[a] for a, b in combinations(combo, 2)):
                return list(combo)
    return []


def incumbent_only_max_clique(vertices, adjacency, cap=None):
    """Reference: the same walk bounded only by ``len(clique) + |cand|``."""
    adj = {v: frozenset(adjacency.get(v, ())) for v in vertices}
    order = sorted(adj, key=lambda v: (-len(adj[v]), v))
    bit = {v: 1 << r for r, v in enumerate(order)}
    nbr = [sum(bit[w] for w in adj[v] if w in bit) for v in order]
    best, clique, stack = [], [], []
    cand, excl = (1 << len(order)) - 1, 0
    while True:
        if not cand and not excl:
            if len(clique) > len(best):
                best = sorted(clique)
        elif len(clique) + cand.bit_count() > len(best):
            pivot, cover, rest = 0, -1, cand | excl
            while rest:
                r = (rest & -rest).bit_length() - 1
                rest ^= 1 << r
                if (cand & nbr[r]).bit_count() > cover:
                    pivot, cover = r, (cand & nbr[r]).bit_count()
            stack.append([cand, excl, cand & ~nbr[pivot]])
        while stack and not stack[-1][2]:
            stack.pop()
        if not stack:
            return best
        del clique[len(stack) - 1 :]
        cand, excl, branch = stack[-1]
        low = branch & -branch
        stack[-1] = [cand ^ low, excl | low, branch ^ low]
        r = low.bit_length() - 1
        clique.append(order[r])
        if len(clique) == cap:
            return sorted(clique)
        cand, excl = cand & nbr[r], excl & nbr[r]


@st.composite
def sparse_graphs(draw):
    """Random graphs on sparse ids, some neighbours outside the vertex list."""
    ids = draw(st.lists(st.integers(1, 10**6), unique=True, max_size=24))
    density = draw(st.sampled_from([0.2, 0.5, 0.8, 0.95]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    edges = [e for e in combinations(ids, 2) if rng.random() < density]
    adj = adjacency_from_edges(ids, edges)
    if ids and draw(st.booleans()):
        adj[ids[0]].add(10**6 + 1)  # a listed neighbour that gets no bit
    return ids, adj


@st.composite
def partite_graphs(draw):
    """Random k-partite graphs on sparse ids: no edge inside a part, so a
    colouring of the whole graph has few classes, and its bound prunes."""
    ids = draw(st.lists(st.integers(1, 10**6), unique=True, max_size=30))
    parts = draw(st.integers(2, 6))
    density = draw(st.sampled_from([0.5, 0.8, 0.95]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    part = {v: rng.randrange(parts) for v in ids}
    edges = [(a, b) for a, b in combinations(ids, 2)
             if part[a] != part[b] and rng.random() < density]
    return ids, adjacency_from_edges(ids, edges)


def lattice_points(side):
    return PointSet([(x, y) for y in range(side) for x in range(side)])


@functools.cache
def lattice_graph(side):
    """The s×s lattice's visibility graph with its incumbent-only witness."""
    graph = build_visibility_graph(lattice_points(side))
    ids, adj = list(range(1, graph.n + 1)), graph.adjacency()
    return ids, adj, incumbent_only_max_clique(ids, adj)


@st.composite
def graphs_with_witness(draw):
    """(ids, adjacency, uncapped incumbent-only witness): sparse random
    graphs, random k-partite graphs, or the s×s lattice for s = 2..12."""
    kind = draw(st.sampled_from(["sparse", "partite", "lattice"]))
    if kind == "lattice":
        return lattice_graph(draw(st.integers(2, 12)))
    ids, adj = draw(sparse_graphs() if kind == "sparse" else partite_graphs())
    return ids, adj, incumbent_only_max_clique(ids, adj)


def bitsets(ids, adj):
    """Neighbour bitsets, bit r for ids[r]; neighbours outside ids get none."""
    bit = {v: 1 << r for r, v in enumerate(ids)}
    return [sum(bit[w] for w in adj[v] if w in bit) for v in ids]


def test_empty_graph():
    assert find_max_clique([], {}) == []


def test_single_vertex():
    assert find_max_clique([1], {1: set()}) == [1]


def test_no_edges():
    adj = adjacency_from_edges([1, 2, 3], [])
    assert len(find_max_clique([1, 2, 3], adj)) == 1


def test_triangle():
    adj = adjacency_from_edges([1, 2, 3], [(1, 2), (1, 3), (2, 3)])
    assert find_max_clique([1, 2, 3], adj) == [1, 2, 3]


def test_path_graph():
    adj = adjacency_from_edges([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)])
    got = find_max_clique([1, 2, 3, 4], adj)
    assert len(got) == 2
    assert tuple(got) in {(1, 2), (2, 3), (3, 4)}


def test_two_components():
    edges = [(1, 2), (1, 3), (2, 3), (4, 5)]
    adj = adjacency_from_edges(range(1, 6), edges)
    assert find_max_clique(range(1, 6), adj) == [1, 2, 3]


def test_witness_is_sorted_and_valid():
    edges = [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)]
    adj = adjacency_from_edges(range(1, 5), edges)
    got = find_max_clique(range(1, 5), adj)
    assert got == sorted(got)
    assert all(b in adj[a] for a, b in combinations(got, 2))
    assert len(got) == 3


def test_deterministic():
    rng = random.Random(7)
    verts = list(range(1, 13))
    edges = [e for e in combinations(verts, 2) if rng.random() < 0.5]
    adj = adjacency_from_edges(verts, edges)
    first = find_max_clique(verts, adj)
    second = find_max_clique(verts, adj)
    assert first == second


def test_matches_brute_force_on_random_graphs():
    rng = random.Random(20260814)
    for trial in range(60):
        n = rng.randint(1, 9)
        verts = list(range(1, n + 1))
        density = rng.choice([0.2, 0.5, 0.8])
        edges = [e for e in combinations(verts, 2) if rng.random() < density]
        adj = adjacency_from_edges(verts, edges)
        got = find_max_clique(verts, adj)
        want = brute_force_max_clique(verts, adj)
        assert len(got) == len(want), (trial, edges)
        assert all(b in adj[a] for a, b in combinations(got, 2))


def test_cap_short_circuits():
    verts = list(range(1, 8))
    edges = list(combinations(verts, 2))
    adj = adjacency_from_edges(verts, edges)
    got = find_max_clique(verts, adj, cap=3)
    assert len(got) == 3
    assert all(b in adj[a] for a, b in combinations(got, 2))


def test_cap_above_maximum_is_harmless():
    adj = adjacency_from_edges([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    assert find_max_clique([1, 2, 3], adj, cap=10) == [1, 2, 3]


def test_cap_reports_min_of_cap_and_maximum():
    rng = random.Random(99)
    for _ in range(20):
        n = rng.randint(2, 8)
        verts = list(range(1, n + 1))
        edges = [e for e in combinations(verts, 2) if rng.random() < 0.6]
        adj = adjacency_from_edges(verts, edges)
        true_size = len(brute_force_max_clique(verts, adj))
        for cap in (1, 2, 3):
            got = find_max_clique(verts, adj, cap=cap)
            assert len(got) == min(cap, true_size)
            assert all(b in adj[a] for a, b in combinations(got, 2))


def test_deep_clique_needs_no_recursion():
    verts = range(1, 1101)
    adj = {v: set(verts) - {v} for v in verts}
    assert find_max_clique(verts, adj) == list(verts)
    assert find_max_clique(verts, adj, cap=1050) == list(range(1, 1051))


def test_self_loop_rejected():
    with pytest.raises(InputError):
        find_max_clique([1, 2], {1: {1, 2}, 2: {1}})


def test_bad_cap_rejected():
    with pytest.raises(InputError):
        find_max_clique([1], {1: set()}, cap=0)


@settings(max_examples=300, deadline=None)
@given(graphs_with_witness(), st.data())
def test_colour_bound_returns_the_incumbent_only_witness(graph, data):
    # The greedy and the root colour bounds prune only subtrees that cannot
    # beat the incumbent or reach the cap, so the witness is the plain
    # bound's, not just its size.  A walk that never reaches its cap is the
    # uncapped walk, so caps above the maximum share its witness.
    ids, adj, uncapped = graph
    cap = data.draw(st.none() | st.integers(1, len(ids) + 1), label="cap")
    if cap is None or cap > len(uncapped):
        want = uncapped
    else:
        want = incumbent_only_max_clique(ids, adj, cap)
    assert find_max_clique(ids, adj, cap=cap) == want


@settings(max_examples=200, deadline=None)
@given(st.one_of(sparse_graphs(), partite_graphs()), st.data())
def test_dsatur_classes_are_independent_and_cover_each_vertex_once(graph, data):
    ids, adj = graph
    if data.draw(st.booleans(), label="one-way"):
        # drop one direction of some edges: neither end of a class may list the other
        rng = random.Random(data.draw(st.integers(0, 2**32), label="rng"))
        adj = {v: {w for w in near if v < w or rng.random() < 0.5} for v, near in adj.items()}
    nbr = bitsets(ids, adj)
    classes = _dsatur(nbr)
    assert all(classes)
    assert sum(c.bit_count() for c in classes) == len(ids)
    union = 0
    for members in classes:
        union |= members
        rest = members
        while rest:
            low = rest & -rest
            rest ^= low
            assert not nbr[low.bit_length() - 1] & members
    assert union == (1 << len(ids)) - 1


def test_lattice_search_effort_is_bounded(monkeypatch):
    # The 16x16 lattice has no 5 pairwise visible points.  The greedy bound
    # alone visits 108,733 nodes to prove it; with the root's DSATUR classes,
    # four on every lattice, the search visits a few hundred.
    calls = 0
    classes_hit = clique._classes_hit

    def counted(*args):
        nonlocal calls
        calls += 1
        return classes_hit(*args)

    monkeypatch.setattr(clique, "_classes_hit", counted)
    verdict = check_blbc_instance(lattice_points(16), 5, 17)
    assert verdict.clique_size == 4
    assert calls < 1000


def witness_family():
    """Fixed (vertices, adjacency, cap) inputs whose witnesses are pinned."""
    rng = random.Random(20261018)
    for n in (1, 2, 5, 10, 20, 30, 40):
        for density in (0.2, 0.5, 0.8):
            ids = rng.sample(range(1, 1000), n)  # sparse ids exercise the id tie-break
            edges = [e for e in combinations(ids, 2) if rng.random() < density]
            adj = adjacency_from_edges(ids, edges)
            for cap in (None, 1, 2, 3, 4, 5, 6):
                yield ids, adj, cap
    asymmetric = {1: {2, 3, 4}, 2: {1, 3}, 3: {1, 2, 4, 5}, 4: {3}, 5: {3, 4}}
    yield range(1, 6), asymmetric, None
    outside = {2: {4, 6, 7, 9}, 4: {2, 6, 1}, 6: {2, 4, 8, 11}, 8: {6, 3, 5, 7}}
    yield [2, 4, 6, 8], outside, None
    for side in range(2, 9):
        lattice = PointSet([(x, y) for y in range(side) for x in range(side)])
        graph = build_visibility_graph(lattice)
        yield range(1, graph.n + 1), graph.adjacency(), None
    graph = build_visibility_graph(generate(DEFAULT_SEED, 120).point_set())
    for cap in (4, 5, 50, None):
        yield range(1, graph.n + 1), graph.adjacency(), cap


def test_witnesses_are_pinned():
    # Every witness, not just its size: the walk's order decides which
    # maximum clique comes back, and the CLI prints it.
    out = [find_max_clique(v, adj, cap=cap) for v, adj, cap in witness_family()]
    digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()
    assert digest == "69f07f16b78fcf4950955dd8dc7a2d23771aa83ff05e769b43dfc07c0311f27a"
