"""Deterministic maximum-clique search (branch and bound with pivoting).

Each node is bounded by a greedy colouring of its candidates (Tomita &
Seki's MCQ, on bitsets as in San Segundo et al.'s BBMC): a clique takes
at most one vertex of each colour class.  The bound prunes only subtrees
that cannot beat the incumbent or reach the cap, so it changes which
nodes are visited but never which clique is returned.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .errors import InputError, _require_int


def _colours(cand: int, nbr: list[int], limit: int) -> int:
    """Greedy colour classes of the bitset ``cand``, counted up to ``limit + 1``.

    Each class takes the lowest uncoloured bit, then the lowest bit that is
    adjacent to none taken so far, and so on.
    """
    count = 0
    while cand and count <= limit:
        count += 1
        rest = cand
        while rest:
            low = rest & -rest
            cand ^= low
            rest &= ~(nbr[low.bit_length() - 1] | low)
    return count


def _require_cap(cap: int | None) -> None:
    """Refuse a clique size cap that is neither None nor an int >= 1."""
    if cap is not None:
        _require_int(cap, "clique size cap")
        if cap < 1:
            raise InputError(f"clique size cap must be >= 1, got {cap}")


def find_max_clique(
    vertices: Iterable[int],
    adjacency: Mapping[int, Iterable[int]],
    cap: int | None = None,
) -> list[int]:
    """Largest clique as an ascending vertex list.

    Bron-Kerbosch with a pivot, deterministic for a fixed input.  Bit r of
    each int set is the vertex of rank r, by descending degree (distinct
    listed neighbours) then ascending id; neighbours outside ``vertices``
    get no bit.  The pivot is the first vertex of ``cand | excl`` with the
    most neighbours in ``cand``; the branches are its non-neighbours in
    ``cand``, in ascending bit order.  A node is pruned when its clique
    plus the number of greedy colour classes of ``cand`` cannot beat the
    incumbent.  The classes bound every clique inside ``cand``, so a pruned
    subtree holds no clique larger than the incumbent, and none of size
    ``cap``, which is always larger than the incumbent: the first improving
    clique, and so every witness, is the one the plain bound
    ``len(clique) + |cand|`` would find.  The walk keeps an explicit stack
    of ``[cand, excl, branch]`` frames, one per clique vertex plus the
    root, so a deep clique needs no recursion.  With ``cap`` set, the
    search stops at the first clique of that size and returns it.
    """
    _require_cap(cap)
    adj = {v: frozenset(adjacency.get(v, ())) for v in vertices}
    if any(v in nbrs for v, nbrs in adj.items()):
        raise InputError("adjacency contains a self-loop")
    order = sorted(adj, key=lambda v: (-len(adj[v]), v))
    bit = {v: 1 << r for r, v in enumerate(order)}
    nbr = [sum(bit[w] for w in adj[v] if w in bit) for v in order]
    best: list[int] = []
    clique: list[int] = []
    stack: list[list[int]] = []
    cand, excl = (1 << len(order)) - 1, 0
    while True:
        if not cand and not excl:
            if len(clique) > len(best):
                best = sorted(clique)
        elif len(clique) + _colours(cand, nbr, len(best) - len(clique)) > len(best):
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
