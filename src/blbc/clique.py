"""Deterministic maximum-clique search (branch and bound with pivoting)."""

from __future__ import annotations

from typing import Iterable, Mapping

from .errors import InputError, _require_int


class _CapReached(Exception):
    pass


def find_max_clique(
    vertices: Iterable[int],
    adjacency: Mapping[int, Iterable[int]],
    cap: int | None = None,
) -> list[int]:
    """Largest clique as an ascending vertex list.

    The search is Bron-Kerbosch with a pivot plus an incumbent-size bound,
    fully deterministic for a fixed input: vertices are explored in
    descending-degree order with ties broken by ascending vertex id.  With
    ``cap`` set, the search stops as soon as any clique of that size exists
    and returns exactly ``cap`` vertices, so callers that only need to know
    whether a threshold is reached avoid the full maximum computation.
    """
    if cap is not None:
        _require_int(cap, "clique size cap")
        if cap < 1:
            raise InputError(f"clique size cap must be >= 1, got {cap}")
    adj = {v: frozenset(adjacency.get(v, ())) for v in vertices}
    if any(v in nbrs for v, nbrs in adj.items()):
        raise InputError("adjacency contains a self-loop")
    order = sorted(adj, key=lambda v: (-len(adj[v]), v))
    rank = {v: r for r, v in enumerate(order)}
    best: list[int] = []

    def expand(clique: list[int], cand: list[int], excl: list[int]) -> None:
        nonlocal best
        if not cand and not excl:
            if len(clique) > len(best):
                best = sorted(clique)
            return
        if len(clique) + len(cand) <= len(best):
            return
        pivot = None
        pivot_cover = -1
        for u in sorted(cand + excl, key=rank.__getitem__):
            cover = sum(1 for w in cand if w in adj[u])
            if cover > pivot_cover:
                pivot, pivot_cover = u, cover
        cand = list(cand)
        excl = list(excl)
        for v in [w for w in cand if w not in adj[pivot]]:
            clique.append(v)
            if cap is not None and len(clique) >= cap:
                best = sorted(clique)
                raise _CapReached
            nbrs = adj[v]
            expand(
                clique,
                [w for w in cand if w in nbrs],
                [w for w in excl if w in nbrs],
            )
            clique.pop()
            cand.remove(v)
            excl.append(v)

    try:
        expand([], order, [])
    except _CapReached:
        pass
    return best
