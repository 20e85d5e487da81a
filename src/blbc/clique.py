"""Deterministic maximum-clique search (branch and bound with pivoting).

Each node is bounded twice: by a greedy colouring of its candidates
(Tomita & Seki's MCQ, on bitsets as in San Segundo et al.'s BBMC), and
by the classes of one DSATUR colouring of the whole graph (Brélaz 1979),
made once at the root, that its candidates hit.  A clique takes at most
one vertex of each colour class of either colouring.  On a lattice the
greedy classes of inner nodes are often many more than the root's four
DSATUR classes, which is where the second bound prunes.  Both bounds
prune only subtrees that cannot beat the incumbent or reach the cap, so
they change which nodes are visited but never which clique is returned.
Each bound is needed.  Without the root classes the search visits
108,733 nodes on the 16×16 lattice with k = 5, not 216.  Without the
greedy classes it visits as many nodes on the 12×12 to 20×20 lattices
and on 300- and 600-point runs, but 4,920,333, not 74,882, on a dense
random graph, G(100, 0.9).
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


def _dsatur(nbr: list[int]) -> list[int]:
    """Colour classes of every bit, as bitsets, by DSATUR (Brélaz 1979).

    Each step colours the uncoloured bit with the most distinct colours
    among its neighbours, ties to the lowest bit, with the least colour none
    of its neighbours has.  ``level`` holds the uncoloured bits by that
    count; ``near[c]`` holds every bit listed by a bit of class c.  A bit
    joins a class only when neither lists the other, so each class is an
    independent set even of an asymmetric ``nbr``.
    """
    classes: list[int] = []
    near: list[int] = []
    level = {0: (1 << len(nbr)) - 1} if nbr else {}
    while level:
        top = max(level)
        low = level[top] & -level[top]
        level[top] ^= low
        if not level[top]:
            del level[top]
        adjacent = nbr[low.bit_length() - 1]
        c = len(classes)
        if top < c:  # a class it does not see, and none of whose bits it lists
            c = next((c for c, seen in enumerate(near)
                      if not seen & low and not classes[c] & adjacent), c)
        if c == len(classes):
            classes.append(0)
            near.append(0)
        classes[c] |= low
        fresh = adjacent & ~near[c]  # bits that now see colour c for the first time
        near[c] |= adjacent
        for count in sorted((k for k, bits in level.items() if bits & fresh), reverse=True):
            moved = level[count] & fresh
            level[count] ^= moved
            if not level[count]:
                del level[count]
            level[count + 1] = level.get(count + 1, 0) | moved
    return classes


def _classes_hit(cand: int, classes: list[int], limit: int) -> int:
    """How many of ``classes`` meet the bitset ``cand``, counted up to ``limit + 1``."""
    count = 0
    for members in classes:
        if members & cand:
            count += 1
            if count > limit:
                break
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
    ``cand``, in ascending bit order.  The whole graph is coloured once, at
    the root, by `_dsatur`.  A node is expanded only when its clique plus
    the number of root classes that ``cand`` hits beats the incumbent,
    and so does its clique plus the number of greedy colour classes of
    ``cand``; the greedy classes, which cost a pass over ``cand``, are
    counted only when the root classes do not prune.  Either count bounds
    every clique inside ``cand``, as a clique takes at most one vertex of
    each class.  So a pruned subtree holds no
    clique larger than the incumbent, and none of size ``cap``, which is
    always larger than the incumbent: the first improving clique, and so
    every witness, is the one the plain bound ``len(clique) + |cand|``
    would find.  The walk keeps an explicit stack of ``[cand, excl,
    branch]`` frames, one per clique vertex plus the root, so a deep
    clique needs no recursion.  With ``cap`` set, the search stops at the
    first clique of that size and returns it.
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
    classes = _dsatur(nbr)
    cand, excl = (1 << len(order)) - 1, 0
    while True:
        if not cand and not excl:
            if len(clique) > len(best):
                best = sorted(clique)
        elif (
            len(clique) + _classes_hit(cand, classes, len(best) - len(clique)) > len(best)
            and len(clique) + _colours(cand, nbr, len(best) - len(clique)) > len(best)
        ):
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
