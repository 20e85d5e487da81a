"""Point sets, the lines they span, and the visibility graph.

Two points of a set are mutually visible when no third point of the set
lies strictly inside the segment between them.  Any blocker is collinear
with the pair, so visibility is decided entirely by the arrangement of
lines spanned by the set.  `LineIncidenceMap` finds that arrangement by
grouping earlier points by exact direction from each new one, and is the
package's only incidence structure: the construction grows one instance
point by point and its exclusion kernel scans it, while the verifier, the
analyzer and the renderer each build their own, the visible pairs being
the neighbours along each line.  A direct per-pair reference
implementation of visibility is kept alongside as the oracle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd
from typing import Iterable, Iterator, Sequence

from .clique import find_max_clique
from .errors import DuplicatePointError, ImpossibleStateError, InputError
from .geometry import (
    CanonicalLine,
    Point,
    _homogeneous,
    _line_from_hom,
    line_through,
    on_open_segment,
)


class PointSet:
    """Immutable, 1-indexed collection of pairwise distinct exact points."""

    __slots__ = ("_points", "_hom")

    def __init__(self, points: Iterable[Sequence]):
        pts: list[Point] = []
        seen: dict[Point, int] = {}
        for pos, raw in enumerate(points, start=1):
            p = _coerce_point(raw, pos)
            first = seen.get(p)
            if first is not None:
                raise DuplicatePointError(
                    f"points {first} and {pos} are both {p}"
                )
            seen[p] = pos
            pts.append(p)
        self._points = tuple(pts)
        self._hom: list[tuple[int, int, int]] | None = None

    @property
    def n(self) -> int:
        return len(self._points)

    @property
    def points(self) -> tuple[Point, ...]:
        return self._points

    def point(self, i: int) -> Point:
        """Point at 1-based index i."""
        if not 1 <= i <= len(self._points):
            raise InputError(f"point index {i} outside 1..{len(self._points)}")
        return self._points[i - 1]

    def homogeneous(self) -> list[tuple[int, int, int]]:
        """Cached integer triples (X, Y, W), W > 0, for exact predicates."""
        if self._hom is None:
            self._hom = [_homogeneous(p) for p in self._points]
        return self._hom

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[Point]:
        return iter(self._points)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        return self._points == other._points

    def __repr__(self) -> str:
        return f"PointSet({len(self._points)} points)"


def _coerce_point(raw: Sequence, pos: int) -> Point:
    try:
        x, y = raw
    except (TypeError, ValueError) as exc:
        raise InputError(f"point {pos} is not an (x, y) pair: {raw!r}") from exc
    for coord in (x, y):
        if isinstance(coord, bool) or not isinstance(coord, (int, Fraction)):
            raise InputError(
                f"point {pos} has a non-rational coordinate {coord!r}; "
                "coordinates must be int or Fraction to stay exact"
            )
    return Point(Fraction(x), Fraction(y))


def _sorted_along_line(
    indices: Iterable[int], points: Sequence[Point], line: CanonicalLine
) -> list[int]:
    """Indices ordered by position along the line (1-based indices)."""
    if line.b == 0:
        return sorted(indices, key=lambda i: points[i - 1].y)
    return sorted(indices, key=lambda i: points[i - 1].x)


class LineIncidenceMap:
    """Every line spanned by the points fed so far, from exact directions.

    Each new point n groups the earlier points by exact direction from it.
    A lone point r starts the two-point line {r, n}; a group of two turns
    its pair's line into a three-point one; a larger group is a line of
    ``multi`` that n joins.  ``two_point`` holds the pairs (i < j) whose
    line carries no third point.  ``multi`` maps each line of three or
    more points to its ascending members, keyed by its two least indices,
    and `order` keeps ``along[key]``, the line and its members in order
    along it.  ``through`` lists the groups of the last point fed: the
    earlier points sharing a line with it.  ``before`` is the least
    two-point pair, in (j, i) order, over the points placed before the
    last one: the pair the construction must have selected.
    """

    def __init__(self, hom: list[tuple[int, int, int]]) -> None:
        self.hom = hom  # read as it grows; its points must be pairwise distinct
        self.n = 0
        self.two_point: set[tuple[int, int]] = set()
        self.multi: dict[tuple[int, int], list[int]] = {}
        self.along: dict[tuple[int, int], tuple[CanonicalLine, list[int]]] = {}
        self.through: list[list[int]] = []
        self.before: tuple[int, int] | None = None
        self._touched: set[tuple[int, int]] = set()  # keys of multi not yet ordered
        # (j, i) of the least pair that may be two-point; it only moves
        # forward, as pairs leave two_point for good and new pairs sort
        # after old ones
        self._next = (2, 1)

    @classmethod
    def from_point_set(cls, ps: PointSet | Sequence[Sequence]) -> LineIncidenceMap:
        """Every point of the set fed; any other sequence is read through
        `PointSet`, so repeated points are refused."""
        hom = (ps if isinstance(ps, PointSet) else PointSet(ps)).homogeneous()
        return cls(hom).advance(len(hom))

    def __len__(self) -> int:
        """Number of distinct lines spanned."""
        return len(self.two_point) + len(self.multi)

    def two_point_pairs(self) -> set[tuple[int, int]]:
        """Copy of the pairs whose line carries no third point."""
        return set(self.two_point)

    def line(self, key: tuple[int, int]) -> CanonicalLine:
        """Canonical line through the two points of ``key``."""
        return _line_from_hom(self.hom[key[0] - 1], self.hom[key[1] - 1])

    def least(self) -> tuple[int, int] | None:
        """Least two-point pair (i, j) in (j, i) order, or None."""
        j, i = self._next
        while j <= self.n and (i, j) not in self.two_point:
            i += 1
            if i == j:
                j, i = j + 1, 1
        self._next = (j, i)
        return (i, j) if j <= self.n else None

    def advance(self, n: int) -> LineIncidenceMap:
        """Feed points up to n; ``through`` and ``before`` then describe n."""
        for m in range(self.n + 1, n + 1):
            self.before = self.least()
            self.n = m
            hx, hy, hw = self.hom[m - 1]
            buckets: dict[tuple[int, int], list[int]] = {}
            for r in range(1, m):
                rx, ry, rw = self.hom[r - 1]
                dx = rx * hw - hx * rw
                dy = ry * hw - hy * rw
                g = gcd(dx, dy)
                if dx < 0 or (dx == 0 and dy < 0):
                    g = -g
                buckets.setdefault((dx // g, dy // g), []).append(r)
            self.through = []
            for group in buckets.values():
                if len(group) == 1:
                    self.two_point.add((group[0], m))
                    continue
                self.through.append(group)
                key = (group[0], group[1])
                if len(group) == 2:
                    self.two_point.discard(key)
                    self.multi[key] = [*group, m]
                else:
                    self.multi[key].append(m)
                self._touched.add(key)
        return self

    def order(self, points: Sequence[Point]) -> set[tuple[int, int]]:
        """Feed every point of ``points``, then refresh ``along`` for the
        lines of ``multi`` touched since the last call; returns their keys."""
        self.advance(len(points))
        touched, self._touched = self._touched, set()
        for key in touched:
            line = self.line(key)
            self.along[key] = (line, _sorted_along_line(self.multi[key], points, line))
        return touched

    def consecutive(self) -> list[tuple[int, int]]:
        """Visible pairs (i < j) on the lines of ``along``: neighbours along
        each line of three or more points."""
        return [
            (u, v) if u < v else (v, u)
            for _, order in self.along.values()
            for u, v in zip(order, order[1:])
        ]


class VisibilityGraph:
    """Undirected graph of mutually visible index pairs of a point set."""

    __slots__ = ("n", "edges", "_edge_set", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        self.n = n
        normalized = {(i, j) if i < j else (j, i) for i, j in edges}
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(normalized))
        self._edge_set = normalized
        adj: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        self._adj = adj

    def has_edge(self, i: int, j: int) -> bool:
        return ((i, j) if i < j else (j, i)) in self._edge_set

    def neighbors(self, i: int) -> frozenset[int]:
        return frozenset(self._adj[i])

    def degree(self, i: int) -> int:
        return len(self._adj[i])

    def adjacency(self) -> dict[int, set[int]]:
        """Copy of the adjacency structure keyed by 1-based vertex."""
        return {v: set(nbrs) for v, nbrs in self._adj.items()}

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def to_edge_list(self) -> list[list[int]]:
        """Sorted JSON-ready edge list of index pairs."""
        return [[i, j] for i, j in self.edges]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VisibilityGraph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __repr__(self) -> str:
        return f"VisibilityGraph(n={self.n}, edges={len(self.edges)})"


def is_visible(i: int, j: int, ps: PointSet) -> bool:
    """True iff no point of ps lies strictly inside segment (p_i, p_j).

    This is the defining per-pair test; the graph builders must agree with
    it edge for edge.
    """
    if i == j:
        raise InputError(f"visibility needs two distinct indices, got {i} twice")
    a = ps.point(i)
    b = ps.point(j)
    for r, p in enumerate(ps.points, start=1):
        if r == i or r == j:
            continue
        if on_open_segment(p, a, b):
            return False
    return True


def build_visibility_graph_naive(ps: PointSet) -> VisibilityGraph:
    """Reference builder: test every pair directly (cubic, oracle only)."""
    edges = [
        (i, j)
        for i in range(1, ps.n + 1)
        for j in range(i + 1, ps.n + 1)
        if is_visible(i, j, ps)
    ]
    return VisibilityGraph(ps.n, edges)


def _ordered_lines(ps: PointSet) -> LineIncidenceMap:
    lines = LineIncidenceMap.from_point_set(ps)
    lines.order(ps.points)
    return lines


def _graph(lines: LineIncidenceMap) -> VisibilityGraph:
    """A pair is visible exactly when it is consecutive along the (unique)
    line through it; ``lines`` must be ordered."""
    return VisibilityGraph(lines.n, chain(lines.two_point, lines.consecutive()))


def _largest_line(lines: LineIncidenceMap) -> tuple[int, list[int]]:
    best = min(lines.multi.values(), key=lambda m: (-len(m), m), default=None)
    witness = list(best or min(lines.two_point))
    return len(witness), witness


def _largest_clique(graph: VisibilityGraph, cap: int | None) -> tuple[int, list[int]]:
    witness = find_max_clique(range(1, graph.n + 1), graph.adjacency(), cap=cap)
    return len(witness), witness


def build_visibility_graph(ps: PointSet) -> VisibilityGraph:
    """Visibility graph via the lines of ps."""
    return _graph(_ordered_lines(ps))


def max_collinear(ps: PointSet) -> tuple[int, list[int]]:
    """Size and ascending witness of a largest collinear subset; ties go
    to the smallest index list."""
    if ps.n < 2:
        raise InputError(f"max_collinear needs at least 2 points, got {ps.n}")
    return _largest_line(LineIncidenceMap.from_point_set(ps))


def max_visible_clique(ps: PointSet, cap: int | None = None) -> tuple[int, list[int]]:
    """Size and ascending witness of a largest pairwise-visible subset.

    With ``cap`` the search stops at the first clique of that size, so the
    result is min(true maximum, cap) with a witness of exactly that size.
    """
    if ps.n < 1:
        raise InputError("max_visible_clique needs a non-empty point set")
    return _largest_clique(build_visibility_graph(ps), cap)


class BlbcOutcome(enum.Enum):
    """Which of the two structures reached its threshold."""

    COLLINEAR_FOUND = "CollinearFound"
    CLIQUE_FOUND = "CliqueFound"
    BOTH_FOUND = "BothFound"
    NEITHER_FOUND = "NeitherFound"


@dataclass(frozen=True)
class BlbcVerdict:
    """Outcome of one big-line-big-clique check: does the set contain l
    collinear points, or k pairwise visible points?

    ``collinear_size`` is the exact maximum.  ``clique_size`` is exact when
    below ``k``; once a clique of size ``k`` exists the search stops there,
    so the reported size is min(true maximum, k).  Witnesses are included
    only for structures that reached their threshold.
    """

    k: int
    l: int
    outcome: BlbcOutcome
    collinear_size: int
    clique_size: int
    collinear_witness: list[int] | None
    clique_witness: list[int] | None

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "l": self.l,
            "outcome": self.outcome.value,
            "collinear_size": self.collinear_size,
            "clique_size": self.clique_size,
            "collinear_witness": self.collinear_witness,
            "clique_witness": self.clique_witness,
        }


def check_blbc_instance(ps: PointSet, k: int, l: int) -> BlbcVerdict:
    """Decide whether ps contains l collinear points or k pairwise visible
    points, with verified witnesses."""
    if k < 2 or l < 2:
        raise InputError(f"thresholds must be >= 2, got k={k}, l={l}")
    if ps.n < 1:
        raise InputError("check_blbc_instance needs a non-empty point set")
    lines = _ordered_lines(ps)
    col_size, col_wit = _largest_line(lines) if ps.n >= 2 else (1, [1])
    cl_size, cl_wit = _largest_clique(_graph(lines), cap=k)

    big_line = col_size >= l
    big_clique = cl_size >= k
    if big_line and big_clique:
        outcome = BlbcOutcome.BOTH_FOUND
    elif big_line:
        outcome = BlbcOutcome.COLLINEAR_FOUND
    elif big_clique:
        outcome = BlbcOutcome.CLIQUE_FOUND
    else:
        outcome = BlbcOutcome.NEITHER_FOUND

    if big_line:
        _assert_collinear(ps, col_wit)
    if big_clique:
        _assert_pairwise_visible(ps, cl_wit)
    return BlbcVerdict(
        k=k,
        l=l,
        outcome=outcome,
        collinear_size=col_size,
        clique_size=cl_size,
        collinear_witness=col_wit if big_line else None,
        clique_witness=cl_wit if big_clique else None,
    )


def _assert_collinear(ps: PointSet, witness: list[int]) -> None:
    line = line_through(ps.point(witness[0]), ps.point(witness[1]))
    for i in witness[2:]:
        if not line.contains(ps.point(i)):
            raise ImpossibleStateError(f"collinear witness {witness} is not collinear")


def _assert_pairwise_visible(ps: PointSet, witness: list[int]) -> None:
    for a in range(len(witness)):
        for b in range(a + 1, len(witness)):
            if not is_visible(witness[a], witness[b], ps):
                raise ImpossibleStateError(
                    f"clique witness {witness} has an invisible pair "
                    f"({witness[a]}, {witness[b]})"
                )


def blocking_parameters(ps: PointSet, i: int, j: int) -> set[Fraction]:
    """Parameters t in (0, 1) where a point placed at a + t*(b - a) on
    segment (p_i, p_j) would be collinear with some other pair of ps.

    Each stored line disjoint from the segment's endpoints crosses the
    segment's interior in at most one point; the returned set collects the
    distinct crossing parameters.  When the pair's own line carries no
    third point, placing a new point at any t outside this set creates
    exactly one collinear triple: {p_i, new, p_j}.
    """
    if i == j:
        raise InputError(f"need two distinct indices, got {i} twice")
    ps.point(i)
    ps.point(j)
    return _crossing_parameters(LineIncidenceMap.from_point_set(ps), i, j)


def _crossing_parameters(lines: LineIncidenceMap, i: int, j: int) -> set[Fraction]:
    """The exclusion kernel: parameters t in (0, 1) where a line of
    ``lines`` other than the pair's own crosses the open segment (p_i, p_j).

    With A = p_i, B = p_j and the line through P_m and P_r (its key),
    ``fa = cross(dA_m, dA_r)`` is w_A times the determinant [A; P_m; P_r],
    where dA_k is the direction of P_k from A, and ``fb`` likewise for B.
    A zero means the line passes through that endpoint, and then meets
    the segment's line there alone; otherwise the line crosses the open
    segment exactly when the signs differ.  The lines through an endpoint
    are asserted against the members each line lists, not assumed.
    """
    hom, multi = lines.hom, lines.multi
    xa, ya, wa = hom[i - 1]
    xb, yb, wb = hom[j - 1]
    # directions from either endpoint, 1-based like the keys
    da = [(0, 0), *((x * wa - xa * w, y * wa - ya * w) for x, y, w in hom)]
    db = [(0, 0), *((x * wb - xb * w, y * wb - yb * w) for x, y, w in hom)]
    wa2, wb2 = wa * wa, wb * wb
    out: set[Fraction] = set()
    for key in chain(lines.two_point, multi):
        m, r = key
        amx, amy = da[m]
        arx, ary = da[r]
        bmx, bmy = db[m]
        brx, bry = db[r]
        fa = amx * ary - amy * arx
        fb = bmx * bry - bmy * brx
        if fa and fb:
            if (fa > 0) != (fb > 0):
                # fa·wb² / (fa·wb² − fb·wa²) is La·wb / (La·wb − Lb·wa) for
                # the line's coefficients L
                u = fa * wb2
                out.add(Fraction(u, u - fb * wa2))
        elif (endpoint := i if fa == 0 else j) not in multi.get(key, key):
            raise ImpossibleStateError(
                f"point {endpoint} lies on line {tuple(lines.line(key))} "
                "which does not list it"
            )
    for (m, r), members in multi.items():
        if (i in members or j in members) and _cross(da[m], da[r]) and _cross(db[m], db[r]):
            raise ImpossibleStateError(
                f"line {tuple(lines.line((m, r)))} lists an endpoint of {(i, j)} "
                "but passes through neither"
            )
    return out


def _cross(u: tuple[int, int], v: tuple[int, int]) -> int:
    return u[0] * v[1] - u[1] * v[0]
