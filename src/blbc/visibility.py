"""Point sets, the lines they span, and the visibility graph.

Two points of a set are mutually visible when no third point of the set
lies strictly inside the segment between them.  Any blocker is collinear
with the pair, so visibility is decided entirely by the arrangement of
lines spanned by the set.  `LineIncidenceMap` finds that arrangement by
grouping earlier points by exact direction from each new one, and is the
package's only incidence structure: the construction grows one instance
point by point for its pending pairs, while the verifier, the analyzer
and the renderer each build their own, the visible pairs being the
neighbours along each line.  The map keeps the sparse side of its pairs:
``covered``, the pairs on lines of three or more points; its
``two_point`` is a read-only view of every other pair, `TwoPointPairs`.
The exclusion kernel behind `blocking_parameters` reads no line
structure: it loops over pairs of points and their homogeneous
coordinates, in integers only, and keys each crossing by one int made
from its reduced numerator and denominator; an `ExclusionSet` shows
those keys as a set of Fractions.  A direct per-pair reference
implementation of visibility is kept alongside as the oracle.
"""

from __future__ import annotations

import enum
from collections.abc import Set
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import comb, gcd, isqrt
from typing import Iterable, Iterator, Sequence

from .clique import find_max_clique
from .errors import DuplicatePointError, ImpossibleStateError, InputError, _require_int
from .geometry import (
    CanonicalLine,
    Point,
    _homogeneous,
    _line_from_hom,
    _require_fraction,
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
        return _at(self._points, i)

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


def _at(points: Sequence[Point], i: int) -> Point:
    _require_int(i, "point index")
    if not 1 <= i <= len(points):
        raise InputError(f"point index {i} outside 1..{len(points)}")
    return points[i - 1]


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


def _is_pair(pair: object, n: int) -> bool:
    """True iff ``pair`` is a tuple of two ints i, j with 1 <= i < j <= n."""
    if not isinstance(pair, tuple) or len(pair) != 2:
        return False
    i, j = pair
    return isinstance(i, int) and isinstance(j, int) and 1 <= i < j <= n


class TwoPointPairs(Set):
    """Read-only, live view of the pairs (i < j) of a `LineIncidenceMap`
    whose line carries no third point: the pairs of 1..n not covered.

    ``in`` is O(1); ``len`` is C(n, 2) less the size of ``covered``, which
    holds only pairs of 1..n as the map keeps it; iteration is lazy, in
    (j, i) order.  Two views of maps over as many points compare their
    covered pairs, in O(|covered|); anything else compares as plain sets.
    Either way ``==`` is that of the plain sets, whatever ``covered``
    holds.
    """

    __slots__ = ("_lines",)

    def __init__(self, lines: LineIncidenceMap) -> None:
        self._lines = lines

    def _covered(self) -> set[tuple[int, int]]:
        """The covered pairs that are pairs of 1..n: all of them, unless
        ``covered`` was written to from outside the map."""
        n = self._lines.n
        return {p for p in self._lines.covered if _is_pair(p, n)}

    def __contains__(self, pair: object) -> bool:
        return _is_pair(pair, self._lines.n) and pair not in self._lines.covered

    def __len__(self) -> int:
        return comb(self._lines.n, 2) - len(self._lines.covered)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        covered = self._lines.covered
        for j in range(2, self._lines.n + 1):
            for i in range(1, j):
                if (i, j) not in covered:
                    yield i, j

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TwoPointPairs) and other._lines.n == self._lines.n:
            mine, theirs = self._lines.covered, other._lines.covered
            return mine == theirs or self._covered() == other._covered()
        if not isinstance(other, Set):
            return NotImplemented
        return set(self) == set(other)

    @classmethod
    def _from_iterable(cls, it: Iterable[tuple[int, int]]) -> set[tuple[int, int]]:
        # the & | - ^ mixins build their results here: plain sets
        return set(it)

    def __repr__(self) -> str:
        return f"TwoPointPairs(n={self._lines.n}, {len(self)} pairs)"


class LineIncidenceMap:
    """Every line spanned by the points fed so far, from exact directions.

    Each new point n groups the earlier points by exact direction from it.
    A lone point r leaves {r, n} a two-point line; a group of two turns
    its pair's line into a three-point one; a larger group is a line of
    ``multi`` that n joins.  ``multi`` maps each line of three or more
    points to its ascending members, keyed by its two least indices, and
    ``covered`` holds every pair (i < j) on such a line.  ``two_point``
    is a read-only view of the other pairs, those whose line carries no
    third point; only ``covered`` is stored.  `order` keeps
    ``along[key]``, the line and its members in order along it.
    ``through`` lists the groups of the last point fed: the earlier points
    sharing a line with it.  ``before`` is the least two-point pair, in
    (j, i) order, over the points placed before the last one: the pair
    the construction must have selected.
    """

    def __init__(self, hom: list[tuple[int, int, int]]) -> None:
        self.hom = hom  # read as it grows; its points must be pairwise distinct
        self.n = 0
        self.covered: set[tuple[int, int]] = set()
        self.multi: dict[tuple[int, int], list[int]] = {}
        self.along: dict[tuple[int, int], tuple[CanonicalLine, list[int]]] = {}
        self.through: list[list[int]] = []
        self.before: tuple[int, int] | None = None
        self._touched: set[tuple[int, int]] = set()  # keys of multi not yet ordered
        # (j, i) of the least pair that may be two-point; it only moves
        # forward, as pairs become covered for good and new pairs sort
        # after old ones
        self._next = (2, 1)

    @classmethod
    def from_point_set(cls, ps: PointSet | Sequence[Sequence]) -> LineIncidenceMap:
        """Every point of the set fed; any other sequence is read through
        `PointSet`, so repeated points are refused."""
        hom = (ps if isinstance(ps, PointSet) else PointSet(ps)).homogeneous()
        return cls(hom).advance(len(hom))

    @property
    def two_point(self) -> TwoPointPairs:
        """The pairs whose line carries no third point (a live view)."""
        return TwoPointPairs(self)

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
        while j <= self.n and (i, j) in self.covered:
            i += 1
            if i == j:
                j, i = j + 1, 1
        self._next = (j, i)
        return (i, j) if j <= self.n else None

    def advance(self, n: int) -> LineIncidenceMap:
        """Feed points up to n; ``through`` and ``before`` then describe n."""
        covered = self.covered
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
            self.through = [group for group in buckets.values() if len(group) > 1]
            for group in self.through:
                key = (group[0], group[1])
                if len(group) == 2:
                    self.multi[key] = [*group, m]
                    covered.add(key)
                else:
                    self.multi[key].append(m)
                covered.update((r, m) for r in group)
                self._touched.add(key)
        return self

    def order(self, points: Sequence[Point]) -> dict[tuple[int, int], list[int] | None]:
        """Feed every point of ``points``, then refresh ``along`` for the
        lines of ``multi`` touched since the last call; returns their keys,
        each with its previous order along the line, None for a new line."""
        self.advance(len(points))
        touched, self._touched = self._touched, set()
        previous: dict[tuple[int, int], list[int] | None] = {}
        for key in touched:
            line = self.line(key)
            old = self.along.get(key)
            previous[key] = None if old is None else old[1]
            self.along[key] = (line, _sorted_along_line(self.multi[key], points, line))
        return previous

    def consecutive(self) -> list[tuple[int, int]]:
        """Visible pairs (i < j) on the lines of ``along``: neighbours along
        each line of three or more points."""
        return [
            (u, v) if u < v else (v, u)
            for _, order in self.along.values()
            for u, v in zip(order, order[1:])
        ]


class VisibilityGraph:
    """Visible index pairs of a point set, held only as ascending ``edges``."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        _require_int(n, "vertex count")
        if n < 0:
            raise InputError(f"vertex count must be >= 0, got {n}")
        self.n = n
        normalized = set()
        for i, j in edges:
            _require_int(i, "vertex index")
            _require_int(j, "vertex index")
            if not 1 <= i != j <= n:
                raise InputError(f"edge ({i}, {j}) needs distinct vertices in 1..{n}")
            normalized.add((i, j) if i < j else (j, i))
        self.edges = tuple(sorted(normalized))

    def adjacency(self) -> dict[int, set[int]]:
        """Fresh neighbour sets keyed by 1-based vertex, built from ``edges``."""
        adj: dict[int, set[int]] = {v: set() for v in range(1, self.n + 1)}
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj

    @property
    def edge_count(self) -> int:
        return len(self.edges)

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
    a = ps.point(i)
    b = ps.point(j)
    if i == j:
        raise InputError(f"visibility needs two distinct indices, got {i} twice")
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
    # with no line of three points every pair is two-point, (1, 2) least
    witness = list(best or (1, 2))
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
    _require_int(k, "threshold k")
    _require_int(l, "threshold l")
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
    """From a, b is visible iff it is the nearest point of ps on its ray."""
    hom = ps.homogeneous()
    for pos, a in enumerate(witness):
        xa, ya, wa = hom[a - 1]
        nearest: dict[tuple[int, int], list[int]] = {}
        for p, (x, y, w) in enumerate(hom, start=1):
            dx, dy = x * wa - xa * w, y * wa - ya * w
            g = gcd(dx, dy)
            if g:  # p - a is g / (wa * w) steps of the primitive ray
                near = nearest.setdefault((dx // g, dy // g), [g, w, p])
                if g * near[1] < near[0] * w:
                    near[:] = g, w, p
        visible = {p for _, _, p in nearest.values()}
        for b in witness[pos + 1 :]:
            if b not in visible:
                raise ImpossibleStateError(
                    f"clique witness {witness} has an invisible pair ({a}, {b})"
                )


def _key(num: int, den: int) -> int:
    """The int that stands for the reduced t = num/den, 0 < num < den.

    The keys of one den are the den - 1 ints after those of all smaller
    dens, so no two such t share one.  An int key holds less memory than
    a pair or a Fraction and is no container for the garbage collector.
    """
    return den * (den - 1) // 2 + num


class ExclusionSet(Set):
    """Read-only set of the parameters t in (0, 1) that one insertion
    rules out, held as the `_key` ints of their reduced numerators and
    denominators.

    ``in`` takes a Fraction and looks up its key; iteration yields
    Fractions.  Through the `Set` mixins it compares equal to the
    ``set[Fraction]`` of the same parameters, in either operand order.
    """

    __slots__ = ("_keys",)

    def __init__(self, keys: set[int]) -> None:
        self._keys = keys

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, t: object) -> bool:
        _require_fraction(t)
        num, den = t.numerator, t.denominator
        # keys stand only for t in (0, 1): 3/2 would share 1/3's
        return 0 < num < den and _key(num, den) in self._keys

    def __iter__(self) -> Iterator[Fraction]:
        for key in self._keys:
            # (2den - 1)² <= 8key - 7 < (2den + 1)² for each key of den
            den = (1 + isqrt(8 * key - 7)) // 2
            yield Fraction(key - den * (den - 1) // 2, den)

    @classmethod
    def _from_iterable(cls, it: Iterable[Fraction]) -> set[Fraction]:
        # the & | - ^ mixins build their results here, from Fractions,
        # which the constructor does not take: they are plain sets
        return set(it)

    def __repr__(self) -> str:
        return f"ExclusionSet({len(self._keys)} parameters)"


def blocking_parameters(ps: PointSet, i: int, j: int) -> ExclusionSet:
    """Parameters t in (0, 1) where a point placed at a + t*(b - a) on
    segment (p_i, p_j) would be collinear with some other pair of ps.

    Each line through two other points that misses both endpoints crosses
    the segment's interior in at most one point; the returned set collects
    the distinct crossing parameters, computed pair by pair from the
    coordinates in integers.  When the pair's own line carries no third
    point, placing a new point at any t outside this set creates exactly
    one collinear triple: {p_i, new, p_j}.
    """
    ps.point(i)
    ps.point(j)
    if i == j:
        raise InputError(f"need two distinct indices, got {i} twice")
    return _crossing_parameters(ps.homogeneous(), i, j)


def _crossing_parameters(hom: Sequence[tuple[int, int, int]], i: int, j: int) -> ExclusionSet:
    """The exclusion kernel: parameters t in (0, 1) where the line through
    two points of ``hom`` crosses the open segment (p_i, p_j).

    With A = p_i, B = p_j and points P_m, P_r, ``fa = cross(dA_m, dA_r)``
    is w_A times the determinant [A; P_m; P_r], where dA_k is the direction
    of P_k from A, and ``fb`` likewise for B.  A zero means the line passes
    through that endpoint (or the pair contains it), and then meets the
    segment's line there alone; otherwise the line crosses the open
    segment exactly when the signs differ, at
    t = |fa|·wb² / (|fa|·wb² + |fb|·wa²).  Both terms are positive, so one
    gcd reduces t to Fraction's own numerator and denominator, which the
    loop turns into t's `_key`, inlined; the pairs of a line with three
    points give the same key, kept once.
    """
    xa, ya, wa = hom[i - 1]
    xb, yb, wb = hom[j - 1]
    # each point's directions from A and from B
    d = [(x * wa - xa * w, y * wa - ya * w, x * wb - xb * w, y * wb - yb * w)
         for x, y, w in hom]
    wa2, wb2 = wa * wa, wb * wb
    keys: set[int] = set()
    add = keys.add
    for m, (amx, amy, bmx, bmy) in enumerate(d, start=1):
        for arx, ary, brx, bry in d[m:]:
            fa = amx * ary - amy * arx
            # |fa|, and fb with the sign flipped when fa > 0: the signs
            # differ exactly when that fb is positive
            if fa > 0:
                fb = bmy * brx - bmx * bry
            elif fa < 0:
                fa = -fa
                fb = bmx * bry - bmy * brx
            else:
                continue
            if fb > 0:
                u = fa * wb2
                v = u + fb * wa2
                g = gcd(u, v)
                v //= g
                add(v * (v - 1) // 2 + u // g)
    return ExclusionSet(keys)
