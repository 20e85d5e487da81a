"""Point sets, the lines they span, and the visibility graph.

Two points of a set are mutually visible when no third point of the set
lies strictly inside the segment between them.  Any blocker is collinear
with the pair, so visibility is decided entirely by the arrangement of
lines spanned by the set.  `LineIncidenceMap` finds that arrangement by
grouping the earlier points by the slope of their line to each new one,
each keyed by one int, the slope's `_key_bits` floor.  It keeps the
points over the lcm L of their denominators, so a pair's direction is
two subtractions; when the denominators share so few factors that L
grows past twice the largest denominator's width (plus 32 bits), it
drops L and multiplies out each pair's own denominators instead.  It is
the package's only incidence structure: the construction grows one instance
point by point for its pending pairs, while the verifier, the analyzer
and the renderer each build their own.  The map keeps the sparse side
of its pairs: ``covered``, the pairs on lines of three or more points,
each line's members kept in order along it, by an int key too, as points
are fed; its
``two_point`` is a read-only view of every other pair, `TwoPointPairs`,
iterated by the one (j, i) walk that ``least()`` reads from a cursor.
Its ``blocked()`` is the one place that says which pairs are not
visible: each point's partners two or more apart along a line, n - 3
pairs in a construction run.  ``visible()`` yields every other pair
lazily, in ascending order, flattened from rows of each point's partners
above it; the renderer reads those rows one at a time, so it never holds
the visible pairs all at once.  The analyzer's clique search takes the
vertices with no blocked partner without searching them.
The exclusion kernel behind `blocking_parameters` reads no line
structure: from the homogeneous coordinates, in integers only, it orders
the other points by the lines joining them to the segment's endpoints,
visits only the pairs whose line crosses the segment, and keys each
crossing by one int, the floor of its parameter times 2^bits, with bits
wide enough, from a bound on the denominators proven from the call's own
coordinates, that distinct parameters never share a floor (the map's
keys rest on the same `_key_bits` argument); an
`ExclusionSet` shows those keys as a set of Fractions.  A direct
per-pair reference implementation of visibility is kept alongside as
the oracle.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, insort
from collections.abc import Set
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .clique import _require_cap, find_max_clique
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
        hom: list[tuple[int, int, int]] = []
        seen: dict[tuple[int, int, int], int] = {}  # equal points, equal triples
        for pos, raw in enumerate(points, start=1):
            p = _coerce_point(raw, pos)
            h = _homogeneous(p)
            first = seen.setdefault(h, pos)
            if first != pos:
                raise DuplicatePointError(
                    f"points {first} and {pos} are both {p}"
                )
            pts.append(p)
            hom.append(h)
        self._points = tuple(pts)
        self._hom = hom

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
        """Integer triples (X, Y, W), W > 0, for exact predicates."""
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
    """``raw`` as a `Point` of two Fractions, else InputError.  A `Point`
    that holds two Fractions already is returned as it is, not copied."""
    if type(raw) is Point and type(raw.x) is Fraction and type(raw.y) is Fraction:
        return raw
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
    holds only pairs of 1..n as the map keeps it; iteration is the map's
    lazy (j, i) walk.  Two views over as many points with equal covered
    pairs are equal, in O(|covered|); anything else compares as plain
    sets, so ``==`` is that of the plain sets whatever ``covered`` holds.
    """

    __slots__ = ("_lines",)

    def __init__(self, lines: LineIncidenceMap) -> None:
        self._lines = lines

    def __contains__(self, pair: object) -> bool:
        return _is_pair(pair, self._lines.n) and pair not in self._lines.covered

    def __len__(self) -> int:
        return comb(self._lines.n, 2) - len(self._lines.covered)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return self._lines._two_point_from(2, 1)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TwoPointPairs):
            if (other._lines.n, other._lines.covered) == (self._lines.n, self._lines.covered):
                return True
        if not isinstance(other, Set):
            return NotImplemented
        return set(self) == set(other)

    @classmethod
    def _from_iterable(cls, it: Iterable[tuple[int, int]]) -> set[tuple[int, int]]:
        # the & | - ^ mixins build their results here: plain sets
        return set(it)

    def __repr__(self) -> str:
        return f"TwoPointPairs(n={self._lines.n}, {len(self)} pairs)"


class _Common(NamedTuple):
    """The points fed over L, the lcm of their W's, as ints (X·L/W, Y·L/W),
    with Y shifted left by ``shift`` bits; ``reach`` is the largest
    |X·L/W|, and ``shift`` is at least `_key_bits(2·reach)`."""

    den: int
    xs: list[int]
    ys: list[int]
    reach: int
    shift: int


class LineIncidenceMap:
    """Every line spanned by the points fed so far, from exact slopes.

    Each new point n groups the earlier points r by the slope dy/dx of
    the line rn, in ints.  The map keeps the points fed over one common
    denominator L, the lcm of their W's, as (X·L/W, Y·L/W), so (dx, dy)
    is L·(p_r - p_n), two subtractions, and |dx| is at most D = 2·max
    |X·L/W| over the points fed, n included.  The slope's reduced
    denominator is at most D, so its `_key_bits(D)` floor,
    ``(dy << bits) // dx``, is one int per pair that equal slopes share
    and distinct ones do not; Y is kept shifted by that width, shifted
    again when D grows, so a pair's key is ``(ry - cy) // dx``.  A W that
    does not divide L rescales the kept coordinates: L at least doubles,
    so there are at most bits(L) rescales, of O(n) each.

    Independent denominators make L explode: 300 points over distinct
    20-bit primes give L of about 6000 bits, and each pair would then
    divide ints that wide.  So when a point would take bits(L) past
    2·bits(max W) + 32, the map drops L for good and forms each pair from
    the two points' own W's: (dx, dy) is W_r·W_n·(p_r - p_n), four
    products, and D = max |X|·W_n + |X_n|·max W over the points fed
    before n.  The rule compares widths: a common coordinate is about
    bits(x) + bits(L) wide and a product about bits(x) + bits(W_r) +
    bits(W_n), so within 2·bits(max W), plus about one 30-bit digit, the
    common ints are no wider and the products are saved.  L stays on a
    construction run (26 bits of L against a max W of 10), a wide-seed
    run (155 against 138) and lattice images (9 against 9); it goes on
    300 points with random denominators up to 99 (136 against 14),
    where the per-point loop is the faster one.  The rule reads only the
    largest W, so a set whose W's are all 1 but for one wide one keeps
    L, although the per-point loop would be faster there.

    The vertical line (dx = 0) has one sentinel key.  A lone point r
    leaves {r, n} a two-point line; a group of two turns its pair's line
    into a three-point one; a larger group is a line of ``multi`` that n
    joins.  ``multi`` maps each line of three or more points, keyed by its
    two least indices, to its members in order along it in the frame of
    ``hom``, by x or by y on a vertical line, each keyed by the
    `_key_bits(max W)` floor of that coordinate; affine maps keep
    betweenness, so their consecutive pairs are the raw ones.  The maxima
    and L are running ones over the points fed, since ``hom`` only grows;
    a refused point changes neither them nor anything else.  ``covered``
    holds every pair (i < j) on such a line.  ``two_point`` is a
    read-only view of the other pairs, those whose line carries no third
    point; only ``covered`` is stored.  ``through`` lists the ascending
    groups of the last point fed: the earlier points sharing a line with
    it.  Feeding a point that repeats an earlier one raises
    DuplicatePointError.
    """

    def __init__(self, hom: list[tuple[int, int, int]]) -> None:
        self.hom = hom  # read as it grows; a repeated point is refused when fed
        self.n = 0
        self.covered: set[tuple[int, int]] = set()
        self.multi: dict[tuple[int, int], list[int]] = {}
        self.through: list[list[int]] = []
        # the largest |X| and W of the points fed, which bound the keys
        self._max_x = self._max_w = 0
        # the points fed over their common denominator, until it is too wide
        self._common: _Common | None = _Common(1, [], [], 0, 0)
        # (j, i) with every pair before it covered: pairs become covered
        # for good and new pairs sort after old ones, so `least` starts
        # its walk here
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

    def _least_line(self, k: int) -> list[int] | None:
        """The least line of k or more points, as ascending indices, or None:
        a line's key is its two least indices, so the least key names it."""
        key = min((key for key, line in self.multi.items() if len(line) >= k), default=None)
        return None if key is None else sorted(self.multi[key])

    def _two_point_from(self, j: int, i: int) -> Iterator[tuple[int, int]]:
        """The two-point pairs from (j, i) on, as (i, j), lazily, in (j, i)
        order: the pairs of 1..n not in ``covered``."""
        covered = self.covered
        for j in range(j, self.n + 1):
            for i in range(i, j):
                if (i, j) not in covered:
                    yield i, j
            i = 1

    def least(self) -> tuple[int, int] | None:
        """Least two-point pair (i, j) in (j, i) order, or None; with none,
        the cursor moves past every pair of the points fed."""
        i, j = next(self._two_point_from(*self._next), (1, self.n + 1))
        self._next = (j, i)
        return (i, j) if j <= self.n else None

    def _common_point(self, x: int, y: int, w: int) -> tuple[_Common, int, int] | None:
        """The common state rescaled and shifted for the point (x, y, w),
        and the point's own common coordinates, Y shifted; None when w
        would take bits(L) past 2·bits(max W) + 32.  The state holds the
        points fed so far: a rescale or a shift builds new lists, so the
        map is left as it was until the point is taken."""
        den, xs, ys, reach, shift = self._common
        if den % w:
            grown = den // gcd(den, w) * w
            if grown.bit_length() > 2 * max(self._max_w, w).bit_length() + 32:
                return None
            f = grown // den
            den, xs, ys, reach = grown, [v * f for v in xs], [v * f for v in ys], reach * f
        scale = den // w
        cx, cy = x * scale, y * scale
        reach = max(reach, abs(cx))
        bits = _key_bits(2 * reach)  # 2·reach >= |dx|
        if bits > shift:
            ys = [v << (bits - shift) for v in ys]
            shift = bits
        return _Common(den, xs, ys, reach, shift), cx, cy << shift

    def advance(self, n: int) -> LineIncidenceMap:
        """Feed points up to n; ``through`` then describes n.  An n below
        the points fed is refused; n equal to it changes nothing."""
        _require_int(n, "point count")
        if n < self.n:
            raise InputError(f"cannot feed up to point {n}: {self.n} points are fed already")
        if n > len(self.hom):
            raise InputError(f"cannot feed point {n}: the map holds {len(self.hom)} points")
        hom, covered, multi = self.hom, self.covered, self.multi
        for m in range(self.n + 1, n + 1):
            hx, hy, hw = hom[m - 1]
            common = self._common and self._common_point(hx, hy, hw)
            first: dict[int | None, int] = {}  # slope key: its least point
            groups: dict[int | None, list[int]] = {}  # slope key: 2+ points
            # each loop groups its keys as it makes them: one grouping pass
            # shared by both, over a list of keys, was slower
            if common:
                kept, cx, cy = common
                for r, rx, ry in zip(range(1, m), kept.xs, kept.ys):
                    dx = rx - cx
                    if dx:
                        slope = (ry - cy) // dx  # Y is shifted already
                    elif ry != cy:
                        slope = None  # the vertical line through m
                    else:
                        raise DuplicatePointError(f"points {r} and {m} coincide")
                    least = first.setdefault(slope, r)
                    if least != r:
                        groups.setdefault(slope, [least]).append(r)
                kept.xs.append(cx)
                kept.ys.append(cy)
            else:
                bits = _key_bits(self._max_x * hw + abs(hx) * self._max_w)  # D >= |dx|
                for r, (rx, ry, rw) in zip(range(1, m), hom):
                    dx = rx * hw - hx * rw
                    dy = ry * hw - hy * rw
                    if dx:
                        slope = (dy << bits) // dx
                    elif dy:
                        slope = None
                    else:
                        raise DuplicatePointError(f"points {r} and {m} coincide")
                    least = first.setdefault(slope, r)
                    if least != r:
                        groups.setdefault(slope, [least]).append(r)
                kept = None  # the common coordinates are dropped for good
            self._common = kept
            self.n = m
            self._max_x = max(self._max_x, abs(hx))
            self._max_w = max(self._max_w, hw)
            along_bits = _key_bits(self._max_w)
            self.through = []
            for slope, group in sorted(groups.items(), key=lambda item: item[1][0]):
                self.through.append(group)
                axis = 1 if slope is None else 0  # by y on a vertical line, else by x

                def along(r: int) -> int:  # order along the line
                    p = hom[r - 1]
                    return (p[axis] << along_bits) // p[2]

                key = (group[0], group[1])
                if len(group) == 2:
                    multi[key] = sorted([*group, m], key=along)
                    covered.add(key)
                else:
                    insort(multi[key], m, key=along)
                covered.update((r, m) for r in group)
        return self

    def blocked(self) -> dict[int, set[int]]:
        """Each point's blocked partners: the points two or more apart from
        it along a line of ``multi``, so with a point strictly between.
        Each blocked pair is listed under both its points, and a point in
        none has no entry.  A construction run of n points has n - 3."""
        partners: dict[int, set[int]] = {}
        for order in self.multi.values():
            for pos, u in enumerate(order):
                for v in order[pos + 2:]:
                    partners.setdefault(u, set()).add(v)
                    partners.setdefault(v, set()).add(u)
        return partners

    def _rows(self) -> Iterator[tuple[int, Sequence[int]]]:
        """Each i in ascending order with its visible partners above it,
        ascending: every j > i that is not a blocked partner of i.  An i
        with no such j is skipped.  Only the blocked partners and one row
        are held while it runs."""
        partners = self.blocked()
        n = self.n
        for i in range(1, n):
            skip = partners.get(i)
            row = range(i + 1, n + 1) if skip is None else [
                j for j in range(i + 1, n + 1) if j not in skip]
            if row:
                yield i, row

    def visible(self) -> Iterator[tuple[int, int]]:
        """Every visible pair (i < j) once, lazily, in ascending (i, j)
        order: each pair that is not covered, or is consecutive on its line,
        so not blocked.  The pairs are `_rows` flattened, so only the blocked
        partners and one row are held while it runs."""
        return ((i, j) for i, row in self._rows() for j in row)


class VisibilityGraph:
    """Visible index pairs of a point set, held only as ascending ``edges``:
    the builders' return type.  The analyzer reads the map's ``blocked()``
    and the renderer its ``visible()`` instead."""

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
            if not (1 <= i <= n and 1 <= j <= n and i != j):
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


def _largest_line(lines: LineIncidenceMap) -> tuple[int, list[int]]:
    # with no line of three points every pair is two-point, (1, 2) least
    witness = lines._least_line(max(map(len, lines.multi.values()), default=3)) or [1, 2]
    return len(witness), witness


def _largest_clique(
    n: int, partners: Mapping[int, set[int]], cap: int | None
) -> tuple[int, list[int]]:
    """Size and witness of `find_max_clique` on the graph over 1..n whose
    non-edges are the blocked pairs, given as ``partners``, each vertex's
    blocked partners (`LineIncidenceMap.blocked`), searching only the
    vertices with an entry.

    A vertex with no blocked partner is universal: it is in every maximal
    clique.  The whole-graph walk ranks the universal vertices first, with
    degree n - 1 and ties by id.  Each is the first pivot while it is in
    ``cand`` and is that pivot's only branch, so the walk takes all of them, U,
    in id order, before anything else; with ``cap`` at most |U| it stops
    at the first ``cap`` of them.  After them it walks the graph induced by
    the rest R, where every degree is |U| less, so the ranks, pivots,
    colour classes and prunes are those of the search on R alone.  So the
    witness is the universal vertices plus the witness on R, capped at
    ``cap`` - |U|, with the neighbour sets held for R only.
    """
    _require_cap(cap)
    universal = [v for v in range(1, n + 1) if v not in partners]
    if cap is not None and cap <= len(universal):
        return cap, universal[:cap]
    rest = set(partners)
    adjacency = {v: rest - near - {v} for v, near in partners.items()}
    found = find_max_clique(rest, adjacency, None if cap is None else cap - len(universal))
    witness = sorted(universal + found)
    return len(witness), witness


def build_visibility_graph(ps: PointSet) -> VisibilityGraph:
    """Visibility graph via the lines of ps."""
    lines = LineIncidenceMap.from_point_set(ps)
    return VisibilityGraph(lines.n, lines.visible())


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
    lines = LineIncidenceMap.from_point_set(ps)
    return _largest_clique(lines.n, lines.blocked(), cap)


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
    lines = LineIncidenceMap.from_point_set(ps)
    col_size, col_wit = _largest_line(lines) if ps.n >= 2 else (1, [1])
    cl_size, cl_wit = _largest_clique(lines.n, lines.blocked(), cap=k)

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


def _key_bits(bound: int) -> int:
    """Width of the floor keys of rationals whose reduced denominators are
    at most ``bound``: the key of v is floor(v·2^bits), with bits
    2·L + 1 for L = bound.bit_length(), so bound < 2^L.  Three readers
    key by it: the exclusion kernel its crossing parameters, `_order_keys`
    its sweep order, and `LineIncidenceMap` its slopes and positions
    along a line.  The map's bound is a bound on |dx|: over its common
    denominator L, twice the largest |X·L/W|, since dx is a difference
    of two such coordinates; once L is dropped, the largest |X|·W_n +
    |X_n|·W of its per-point products.

    Two distinct such rationals differ by at least 1/bound², more than
    2·2^-bits, so their floors differ; equal ones share a floor however
    they are written.  A rational whose reduced denominator is below 2^L
    still differs from each of them by more than 2^-2L, so it shares no
    floor with one it does not equal.  This is the gap between Farey
    neighbours (Hardy & Wright, ch. III).
    """
    return 2 * bound.bit_length() + 1


class ExclusionSet(Set):
    """Read-only set of the parameters t in (0, 1) that one insertion
    rules out, held as their `_key_bits` floor keys: ints floor(t·2^bits),
    where every member's reduced denominator is below 2^((bits − 1)//2).

    ``in`` takes a Fraction: one outside (0, 1), or whose reduced
    denominator reaches that power of two, is no member, and any other is
    a member exactly when its floor is a key.  Iteration yields each
    member as the one fraction with a denominator in reach that is
    nearest its floor's midpoint.  Through the `Set` mixins it compares
    equal to the ``set[Fraction]`` of the same parameters, in either
    operand order.
    """

    __slots__ = ("_keys", "_bits")

    def __init__(self, keys: set[int], bits: int) -> None:
        self._keys = keys
        self._bits = bits

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, t: object) -> bool:
        _require_fraction(t)
        num, den = t.numerator, t.denominator
        bits = self._bits
        # a denominator out of reach could share a member's floor
        return (
            0 < num < den
            and den.bit_length() <= (bits - 1) >> 1
            and (num << bits) // den in self._keys
        )

    def __iter__(self) -> Iterator[Fraction]:
        bits = self._bits
        reach = 1 << ((bits - 1) >> 1)
        for key in self._keys:
            # the member is within 2^-(bits + 1) of the midpoint, every
            # other fraction in reach more than three times as far
            yield Fraction(2 * key + 1, 2 << bits).limit_denominator(reach)

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
    the distinct crossing parameters, computed in integers from the
    coordinates for the crossing pairs alone, which the kernel finds by
    ordering the other points around each endpoint.  When the pair's own
    line carries no third point, placing a new point at any t outside
    this set creates exactly one collinear triple: {p_i, new, p_j}.
    """
    ps.point(i)
    ps.point(j)
    if i == j:
        raise InputError(f"need two distinct indices, got {i} twice")
    return _crossing_parameters(ps.homogeneous(), i, j)


def _crossing_parameters(hom: Sequence[tuple[int, int, int]], i: int, j: int) -> ExclusionSet:
    """The exclusion kernel: parameters t in (0, 1) where the line through
    two points of ``hom`` crosses the open segment (p_i, p_j).

    With A = p_i, B = p_j and u = B - A, each other point P off line AB
    gets two order keys, the negated cotangents -dot(u, d)/cross(u, d)
    of the lines AP and BP, with d = P - A or P - B flipped so that
    cross(u, d) > 0.  A projective map sending A and B to the axes'
    points at infinity makes these keys P's coordinates and the open
    segment the negative slopes, so the line through P_m and P_r crosses
    it exactly when their keys are strictly discordant (an equal key
    means a line through A or B).  The sweep takes the points by
    descending A-key, then B-key, and keeps those passed in B-key order:
    each point's partners are the prefix below its own B-key, and no
    other pair is visited.

    For a partner, with both points' directions flipped as above,
    ``fa = cross(dA_m, dA_r) > 0 > fb = cross(dB_m, dB_r)``, where dA_k
    is w_A·w_k times P_k - A and dB_k likewise for B, and the line
    crosses at t = fa·wb² / (fa·wb² - fb·wa²); each point's directions
    are scaled by wb² and wa² once, before it meets its partners.  The
    loop keys t, unreduced, by its `_key_bits` floor, whose width is
    fixed before the sweep: wa divides fa and wb divides fb, so wa·wb
    divides both terms of the fraction, and |fa| <= max |dA|², |fb| <=
    max |dB|², so (wb²·max |dA|² + wa²·max |dB|²) / (wa·wb) bounds every
    reduced denominator.  The pairs of a line with three points give the
    same key, kept once.  A point strictly inside the segment meets the
    line through it and any point off AB at its own t, whose unreduced
    denominator w·|u|² joins the bound.
    """
    xa, ya, wa = hom[i - 1]
    xb, yb, wb = hom[j - 1]
    ux, uy = xb * wa - xa * wb, yb * wa - ya * wb  # wa·wb·(B - A)
    wa2, wb2 = wa * wa, wb * wb
    a_keys: list[tuple[int, int]] = []
    b_keys: list[tuple[int, int]] = []
    rows: list[tuple[int, int, int, int]] = []
    on_segment: list[tuple[int, int]] = []  # t of the points strictly inside it
    reach_a = reach_b = 0  # the largest |dA|² and |dB|² of the rows
    for m, (x, y, w) in enumerate(hom, start=1):
        if m == i or m == j:
            continue
        ax, ay = x * wa - xa * w, y * wa - ya * w
        bx, by = x * wb - xb * w, y * wb - yb * w
        side = ux * ay - uy * ax
        if side == 0:  # on line AB, at t = wb·dot(u, dA) / (w·|u|²)
            num, den = wb * (ux * ax + uy * ay), w * (ux * ux + uy * uy)
            if 0 < num < den:
                on_segment.append((num, den))
            continue
        if side < 0:
            ax, ay, bx, by, side = -ax, -ay, -bx, -by, -side
        a_keys.append((-ux * ax - uy * ay, side))
        b_keys.append((-ux * bx - uy * by, ux * by - uy * bx))
        rows.append((ax, ay, bx, by))
        reach_a = max(reach_a, ax * ax + ay * ay)
        reach_b = max(reach_b, bx * bx + by * by)
    if not rows:
        return ExclusionSet(set(), _key_bits(0))
    bound = max([(wb2 * reach_a + wa2 * reach_b) // (wa * wb), *(den for _, den in on_segment)])
    bits = _key_bits(bound)
    keys = {(num << bits) // den for num, den in on_segment}
    add = keys.add
    # points of one line through A come by descending B-key, so none
    # falls in the prefix of the next
    order = sorted(zip(_order_keys(a_keys), _order_keys(b_keys), rows), reverse=True)
    del a_keys, b_keys, rows  # freed before the key set grows
    passed_b: list[int] = []  # B-keys of the points passed, ascending
    passed: list[tuple[int, int, int, int]] = []  # their directions
    for _, b_key, row in order:
        ax, ay, bx, by = row
        ax, ay, bx, by = ax * wb2, ay * wb2, bx * wa2, by * wa2
        pos = bisect_left(passed_b, b_key)
        for rax, ray, rbx, rby in passed[:pos]:
            num = ax * ray - ay * rax
            add((num << bits) // (num + by * rbx - bx * rby))
        passed_b.insert(pos, b_key)
        passed.insert(pos, row)
    return ExclusionSet(keys, bits)


def _order_keys(values: list[tuple[int, int]]) -> list[int]:
    """Exact order keys for the rationals num/den, den > 0: their
    `_key_bits` floors, with the width taken from the largest den.  Floor
    is monotone, and distinct values get distinct floors, so the keys
    keep the order exactly."""
    bits = _key_bits(max((den for _, den in values), default=0))
    return [(num << bits) // den for num, den in values]
