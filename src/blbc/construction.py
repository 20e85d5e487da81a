"""Incremental construction of point sets with no 4 collinear points in
which every mutually-visible pair eventually gains a blocker.

Starting from a non-collinear seed triple, each step picks the pending
pair (i, j) whose spanning line carries no third point, minimising j and
then i, and inserts a new point strictly between p_i and p_j.  The
parameter t for the new point is the first value in Farey order (1/2,
1/3, 2/3, 1/4, 3/4, ...) that avoids every line spanned by the other
points, so the new point is collinear with exactly the pair it blocks.
The number of excluded parameters is at most C(n-3, 2) when inserting
point n, so a fresh parameter always exists.

Every choice above is affine-invariant, so a run from a seed keeps its
line structure in the seed's frame, where the seed is (0,0), (1,0),
(0,1): the exclusion kernel then multiplies the frame's small integers,
however many bits the seed's raw coordinates carry.
"""

from __future__ import annotations

import itertools
from collections.abc import Container, Set
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    ImpossibleStateError,
    InputError,
    PendingPairError,
    PlacementError,
    SeedError,
    _require_int,
)
from .geometry import (
    Orientation,
    Point,
    _check_parameter,
    _homogeneous,
    _require_fraction,
    orientation,
    segment_param_point,
)
from .visibility import (
    ExclusionSet,
    LineIncidenceMap,
    PointSet,
    TwoPointPairs,
    _at,
    _coerce_point,
    _crossing_parameters,
)


class OrdinaryPair(NamedTuple):
    """Index pair (i < j) whose spanning line carries no third point."""

    i: int
    j: int

    @property
    def key(self) -> tuple[int, int]:
        """Selection order key: minimise j first, then i."""
        return (self.j, self.i)


class SeedTriple(NamedTuple):
    """Three pairwise distinct, non-collinear starting points."""

    first: Point
    second: Point
    third: Point


DEFAULT_SEED = SeedTriple(
    Point(Fraction(0), Fraction(0)),
    Point(Fraction(1), Fraction(0)),
    Point(Fraction(0), Fraction(1)),
)


def _two_indices(pair: object, what: str, n: int | None = None) -> OrdinaryPair:
    """``pair`` as an `OrdinaryPair` of two int indices, else InputError;
    given n, also unless 1 <= i < j <= n."""
    try:
        i, j = pair
    except (TypeError, ValueError) as exc:
        raise InputError(f"{what} must be two indices, got {pair!r}") from exc
    for index in (i, j):
        _require_int(index, f"index of {what} {pair!r}")
    if n is not None and not 1 <= i < j <= n:
        raise InputError(f"{what} ({i}, {j}) outside 1 <= i < j <= {n}")
    return OrdinaryPair(i, j)


@dataclass(frozen=True)
class InsertionRecord:
    """One construction step: point ``n`` placed on pair ``pair`` at
    parameter ``chosen_t`` after ruling out ``excluded_count`` parameters.

    The one place a record's field types are decided, so no reader checks
    them again: int ``n`` and ``excluded_count``, two int indices for
    ``pair`` (kept as an `OrdinaryPair`), a Fraction ``chosen_t`` and an
    exact ``point`` (kept as `_coerce_point` returns it); else InputError.
    Values are the checks' business: a negative count or a t outside
    (0, 1) is still built, so that the verifier can report it.
    """

    n: int
    pair: OrdinaryPair
    excluded_count: int
    chosen_t: Fraction
    point: Point

    def __post_init__(self) -> None:
        _require_int(self.n, "record point number")
        object.__setattr__(self, "pair", _two_indices(self.pair, "record pair"))
        _require_int(self.excluded_count, "record excluded_count")
        _require_fraction(self.chosen_t)
        object.__setattr__(self, "point", _coerce_point(self.point, self.n))


class ConstructionState:
    """Mutable construction state.

    ``points`` holds the raw points, 1-indexed via :meth:`point`.
    ``lines`` is the incidence map over the same points in a frame: its
    ``hom`` holds their coordinates in the affine frame of the seed, in
    which the seed is (0,0), (1,0), (0,1), or the raw ones for a state
    adopted by `state_from_points`.  Collinearity and betweenness, and so
    every key, pair and index of the map and the neighbours along each
    line of its ``multi``, are the same in either frame; its lines, and
    the order of ``multi`` along them, are the frame's.  The map grows one
    point per insertion, and its cursor tracks the least pending pair;
    ``pending`` is its read-only ``two_point`` view, exactly the pairs
    whose line carries two points, while the map stores only the pairs
    ``covered`` by the lines of three; ``trace`` records every insertion
    so far.
    """

    __slots__ = ("points", "lines", "trace")

    def __init__(
        self, points: list[Point], lines: LineIncidenceMap, trace: list[InsertionRecord]
    ):
        self.points = points
        self.lines = lines
        self.trace = trace

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def pending(self) -> TwoPointPairs:
        """The pairs (i, j) whose line carries no third point: a live,
        read-only view of the map, which stores the covered pairs only."""
        return self.lines.two_point

    def point(self, i: int) -> Point:
        return _at(self.points, i)

    def point_set(self) -> PointSet:
        """Current points as an immutable set (validates distinctness)."""
        return PointSet(self.points)

    def __repr__(self) -> str:
        return f"ConstructionState(n={len(self.points)}, pending={len(self.pending)})"


def init_state(seed: Sequence[Sequence] = DEFAULT_SEED) -> ConstructionState:
    """Fresh state over a seed triple; its three pairs are all pending.

    ``points`` holds the seed as given; the map holds it in its own frame,
    as (0,0), (1,0), (0,1).
    """
    pts = [_coerce_point(raw, pos) for pos, raw in enumerate(seed, start=1)]
    if len(pts) != 3:
        raise SeedError(f"seed must contain exactly 3 points, got {len(pts)}")
    for a in range(3):
        for b in range(a + 1, 3):
            if pts[a] == pts[b]:
                raise SeedError(f"seed points {a + 1} and {b + 1} are both {pts[a]}")
    if orientation(*pts) is Orientation.COLLINEAR:
        raise SeedError(f"seed points are collinear: {pts[0]}, {pts[1]}, {pts[2]}")
    lines = LineIncidenceMap([(0, 0, 1), (1, 0, 1), (0, 1, 1)]).advance(3)
    return ConstructionState(pts, lines, [])


def state_from_points(points: Iterable[Sequence]) -> ConstructionState:
    """Adopt an existing configuration (distinct, no 4 collinear) so that
    insertion and analysis operate on it; its trace starts empty.  The
    map's frame is the raw coordinates themselves."""
    ps = PointSet(points)
    if ps.n < 3:
        raise InputError(f"a construction state needs >= 3 points, got {ps.n}")
    lines = LineIncidenceMap(list(ps.homogeneous())).advance(ps.n)
    crowded = lines._least_line(4)
    if crowded is not None:
        raise InputError(
            f"{len(crowded)} collinear points (indices {crowded}) on line "
            f"{tuple(lines.line((crowded[0], crowded[1])))}; at most 3 are allowed"
        )
    return ConstructionState(list(ps.points), lines, [])


def select_ordinary_pair(state: ConstructionState) -> OrdinaryPair:
    """The pending pair minimising j, then i.  Leaves the points, lines and
    pending set unchanged; only the map's cursor moves up to the pair."""
    if not state.pending:
        raise ImpossibleStateError("no pending pair to select")
    pair = state.lines.least()
    if pair is None:
        raise ImpossibleStateError("pending set and selection order disagree")
    return OrdinaryPair(*pair)


def _as_pending_pair(state: ConstructionState, pair: Sequence[int]) -> OrdinaryPair:
    pair = _two_indices(pair, "pair")
    if pair not in state.pending:
        raise PendingPairError(f"pair {tuple(pair)} is not pending")
    return pair


def excluded_parameters(state: ConstructionState, pair: Sequence[int]) -> ExclusionSet:
    """Parameters t in (0, 1) ruled out for inserting on ``pair``: values
    where the new point would land on a line spanned by other points.

    Same kernel as `blocking_parameters`, run in integers on the
    homogeneous coordinates of the map's frame, not on the raw points:
    crossing parameters are affine-invariant.  It reads none of the map's
    lines, and visits only the pairs of points whose line crosses the
    segment.  The result is an `ExclusionSet` of integer floor keys,
    with no gcd taken.
    """
    i, j = _as_pending_pair(state, pair)
    return _crossing_parameters(state.lines.hom, i, j)


def farey_order() -> Iterator[Fraction]:
    """Reduced fractions in (0, 1): 1/2, 1/3, 2/3, 1/4, 3/4, 1/5, 2/5, ..."""
    for q in itertools.count(2):
        for p in range(1, q):
            if gcd(p, q) == 1:
                yield Fraction(p, q)


def choose_parameter(excluded: Container[Fraction]) -> Fraction:
    """First parameter in Farey order not present in ``excluded``, found
    by membership probes alone."""
    for t in farey_order():
        if t not in excluded:
            return t
    raise ImpossibleStateError("unreachable: Farey order is infinite")


def insert_point(
    state: ConstructionState,
    pair: Sequence[int],
    t: Fraction,
    *,
    _excluded: Set[Fraction] | None = None,
) -> ConstructionState:
    """Insert a new point at parameter ``t`` on the pending ``pair``.

    The new point becomes collinear with exactly {p_i, p_j}; the pair
    leaves the pending set and every pair (m, new) for m outside the pair
    becomes pending.  Mutates and returns ``state``; the step's record is
    ``state.trace[-1]``.  ``_excluded`` lets a caller that already
    computed the exclusion set skip recomputing it.

    ``points`` gets the raw point p_i + t·(p_j − p_i), and the map's
    ``hom`` the point at the same t between the endpoints' frame points.
    """
    pair = _as_pending_pair(state, pair)
    i, j = pair
    _check_parameter(t)
    excluded = excluded_parameters(state, pair) if _excluded is None else _excluded
    if t in excluded:
        raise PlacementError(
            f"parameter {t} on pair {tuple(pair)} hits a line spanned by "
            "other points, which would create a second collinear triple"
        )

    n = len(state.points) + 1
    bound = comb(n - 3, 2)
    if len(excluded) > bound:
        raise ImpossibleStateError(
            f"{len(excluded)} excluded parameters exceed the bound {bound} "
            f"when inserting point {n}"
        )

    new_point = segment_param_point(state.point(i), state.point(j), t)
    state.points.append(new_point)
    hom = state.lines.hom
    a, b = (Point(Fraction(x, w), Fraction(y, w)) for x, y, w in (hom[i - 1], hom[j - 1]))
    hom.append(_homogeneous(segment_param_point(a, b, t)))
    through = state.lines.advance(n).through
    if through != [[i, j]]:
        raise ImpossibleStateError(
            f"new point {n} is collinear with the groups {through}, not just "
            f"{[i, j]}; parameter {t} should have been excluded"
        )

    record = InsertionRecord(
        n=n, pair=pair, excluded_count=len(excluded), chosen_t=t, point=new_point
    )
    state.trace.append(record)
    return state


def generate_states(
    seed: Sequence[Sequence] = DEFAULT_SEED, count: int = 3
) -> Iterator[ConstructionState]:
    """Yield the live state at every size from 3 (the seed) up to ``count``.

    The same state object is yielded each time and mutates as iteration
    advances; snapshot anything that must outlive the next step.
    """
    _require_int(count, "count")
    if count < 3:
        raise InputError(f"count must be >= 3, got {count}")
    state = init_state(seed)
    yield state
    while len(state.points) < count:
        pair = select_ordinary_pair(state)
        excluded = excluded_parameters(state, pair)
        t = choose_parameter(excluded)
        insert_point(state, pair, t, _excluded=excluded)
        yield state


def generate(
    seed: Sequence[Sequence] = DEFAULT_SEED, count: int = 3
) -> ConstructionState:
    """Run the construction from ``seed`` until ``count`` points exist."""
    state = None
    for state in generate_states(seed, count):
        pass
    assert state is not None
    return state
