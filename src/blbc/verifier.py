"""Re-verification of construction invariants from raw points and traces.

Every check here recomputes geometry from scratch (independent of the
bookkeeping the construction keeps) and returns a `VerificationReport`
with a machine-readable counterexample on failure:

- ``no4collinear``: no k points of the set share a line.
- ``uniquetriple``: each trace point is collinear with exactly its
  recorded pair, strictly between the two.
- ``visiblepairlemma``: a visible pair (i, k), i < k, whose line carries
  a third point has exactly one, of index below k, with k strictly
  between the two; so a three-point line passes exactly when its largest
  index lies between the other two, and else fails at the two smaller.
- ``trianglepending``: every triangle of the visibility graph keeps at
  least one edge in the pending set.
- ``exclusionbound``: each record's excluded count is within C(n-3, 2).
- ``ordinaryoracle``: a selector's pick equals the minimum (smallest j,
  then i) over pairs with no collinear third point.
- ``segmentparameter``: each record's point is p_i + t·(p_j − p_i) for
  its pair (i, j) and its parameter t, with 0 < t < 1.

`CHECKS` names them all and says which need a trace and which run by
default.  One engine computes every report: it is fed points one at a
time, and each insertion record after its point.  Every check but
``exclusionbound`` and ``segmentparameter``, which read each record with
at most its pair's points, reads the engine's own
`visibility.LineIncidenceMap`, built in order along each line from the
raw coordinates it was fed; the construction grows a separate instance
of the same structure, which the verifier never reads (it sees only a
state's points, trace and pending set).  Both maps store only the pairs
covered by lines of three or more points, and a pending set is a
read-only view of the other pairs, so comparing a state's pending set
with the engine's costs O(n) per prefix.  The engine keeps the
consecutive pairs along its lines as a graph, with a count of its
triangles, updated from the lines each point joins.
`verify_construction_run` reports after every point of a run; the
per-set functions and `verify_points` feed a whole set and report once.
Both select their checks through one `_selected`, so for any ``checks``
the sweep's reports on a prefix are those of `verify_points` on it.  The
independent references are brute force: `is_visible` and
`build_visibility_graph_naive` decide visibility pair by pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Callable, Container, Iterable, NamedTuple, Sequence

from .construction import ConstructionState, InsertionRecord, _two_indices
from .errors import ConsistencyError, InputError, _require_int
from .geometry import Point, _homogeneous, on_open_segment
from .rational import format_rational
from .visibility import LineIncidenceMap, PointSet, _coerce_point


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one check: pass/fail, counterexample, and work counts."""

    check: str
    passed: bool
    counterexample: dict | None
    stats: dict

    def to_json_dict(self) -> dict:
        doc: dict = {"check": self.check, "passed": self.passed}
        if self.counterexample is not None:
            doc["counterexample"] = self.counterexample
        doc["stats"] = self.stats
        return doc


# ---------------------------------------------------------------------------
# per-line and per-record judgements


def _lemma_verdict(order: Sequence[int]) -> tuple[int, int, str] | None:
    """The least failing pair (i, k), i < k, of one line of >= 3 points in
    ``order`` along it, with its reason; None when the line passes.

    Its visible pairs are its consecutive ones, and each (i, k) needs
    exactly one third point on the line, of index below k, with k between
    the two.  So on four or more points every pair fails.  A line a, m, b
    passes exactly when m is its largest index; when b is, (a, m) has its
    third point after both, (m, b) lacks only betweenness, and (a, m) is
    the smaller pair, so the line fails at its two smaller indices.
    """
    if len(order) > 3:
        i, k = min(sorted(pair) for pair in zip(order, order[1:]))
        return i, k, "four_collinear"
    if order[1] == max(order):
        return None
    i, k, _ = sorted(order)
    return i, k, "third_not_earlier"


class _Triangles:
    """A graph of distinct edges, added and removed one at a time, with
    ``count``, the number of triangles it holds.

    A triangle of the visibility graph violates the pending invariant
    exactly when all three of its edges lie outside the pending set, i.e.
    when it appears in the graph of those edges.  An edge (u, v) makes or
    breaks one triangle per common neighbour of u and v, so each change
    counts only those; `least` lists none but the one it returns.
    """

    def __init__(self, edges: Iterable[tuple[int, int]] = ()) -> None:
        self.adj: dict[int, set[int]] = {}
        self.edges = 0
        self.count = 0
        for u, v in edges:
            self.add(u, v)

    def add(self, u: int, v: int) -> None:
        near_u = self.adj.setdefault(u, set())
        near_v = self.adj.setdefault(v, set())
        self.count += len(near_u & near_v)
        near_u.add(v)
        near_v.add(u)
        self.edges += 1

    def remove(self, u: int, v: int) -> None:
        near_u, near_v = self.adj[u], self.adj[v]
        near_u.discard(v)
        near_v.discard(u)
        self.count -= len(near_u & near_v)
        self.edges -= 1

    def least(self) -> tuple[int, int, int] | None:
        """The least triangle as an ascending triple, or None.  The first
        edge (u, v) in ascending order with a common neighbour holds its
        two least vertices: a smaller vertex of any triangle is met first."""
        for u in sorted(self.adj):
            for v in sorted(self.adj[u]):
                common = self.adj[u] & self.adj[v]
                if common:
                    return u, v, min(common)
        return None


def _record_failure(engine: _Engine, rec: InsertionRecord) -> dict | None:
    """Counterexample unless point rec.n is collinear with exactly its
    recorded pair of earlier points, strictly between the two; else None.

    When the only earlier points on a line with rec.n are i and j, the map
    has just made their line, keyed (i, j), with its three points in order
    along it; rec.n is strictly between the two exactly when it is the
    middle one.  So a passing record costs no arithmetic beyond the map's,
    and the exact segment test runs only to write a counterexample."""
    lines = engine.advance(rec.n)
    through = lines.through
    i, j = rec.pair
    if through == [[i, j]] and lines.multi[(i, j)][1] == rec.n:
        return None
    points = engine.points
    between = on_open_segment(points[rec.n - 1], points[i - 1], points[j - 1])
    return {
        "n": rec.n,
        "expected_pair": [i, j],
        "collinear_pairs": sorted(list(p) for g in through for p in combinations(g, 2)),
        "on_segment": between,
    }


def _bound_failure(engine: _Engine, rec: InsertionRecord) -> dict | None:
    """Counterexample when the record's excluded count is outside
    0..C(n-3, 2), else None."""
    bound = comb(rec.n - 3, 2)
    if 0 <= rec.excluded_count <= bound:
        return None
    return {"n": rec.n, "excluded_count": rec.excluded_count, "bound": bound}


def _parameter_failure(engine: _Engine, rec: InsertionRecord) -> dict | None:
    """Counterexample unless 0 < t < 1 and the record's point is
    p_i + t·(p_j − p_i) for its pair (i, j), in exact arithmetic over the
    raw points; else None."""
    t, point = rec.chosen_t, rec.point
    i, j = rec.pair
    a, b = engine.points[i - 1], engine.points[j - 1]
    expected = Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
    if 0 < t < 1 and point == expected:
        return None
    return {
        "n": rec.n,
        "pair": [i, j],
        "t": format_rational(t),
        "point": {"x": format_rational(point.x), "y": format_rational(point.y)},
        "expected_point": {"x": format_rational(expected.x),
                           "y": format_rational(expected.y)},
    }


def _selection_failure(engine: _Engine, rec: InsertionRecord) -> dict | None:
    """Counterexample when the record's pair is not the least ordinary
    pair over the points placed before it, else None."""
    engine.advance(rec.n)
    failure = _selection_counterexample(rec.pair, engine.before)
    return failure and {**failure, "n": rec.n}


def _selection_counterexample(
    selected: tuple[int, int] | None, expected: tuple[int, int] | None
) -> dict | None:
    """None when ``selected`` is the least ordinary pair ``expected``."""
    if selected is not None and selected == expected:
        return None
    return {"selected": selected and list(selected), "expected": expected and list(expected)}


def _check_trace_against_points(ps: PointSet, trace: Sequence[InsertionRecord]) -> None:
    """Raise ConsistencyError unless trace and ps describe one run."""
    if ps.n != len(trace) + 3:
        raise ConsistencyError(
            f"{ps.n} points do not match {len(trace)} insertion records "
            f"(expected {ps.n - 3 if ps.n >= 3 else 0})"
        )
    for n, rec in enumerate(trace, start=4):
        _check_record(rec, n, ps.point(n))


def _check_record(rec: InsertionRecord, n: int, point: Point) -> None:
    """Raise ConsistencyError unless rec places ``point`` as point n on a
    pair of earlier points."""
    if rec.n != n:
        raise ConsistencyError(f"record {n - 4} inserts point {rec.n}, expected {n}")
    i, j = rec.pair
    if not (1 <= i < j < rec.n):
        raise ConsistencyError(f"record for point {rec.n} names invalid pair ({i}, {j})")
    if rec.point != point:
        raise ConsistencyError(
            f"record for point {rec.n} carries {rec.point}, but the set has {point}"
        )


# ---------------------------------------------------------------------------
# the check engine


class _Engine:
    """Fed points one at a time, and each insertion record after its point.

    Every check reads one `LineIncidenceMap` over the raw coordinates fed,
    never the construction's bookkeeping; `advance` feeds it, notes the
    lines each point joins and sets ``before``, the least two-point pair
    before the last point fed, the pair the construction must have
    selected.  A point check first feeds every point, then
    refreshes the lemma verdicts and the consecutive pairs, in
    ``consecutive``, of the lines joined since the last report.  Records
    are judged on arrival by the selected trace checks; those that ask
    which pairs are collinear advance the map to the record.
    ``pending=None`` stands for the pending set of a valid run: exactly
    the pairs whose line carries no third point.
    """

    def __init__(
        self,
        checks: Sequence[str],
        k: int = 4,
        pending: Container[tuple[int, int]] | None = None,
    ) -> None:
        _require_int(k, "collinearity threshold")
        if k < 3:
            raise InputError(f"collinearity threshold must be >= 3, got {k}")
        self.checks = checks
        self.k = k
        self.pending = pending
        self.points: list[Point] = []
        self.hom: list[tuple[int, int, int]] = []
        self.lines = LineIncidenceMap(self.hom)
        self.before: tuple[int, int] | None = None
        self._joined: set[tuple[int, int]] = set()  # keys of lines joined since grown
        self._grown = 0  # points fed when grown last ran
        self.records = 0
        self.failures: dict[str, dict] = {}  # first failure per trace check
        # the verdict of each failing line, by the key of lines.multi; lines
        # only grow, and a failing line never passes again
        self._lemma: dict[tuple[int, int], tuple[int, int, str]] = {}
        # the visible pairs along the lines of >= 3 points
        self.consecutive = _Triangles()

    def feed_point(self, p: Point) -> None:
        self.points.append(p)
        self.hom.append(_homogeneous(p))

    def feed_record(self, rec: InsertionRecord) -> None:
        self.records += 1
        for name in self.checks:
            judge = CHECKS[name].judge
            if judge is not None and name not in self.failures:
                failure = judge(self, rec)
                if failure is not None:
                    self.failures[name] = failure

    def report(self, name: str) -> VerificationReport:
        return CHECKS[name].report(self)

    def advance(self, n: int) -> LineIncidenceMap:
        """The map fed up to point n, noting ``before`` and the lines each
        point joins."""
        lines = self.lines
        for m in range(lines.n + 1, n + 1):
            self.before = lines.least()
            self._joined.update((g[0], g[1]) for g in lines.advance(m).through)
        return lines

    def grown(self) -> LineIncidenceMap:
        """The map over every point fed, lemma verdicts and
        ``consecutive`` refreshed."""
        lines, edges = self.advance(len(self.hom)), self.consecutive
        for key in self._joined:
            order = lines.multi[key]
            # the line as the last refresh saw it, if it had three points
            old = [m for m in order if m <= self._grown]
            if len(old) > 2:
                for u, v in zip(old, old[1:]):
                    edges.remove(u, v)
            for u, v in zip(order, order[1:]):
                edges.add(u, v)
            verdict = _lemma_verdict(order)
            if verdict is not None:
                self._lemma[key] = verdict
        self._joined.clear()
        self._grown = lines.n
        return lines

    def _no_k_collinear(self) -> VerificationReport:
        lines = self.grown()
        n = len(self.points)
        worst = lines._least_line(self.k)
        max_size = max(map(len, lines.multi.values()), default=min(n, 2))
        return VerificationReport(
            f"no{self.k}collinear",
            worst is None,
            worst and {"indices": worst, "line": lines.line((worst[0], worst[1]))._asdict()},
            {"points": n, "lines": len(lines), "max_collinear": max_size},
        )

    def _visible_pair_lemma(self) -> VerificationReport:
        lines = self.grown()
        # each pair lies on one line, so the least verdict is the least failure
        key = min(self._lemma, key=self._lemma.__getitem__, default=None)
        stats = {"points": len(self.points), "qualifying_pairs": self.consecutive.edges}
        if key is None:
            return VerificationReport("visiblepairlemma", True, None, stats)
        i, k, reason = self._lemma[key]
        failure = {"pair": [i, k], "line_points": sorted(lines.multi[key]), "reason": reason}
        return VerificationReport("visiblepairlemma", False, failure, stats)

    def _triangle_pending(self) -> VerificationReport:
        # a two-point pair is pending in a valid run, so by default the
        # candidates are the visible pairs along the longer lines alone
        lines = self.grown()
        if self.pending is None:
            candidates = self.consecutive
        else:
            candidates = _Triangles(e for e in lines.visible() if e not in self.pending)
        violations = candidates.count
        return VerificationReport(
            "trianglepending",
            not violations,
            {"triangle": list(candidates.least())} if violations else None,
            {
                "points": len(self.points),
                "visible_edges": len(lines.two_point) + self.consecutive.edges,
                "candidate_edges": candidates.edges,
                "violations": violations,
            },
        )

    def _trace_report(self, name: str, stats: dict) -> VerificationReport:
        failure = self.failures.get(name)
        return VerificationReport(name, failure is None, failure, stats)

    def _unique_triple(self) -> VerificationReport:
        stats = {"records": self.records, "points": len(self.points)}
        return self._trace_report("uniquetriple", stats)

    def _exclusion_bound(self) -> VerificationReport:
        return self._trace_report("exclusionbound", {"records": self.records})

    def _ordinary_oracle(self) -> VerificationReport:
        stats = {"steps": self.records, "points": len(self.points)}
        return self._trace_report("ordinaryoracle", stats)

    def _segment_parameter(self) -> VerificationReport:
        return self._trace_report("segmentparameter", {"records": self.records})


class _Check(NamedTuple):
    """How the engine reports a check, how it judges one insertion record
    (set exactly for the checks that need a trace), and whether the check
    runs by default."""

    report: Callable[[_Engine], VerificationReport]
    judge: Callable[[_Engine, InsertionRecord], dict | None] | None
    default: bool

    @property
    def needs_trace(self) -> bool:
        return self.judge is not None


# Every check, in report order.  ordinaryoracle and segmentparameter are
# opt-in only so that the default reports, and their bytes, stay put.
CHECKS: dict[str, _Check] = {
    "no4collinear": _Check(_Engine._no_k_collinear, None, default=True),
    "uniquetriple": _Check(_Engine._unique_triple, _record_failure, default=True),
    "visiblepairlemma": _Check(_Engine._visible_pair_lemma, None, default=True),
    "trianglepending": _Check(_Engine._triangle_pending, None, default=True),
    "exclusionbound": _Check(_Engine._exclusion_bound, _bound_failure, default=True),
    "ordinaryoracle": _Check(_Engine._ordinary_oracle, _selection_failure, default=False),
    "segmentparameter": _Check(_Engine._segment_parameter, _parameter_failure, default=False),
}


def _selected(checks: Iterable[str] | None, traced: bool) -> list[str]:
    """The named checks once each, in `CHECKS` order, or by default every
    default check the inputs allow; without a trace, a named check that
    needs one is refused."""
    if checks is None:
        return [name for name, check in CHECKS.items()
                if check.default and (traced or not check.needs_trace)]
    names = list(checks)
    for name in names:
        if name not in CHECKS:
            raise InputError(f"unknown check {name!r}; known: {', '.join(CHECKS)}")
    missing = sorted({name for name in names if CHECKS[name].needs_trace})
    if missing and not traced:
        raise InputError(f"check(s) {', '.join(missing)} need --trace")
    return [name for name in CHECKS if name in names]


def _run(
    checks: Sequence[str],
    points: Iterable[Point] = (),
    trace: Iterable[InsertionRecord] = (),
    k: int = 4,
    pending: Container[tuple[int, int]] | None = None,
) -> list[VerificationReport]:
    """Feed a whole set, then its records, to one engine; one report per
    check."""
    engine = _Engine(checks, k, pending)
    for p in points:
        engine.feed_point(p)
    for rec in trace:
        engine.feed_record(rec)
    return [engine.report(name) for name in checks]


# ---------------------------------------------------------------------------
# checks on one point set


def verify_points(
    ps: PointSet,
    trace: Sequence[InsertionRecord] | None = None,
    checks: Iterable[str] | None = None,
) -> list[VerificationReport]:
    """Run the named checks, in `CHECKS` order, on one point set and its
    optional trace.

    By default every default check the inputs allow runs.  A given trace
    must describe the run that built ps, whichever checks are named;
    otherwise ConsistencyError.
    """
    selected = _selected(checks, trace is not None)
    if trace is not None:
        _check_trace_against_points(ps, trace)
    return _run(selected, ps.points, trace or ())


def verify_no_k_collinear(ps: PointSet, k: int = 4) -> VerificationReport:
    """No k points of ps on one line; vacuously true below k points."""
    return _run(["no4collinear"], ps.points, k=k)[0]


def verify_unique_triple_at_insertion(
    trace: Sequence[InsertionRecord], ps: PointSet
) -> VerificationReport:
    """Each inserted point is collinear with exactly its recorded pair and
    lies strictly between the two."""
    _check_trace_against_points(ps, trace)
    return _run(["uniquetriple"], ps.points, trace)[0]


def verify_visible_pair_lemma(ps: PointSet) -> VerificationReport:
    """Visible pairs on lines with a third point satisfy the blocker shape:
    one extra point, of smaller index than the pair's larger index k, with
    point k strictly between the pair's other point and that extra point."""
    return _run(["visiblepairlemma"], ps.points)[0]


def verify_triangle_pending(
    ps: PointSet, pending: Iterable[Sequence[int]]
) -> VerificationReport:
    """Every triangle of the visibility graph keeps at least one edge in
    ``pending``; equivalently, the subgraph of visible non-pending edges
    is triangle-free."""
    pending_set = {_two_indices(raw, "pending pair", ps.n) for raw in pending}
    return _run(["trianglepending"], ps.points, pending=pending_set)[0]


def verify_exclusion_bound(trace: Sequence[InsertionRecord]) -> VerificationReport:
    """Each record's excluded_count lies within 0..C(n-3, 2)."""
    return _run(["exclusionbound"], trace=trace)[0]


def verify_ordinary_oracle(
    ps: PointSet, selected: Sequence[int] | None
) -> VerificationReport:
    """``selected`` equals the minimum (smallest j, then i) over pairs with
    no collinear third point; fails when no such pair exists."""
    if ps.n < 2:
        raise InputError(f"ordinary-pair check needs >= 2 points, got {ps.n}")
    sel = None if selected is None else _two_indices(selected, "selected pair", ps.n)
    lines = LineIncidenceMap.from_point_set(ps)
    counterexample = _selection_counterexample(sel, lines.least())
    stats = {"points": ps.n, "ordinary_pairs": len(lines.two_point)}
    return VerificationReport("ordinaryoracle", counterexample is None, counterexample, stats)


def verify_trace_selections(
    ps: PointSet, trace: Sequence[InsertionRecord]
) -> VerificationReport:
    """Every recorded pair equals the ordinary-pair minimum for its prefix.
    One aggregated report over the whole trace."""
    _check_trace_against_points(ps, trace)
    return _run(["ordinaryoracle"], ps.points, trace)[0]


# ---------------------------------------------------------------------------
# every prefix of a construction run


def verify_construction_run(
    states: Iterable[ConstructionState],
    checks: Iterable[str] | None = None,
) -> tuple[list[tuple[int, list[VerificationReport]]], ConstructionState]:
    """Run on every yielded state of a construction run the checks that
    `verify_points` runs given a trace: the named ones, once each in
    `CHECKS` order, by default every default check.

    ``states`` is consumed once (pass ``generate_states(...)`` directly).
    Returns the per-prefix reports plus the final state.  Each prefix's
    reports are those of `verify_points` on its points and trace.  Raises
    ConsistencyError if the yielded states do not grow one point at a time
    from a seed triple, or if a state's pending set diverges from the
    two-point lines of its own points.
    """
    selected = _selected(checks, traced=True)
    engine = _Engine(selected)
    results: list[tuple[int, list[VerificationReport]]] = []
    state: ConstructionState | None = None

    for state in states:
        n = len(state.points)
        if n != len(results) + 3:
            raise ConsistencyError(
                f"states must grow one point at a time from 3; got {n}, "
                f"expected {len(results) + 3}"
            )
        if len(state.trace) != n - 3:
            raise ConsistencyError(
                f"state with {n} points carries {len(state.trace)} records"
            )
        for pos in range(len(engine.points) + 1, n + 1):
            engine.feed_point(_coerce_point(state.points[pos - 1], pos))
        if n > 3:
            _check_record(state.trace[-1], n, engine.points[-1])
            engine.feed_record(state.trace[-1])

        # After this check the engine's default pending set is the state's.
        two_point = engine.grown().two_point
        if state.pending != two_point:
            extra = sorted(tuple(p) for p in state.pending - two_point)
            missing = sorted(two_point - state.pending)
            raise ConsistencyError(
                f"pending set diverges from two-point lines at {n} points: "
                f"extra {extra[:5]}, missing {missing[:5]}"
            )
        results.append((n, [engine.report(name) for name in selected]))

    if state is None:
        raise InputError("no states to verify")
    return results, state
