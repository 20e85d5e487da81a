"""Deterministic SVG rendering of point sets.

Coordinates stay exact until the final text emission, where each number
is written with 12 significant digits (banker's rounding), so the same
point set always produces byte-identical output.  The y axis is flipped
to the usual mathematical orientation.  The document is made a piece
at a time, each piece whole lines: the segments come a row at a time,
point i with its partners j above it in ascending order as the line map
yields them, written as the head text of i joined with the tail text of
each j, both made once per point.  So a caller that writes each piece
as it comes holds O(n) memory however many segments there are;
`render_svg` joins the same pieces.
"""

from __future__ import annotations

from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from itertools import chain
from typing import Iterator, Sequence

from .errors import InputError
from .visibility import LineIncidenceMap, PointSet

EDGE_MODES = ("visibility", "collinear", "none")

_CONTEXT = Context(prec=12, rounding=ROUND_HALF_EVEN)


def _num(value: Fraction) -> str:
    """12-significant-digit decimal text, deterministic across platforms."""
    d = _CONTEXT.divide(Decimal(value.numerator), Decimal(value.denominator))
    text = format(d, "f")
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return text if text != "-0" else "0"


def _rows(ps: PointSet, edges: str) -> Iterator[tuple[int, Sequence[int]]]:
    """The segments to draw, as rows: a point index with the indices it is
    joined to.  The line map is built here, and the visible pairs are made
    a row at a time as they are read."""
    if edges == "none" or ps.n < 2:
        return iter(())
    lines = LineIncidenceMap.from_point_set(ps)
    if edges == "visibility":
        return lines._rows()
    # collinear: one segment per line carrying >= 3 points, across its
    # extremes, in line order
    along = sorted((lines.line(key), order) for key, order in lines.multi.items())
    return iter([(order[0], (order[-1],)) for _, order in along])


def _document(ps: PointSet, edges: str) -> Iterator[str]:
    """The SVG text in pieces of whole lines, each ending in a newline: a
    row of segments is one piece, every other line is one.  The input is
    checked, and the line map built, before the first piece is made, so a
    caller that asks for one piece before opening its output leaves that
    output untouched on bad input."""
    if edges not in EDGE_MODES:
        raise InputError(f"edge mode {edges!r} not one of {EDGE_MODES}")
    if ps.n < 1:
        raise InputError("nothing to render: the point set is empty")
    xs = [p.x for p in ps.points]
    ys = [p.y for p in ps.points]
    minx, maxx = min(xs), max(xs)
    miny, maxy = min(ys), max(ys)
    span = max(maxx - minx, maxy - miny)
    if span == 0:
        span = Fraction(2)
    pad = span / 20  # 5% margin around the exact bounding box
    radius = span / 100
    stroke = radius / 2
    font = radius * 4
    rows = _rows(ps, edges)

    yield '<?xml version="1.0" encoding="UTF-8"?>\n'
    view = (
        f"{_num(minx - pad)} {_num(-(maxy + pad))} "
        f"{_num(maxx - minx + 2 * pad)} {_num(maxy - miny + 2 * pad)}"
    )
    yield f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{view}">\n'
    xy = [(_num(p.x), _num(-p.y)) for p in ps.points]
    # the group is written only around at least one segment
    first = next(rows, None)
    if first is not None:
        yield (
            f'  <g class="edges" stroke="#3366aa" stroke-width="{_num(stroke)}" '
            'fill="none">\n'
        )
        # each <line> is its first point's head and its second point's
        # tail, both made once per point; tails[j] is point j's
        tails = ["", *(f'x2="{x}" y2="{y}"/>\n' for x, y in xy)]
        for i, row in chain((first,), rows):
            x1, y1 = xy[i - 1]
            head = f'    <line x1="{x1}" y1="{y1}" '
            yield head + head.join(map(tails.__getitem__, row))
        yield "  </g>\n"
    yield '  <g class="points" fill="#202020">\n'
    r = _num(radius)
    for cx, cy in xy:
        yield f'    <circle cx="{cx}" cy="{cy}" r="{r}"/>\n'
    yield "  </g>\n"
    yield (
        f'  <g class="labels" font-family="monospace" font-size="{_num(font)}" '
        'fill="#202020">\n'
    )
    offset = radius * 3 / 2
    for idx, p in enumerate(ps.points, start=1):
        yield f'    <text x="{_num(p.x + offset)}" y="{_num(-(p.y + offset))}">{idx}</text>\n'
    yield "  </g>\n"
    yield "</svg>\n"


def render_svg(ps: PointSet, edges: str = "none") -> str:
    """Render points (with 1-based index labels) and optional edges."""
    return "".join(_document(ps, edges))
