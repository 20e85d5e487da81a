"""Deterministic SVG rendering of point sets.

Coordinates stay exact until the final text emission, where each number
is written with 12 significant digits (banker's rounding), so the same
point set always produces byte-identical output.  The y axis is flipped
to the usual mathematical orientation.  The document is made line by
line, the segments in ascending (i, j) order as the line map yields
them, so a caller that writes each line as it comes holds O(n) memory
however many segments there are; `render_svg` joins the same lines.
"""

from __future__ import annotations

from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from itertools import chain
from typing import Iterator

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


def _segments(ps: PointSet, edges: str) -> Iterator[tuple[int, int]]:
    """Index pairs of the segments to draw; the line map is built here,
    and the visible pairs are made as they are read."""
    if edges == "none" or ps.n < 2:
        return iter(())
    lines = LineIncidenceMap.from_point_set(ps)
    if edges == "visibility":
        return lines.visible()
    # collinear: one segment per line carrying >= 3 points, across its
    # extremes, in line order
    along = sorted((lines.line(key), order) for key, order in lines.multi.items())
    return iter([(order[0], order[-1]) for _, order in along])


def _document(ps: PointSet, edges: str) -> Iterator[str]:
    """The SVG text line by line, each line ending in a newline.  The input
    is checked, and the line map built, before the first line is made, so
    a caller that asks for one line before opening its output leaves that
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
    segs = _segments(ps, edges)

    yield '<?xml version="1.0" encoding="UTF-8"?>\n'
    view = (
        f"{_num(minx - pad)} {_num(-(maxy + pad))} "
        f"{_num(maxx - minx + 2 * pad)} {_num(maxy - miny + 2 * pad)}"
    )
    yield f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{view}">\n'
    xy = [(_num(p.x), _num(-p.y)) for p in ps.points]
    # the group is written only around at least one segment
    first = next(segs, None)
    if first is not None:
        yield (
            f'  <g class="edges" stroke="#3366aa" stroke-width="{_num(stroke)}" '
            'fill="none">\n'
        )
        for i, j in chain((first,), segs):
            (x1, y1), (x2, y2) = xy[i - 1], xy[j - 1]
            yield f'    <line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}"/>\n'
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
