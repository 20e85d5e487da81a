"""Deterministic SVG rendering of point sets.

Coordinates stay exact until the final text emission, where each number
is written with 12 significant digits (banker's rounding), so the same
point set always produces byte-identical output.  The y axis is flipped
to the usual mathematical orientation.
"""

from __future__ import annotations

from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction

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


def _segments(ps: PointSet, edges: str) -> tuple[tuple[int, int], ...]:
    """Index pairs of the segments to draw."""
    if edges == "none" or ps.n < 2:
        return ()
    lines = LineIncidenceMap.from_point_set(ps)
    if edges == "visibility":
        return tuple(sorted(lines.visible()))
    # collinear: one segment per line carrying >= 3 points, across its
    # extremes, in line order
    along = sorted((lines.line(key), order) for key, order in lines.multi.items())
    return tuple((order[0], order[-1]) for _, order in along)


def render_svg(ps: PointSet, edges: str = "none") -> str:
    """Render points (with 1-based index labels) and optional edges."""
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

    out: list[str] = ['<?xml version="1.0" encoding="UTF-8"?>']
    view = (
        f"{_num(minx - pad)} {_num(-(maxy + pad))} "
        f"{_num(maxx - minx + 2 * pad)} {_num(maxy - miny + 2 * pad)}"
    )
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{view}">')
    xy = [(_num(p.x), _num(-p.y)) for p in ps.points]
    segs = _segments(ps, edges)
    if segs:
        out.append(
            f'  <g class="edges" stroke="#3366aa" stroke-width="{_num(stroke)}" '
            'fill="none">'
        )
        for i, j in segs:
            (x1, y1), (x2, y2) = xy[i - 1], xy[j - 1]
            out.append(f'    <line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}"/>')
        out.append("  </g>")
    out.append('  <g class="points" fill="#202020">')
    r = _num(radius)
    for cx, cy in xy:
        out.append(f'    <circle cx="{cx}" cy="{cy}" r="{r}"/>')
    out.append("  </g>")
    out.append(
        f'  <g class="labels" font-family="monospace" font-size="{_num(font)}" '
        'fill="#202020">'
    )
    offset = radius * 3 / 2
    for idx, p in enumerate(ps.points, start=1):
        out.append(
            f'    <text x="{_num(p.x + offset)}" y="{_num(-(p.y + offset))}">{idx}</text>'
        )
    out.append("  </g>")
    out.append("</svg>\n")
    return "\n".join(out)
