"""Exact planar primitives over arbitrary-precision rationals.

Coordinates are `fractions.Fraction` values, so every predicate here is
exact: collinearity and betweenness are decided by integer
arithmetic (on homogenised coordinates where speed matters), never by
floating point.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .errors import DegenerateSegmentError, InputError, ParameterRangeError
from .rational import format_rational


class Point(NamedTuple):
    """Planar point with exact rational coordinates."""

    x: Fraction
    y: Fraction

    def __str__(self) -> str:
        return f"({format_rational(Fraction(self.x))}, {format_rational(Fraction(self.y))})"


class Orientation(enum.IntEnum):
    """Sign of the signed area of an ordered point triple."""

    CLOCKWISE = -1
    COLLINEAR = 0
    COUNTERCLOCKWISE = 1


class CanonicalLine(NamedTuple):
    """Line ``a*x + b*y = c`` in the canonical integer form.

    Invariants: (a, b) != (0, 0), gcd(|a|, |b|, |c|) == 1, and the leading
    sign is fixed (a > 0, or a == 0 and b > 0) so equal lines compare equal.
    """

    a: int
    b: int
    c: int

    def contains(self, p: Point) -> bool:
        """Exact incidence test."""
        return self.a * p.x + self.b * p.y == self.c


def _homogeneous(p: Point) -> tuple[int, int, int]:
    """Integer triple (X, Y, W) with W > 0 and p == (X/W, Y/W)."""
    xn, xd = p.x.numerator, p.x.denominator
    yn, yd = p.y.numerator, p.y.denominator
    w = xd * yd // gcd(xd, yd)
    return xn * (w // xd), yn * (w // yd), w


def _line_from_hom(ha: tuple[int, int, int], hb: tuple[int, int, int]) -> CanonicalLine:
    """Canonical line through two distinct points given homogeneously."""
    xa, ya, wa = ha
    xb, yb, wb = hb
    a = ya * wb - yb * wa
    b = wa * xb - wb * xa
    c = ya * xb - xa * yb
    g = gcd(a, b, c)
    if a < 0 or (a == 0 and b < 0):
        g = -g
    return CanonicalLine(a // g, b // g, c // g)


def orientation(a: Point, b: Point, c: Point) -> Orientation:
    """Turn direction of the ordered triple (a, b, c)."""
    cross = (b.x - a.x) * (c.y - a.y) - (c.x - a.x) * (b.y - a.y)
    return Orientation((cross > 0) - (cross < 0))


def on_open_segment(p: Point, a: Point, b: Point) -> bool:
    """True iff p lies strictly between the distinct endpoints a and b."""
    if a == b:
        raise DegenerateSegmentError(f"segment endpoints coincide at {Point(*a)}")
    if orientation(a, b, p) is not Orientation.COLLINEAR:
        return False
    # Compare along the dominant axis; the other axis follows by collinearity.
    if abs(b.x - a.x) >= abs(b.y - a.y):
        lo, hi = (a.x, b.x) if a.x <= b.x else (b.x, a.x)
        return lo < p.x < hi
    lo, hi = (a.y, b.y) if a.y <= b.y else (b.y, a.y)
    return lo < p.y < hi


def line_through(a: Point, b: Point) -> CanonicalLine:
    """Canonical line through two distinct points."""
    if a == b:
        raise DegenerateSegmentError(f"no unique line through {Point(*a)} twice")
    return _line_from_hom(_homogeneous(a), _homogeneous(b))


def _require_fraction(t: object) -> None:
    """Refuse a parameter that is not a Fraction; a float or int would
    carry inexact or mistyped coordinates."""
    if not isinstance(t, Fraction):
        raise InputError(f"parameter must be a Fraction, got {t!r}")


def _check_parameter(t: Fraction) -> None:
    """Refuse a segment parameter that is not a Fraction strictly inside
    (0, 1)."""
    _require_fraction(t)
    if not 0 < t < 1:
        raise ParameterRangeError(f"parameter {t} is outside the open interval (0, 1)")


def segment_param_point(a: Point, b: Point, t: Fraction) -> Point:
    """Point a + t*(b - a) for a Fraction t strictly inside (0, 1)."""
    if a == b:
        raise DegenerateSegmentError(f"segment endpoints coincide at {Point(*a)}")
    _check_parameter(t)
    return Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
