from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from blbc.errors import DegenerateSegmentError, InputError, ParameterRangeError
from blbc.geometry import (
    CanonicalLine,
    Orientation,
    Point,
    line_through,
    on_open_segment,
    orientation,
    segment_param_point,
)

coords = st.fractions(min_value=-10, max_value=10, max_denominator=12)
points = st.builds(Point, coords, coords)


def P(x, y):
    return Point(Fraction(x), Fraction(y))


# orientation


def test_orientation_examples():
    assert orientation(P(0, 0), P(1, 0), P(0, 1)) is Orientation.COUNTERCLOCKWISE
    assert orientation(P(0, 0), P(0, 1), P(1, 0)) is Orientation.CLOCKWISE
    assert orientation(P(0, 0), P(1, 1), P(2, 2)) is Orientation.COLLINEAR


def test_orientation_with_repeated_points():
    assert orientation(P(0, 0), P(0, 0), P(1, 1)) is Orientation.COLLINEAR
    assert orientation(P(3, 4), P(3, 4), P(3, 4)) is Orientation.COLLINEAR


def test_orientation_fractional():
    got = orientation(P("1/3", 0), P("2/3", "1/7"), P(1, "2/7"))
    assert got is Orientation.COLLINEAR


@given(points, points, points)
def test_orientation_swap_negates(a, b, c):
    assert int(orientation(a, b, c)) == -int(orientation(b, a, c))


@given(points, points, points)
def test_orientation_cyclic(a, b, c):
    assert orientation(a, b, c) is orientation(b, c, a)


@given(points, points, points, coords, coords)
def test_orientation_translation_invariant(a, b, c, dx, dy):
    def shift(p):
        return Point(p.x + dx, p.y + dy)

    assert orientation(a, b, c) is orientation(shift(a), shift(b), shift(c))


# on_open_segment


def test_on_open_segment_examples():
    assert on_open_segment(P(1, 1), P(0, 0), P(2, 2))
    assert not on_open_segment(P(0, 0), P(0, 0), P(2, 2))
    assert not on_open_segment(P(2, 2), P(0, 0), P(2, 2))
    assert not on_open_segment(P(3, 3), P(0, 0), P(2, 2))
    assert not on_open_segment(P(1, 0), P(0, 0), P(2, 2))


def test_on_open_segment_vertical():
    # Vertical segments exercise the y-based betweenness branch.
    assert on_open_segment(P(0, "1/2"), P(0, 0), P(0, 1))
    assert not on_open_segment(P(0, 2), P(0, 0), P(0, 1))


def test_on_open_segment_degenerate():
    with pytest.raises(DegenerateSegmentError):
        on_open_segment(P(1, 1), P(2, 2), P(2, 2))


@given(points, points, points)
def test_on_open_segment_implies_collinear(p, a, b):
    if a == b:
        return
    if on_open_segment(p, a, b):
        assert orientation(p, a, b) is Orientation.COLLINEAR
        assert p != a and p != b


@given(points, points)
def test_on_open_segment_symmetric_in_endpoints(a, b):
    if a == b:
        return
    mid = Point((a.x + b.x) / 2, (a.y + b.y) / 2)
    assert on_open_segment(mid, a, b)
    assert on_open_segment(mid, b, a)


# line_through and CanonicalLine


def test_line_through_examples():
    assert line_through(P(0, 0), P(1, 0)) == CanonicalLine(0, 1, 0)
    assert line_through(P(0, 0), P(0, 1)) == CanonicalLine(1, 0, 0)
    assert line_through(P(0, 1), P(1, 0)) == CanonicalLine(1, 1, 1)


def test_line_through_degenerate():
    with pytest.raises(DegenerateSegmentError):
        line_through(P(1, 2), P(1, 2))


def test_contains():
    line = line_through(P(0, 1), P(1, 0))
    assert line.contains(P("1/2", "1/2"))
    assert line.contains(P(2, -1))
    assert not line.contains(P(0, 0))


@given(points, points)
def test_line_through_contains_endpoints(a, b):
    if a == b:
        return
    line = line_through(a, b)
    assert line.contains(a)
    assert line.contains(b)


@given(points, points)
def test_line_through_order_independent(a, b):
    if a == b:
        return
    assert line_through(a, b) == line_through(b, a)


@given(points, points)
def test_line_through_canonical_form(a, b):
    if a == b:
        return
    line = line_through(a, b)
    assert all(isinstance(v, int) for v in line)
    assert gcd(gcd(line.a, line.b), line.c) == 1
    assert line.a > 0 or (line.a == 0 and line.b > 0)


@given(points, points, points)
def test_collinear_third_point_on_line(a, b, c):
    if a == b:
        return
    assert line_through(a, b).contains(c) == (
        orientation(a, b, c) is Orientation.COLLINEAR
    )


# segment_param_point


def test_segment_param_point_examples():
    assert segment_param_point(P(0, 0), P(2, 0), Fraction(1, 2)) == P(1, 0)
    assert segment_param_point(P(0, 0), P(1, 1), Fraction(1, 3)) == P("1/3", "1/3")


@pytest.mark.parametrize("t", [Fraction(0), Fraction(1), Fraction(2), Fraction(-1, 2)])
def test_segment_param_point_range(t):
    with pytest.raises(ParameterRangeError):
        segment_param_point(P(0, 0), P(1, 0), t)


@pytest.mark.parametrize("t", [0.5, 1, True, Decimal("0.5")],
                         ids=["float", "int", "bool", "decimal"])
def test_segment_param_point_refuses_a_non_fraction(t):
    # a float would give float coordinates; an int or bool is no exact parameter
    with pytest.raises(InputError, match="parameter must be a Fraction"):
        segment_param_point(P(0, 0), P(1, 0), t)


def test_segment_param_point_degenerate():
    with pytest.raises(DegenerateSegmentError):
        segment_param_point(P(1, 1), P(1, 1), Fraction(1, 2))


@given(points, points, st.fractions(min_value="1/100", max_value="99/100", max_denominator=100))
def test_segment_param_point_lies_strictly_inside(a, b, t):
    if a == b or t == 0 or t == 1:
        return
    p = segment_param_point(a, b, t)
    assert on_open_segment(p, a, b)


@given(points, points)
def test_segment_param_point_midpoint(a, b):
    if a == b:
        return
    p = segment_param_point(a, b, Fraction(1, 2))
    assert p == Point((a.x + b.x) / 2, (a.y + b.y) / 2)
