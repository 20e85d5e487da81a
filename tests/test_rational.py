from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from blbc.errors import RationalFormatError
from blbc.rational import format_rational, parse_rational


@pytest.mark.parametrize(
    "text, value",
    [
        ("0", Fraction(0)),
        ("1", Fraction(1)),
        ("-1", Fraction(-1)),
        ("42", Fraction(42)),
        ("-17", Fraction(-17)),
        ("1/2", Fraction(1, 2)),
        ("-3/7", Fraction(-3, 7)),
        ("22/7", Fraction(22, 7)),
        ("123456789123456789/2", Fraction(123456789123456789, 2)),
    ],
)
def test_parse_valid(text, value):
    assert parse_rational(text) == value


def test_parse_integer_with_unit_denominator():
    # "3/1" is in lowest terms with a redundant denominator; it is accepted
    # and normalizes away on output.
    assert parse_rational("3/1") == Fraction(3)
    assert format_rational(parse_rational("3/1")) == "3"


@pytest.mark.parametrize(
    "text",
    [
        "",
        " ",
        "1 ",
        " 1",
        "+3",
        "-0",
        "-0/5",
        "01",
        "007",
        "1/01",
        "2/4",
        "6/3",
        "-2/4",
        "1/0",
        "5/-3",
        "1/-3",
        "--1",
        "1.5",
        "1e3",
        "0x10",
        "/2",
        "2/",
        "1//2",
        "1/2/3",
        "nan",
        "inf",
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(RationalFormatError):
        parse_rational(text)


@pytest.mark.parametrize("text", ["1" + "0" * 5000, "1/3" + "0" * 5000])
def test_parse_rejects_integers_over_the_digit_limit(text):
    # int() refuses them; raising its limit would not help, as a value
    # that large could not be formatted back either
    with pytest.raises(RationalFormatError, match=f"rational of {len(text)} characters"):
        parse_rational(text)


@pytest.mark.parametrize(
    "value, text",
    [
        (Fraction(0), "0"),
        (Fraction(5), "5"),
        (Fraction(-5), "-5"),
        (Fraction(1, 2), "1/2"),
        (Fraction(-1, 2), "-1/2"),
        (Fraction(10, 4), "5/2"),
    ],
)
def test_format(value, text):
    assert format_rational(value) == text


def test_format_accepts_int():
    assert format_rational(7) == "7"


@given(st.fractions())
def test_round_trip(value):
    assert parse_rational(format_rational(value)) == value


@given(st.fractions())
def test_formatted_text_reparses_to_same_text(value):
    text = format_rational(value)
    assert format_rational(parse_rational(text)) == text
