"""Strict text form for exact rational values.

The wire form is ``p`` or ``p/q`` with ``q > 0`` and ``gcd(|p|, q) = 1``.
Anything else (zero or signed denominators, unreduced fractions, leading
zeros, signed zero, whitespace, floats) is rejected, never normalised.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import RationalFormatError

# Exact rational scalar used for all coordinates and parameters.
Rational = Fraction

_PATTERN = re.compile(r"(-?(?:0|[1-9][0-9]*))(?:/([1-9][0-9]*))?\Z")


def parse_rational(text: str) -> Fraction:
    """Parse ``p`` or ``p/q`` in lowest terms into a Fraction.

    Raises RationalFormatError for any string outside the strict form.
    """
    match = _PATTERN.match(text)
    if match is None:
        raise RationalFormatError(
            f"{text!r} is not a rational in 'p' or 'p/q' form"
        )
    if match.group(1) == "-0":
        raise RationalFormatError(f"{text!r} writes zero with a sign")
    try:
        num = int(match.group(1))
        den = int(match.group(2)) if match.group(2) else 1
    except ValueError as exc:  # over the interpreter's integer digit limit
        raise RationalFormatError(f"rational of {len(text)} characters: {exc}") from None
    value = Fraction(num, den)
    if value.numerator != num or value.denominator != den:
        raise RationalFormatError(f"{text!r} is not in lowest terms")
    return value


def format_rational(value: Fraction) -> str:
    """Canonical text: ``p`` for integers, ``p/q`` otherwise."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
