"""Exact rational parsing and formatting.

All numeric quantities in this library are `fractions.Fraction` values;
nothing is ever rounded.  Game files carry rationals as strings like
``"3/19"`` (or ``"2"`` for integers), and JSON integers are accepted as
exact values.  Floats are rejected: they cannot represent the tie cases
that equilibrium conditions hinge on.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ContestError

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


class RationalParseError(ContestError, ValueError):
    """Raised when a value cannot be read as an exact rational."""


def parse_rational(value: object) -> Fraction:
    """Read an exact rational from a JSON-ish value.

    Accepts ``"p/q"`` and ``"p"`` strings of ASCII digits with an
    optional sign, ints, and Fractions.  Decimal points, exponents and
    surrounding whitespace are rejected.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise RationalParseError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL.fullmatch(value):
            raise RationalParseError(
                f"bad rational string {value!r}: expected 'p/q' or 'p'")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise RationalParseError(f"bad rational string {value!r}: {exc}") from None
    if isinstance(value, float):
        raise RationalParseError(
            f"float {value!r} rejected: encode rationals as 'p/q' strings"
        )
    raise RationalParseError(f"not a rational: {value!r}")


def format_rational(value: Fraction) -> str:
    """Canonical string form: ``"p/q"``, or ``"p"`` when the value is integral."""
    return str(value)
