"""Exact rationals at the JSON boundary: "p/q" strings in lowest terms."""

from __future__ import annotations

from fractions import Fraction

from .groupoid import MalformedInputError


def parse_fraction(text) -> Fraction:
    """Parse "p/q" (or a bare integer) into a Fraction. q must be positive.

    Anything else, a JSON boolean included, raises MalformedInputError.
    """
    if isinstance(text, bool):
        raise MalformedInputError(f"expected rational string, got {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, Fraction):
        return text
    if not isinstance(text, str):
        raise MalformedInputError(f"expected rational string, got {text!r}")
    parts = text.split("/")
    if len(parts) == 1:
        num, den = parts[0], "1"
    elif len(parts) == 2:
        num, den = parts
    else:
        raise MalformedInputError(f"malformed rational {text!r}")
    try:
        n, d = int(num), int(den)
    except ValueError:
        raise MalformedInputError(f"malformed rational {text!r}") from None
    if d <= 0:
        raise MalformedInputError(f"rational {text!r} must have positive denominator")
    return Fraction(n, d)


def format_fraction(x: Fraction) -> str:
    """Render a Fraction as "p/q" in lowest terms, q > 0, always with a slash."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"
