"""Exact rationals at the JSON boundary: "p/q" strings in lowest terms."""

from __future__ import annotations

from fractions import Fraction

from .groupoid import MalformedInputError


def parse_fraction(text) -> Fraction:
    """Parse "p/q" in lowest terms with q > 0, as format_fraction writes it,
    or a bare integer such as "7", into a Fraction.

    Any other spelling ("3/6", "+1/2", "07/2", "1_0/3", spaces) and any
    other type, a JSON boolean included, raises MalformedInputError.
    """
    if isinstance(text, bool):
        raise MalformedInputError(f"expected rational string, got {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, Fraction):
        return text
    if not isinstance(text, str):
        raise MalformedInputError(f"expected rational string, got {text!r}")
    num, slash, den = text.partition("/")
    try:
        x = Fraction(int(num), int(den) if slash else 1)
    except (ValueError, ZeroDivisionError):
        raise MalformedInputError(f"malformed rational {text!r}") from None
    if text != (format_fraction(x) if slash else str(x.numerator)):
        raise MalformedInputError(f"rational {text!r} is not spelled {format_fraction(x)!r} (lowest terms, q > 0)")
    return x


def format_fraction(x: Fraction) -> str:
    """Render a Fraction as "p/q" in lowest terms, q > 0, always with a slash."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"
