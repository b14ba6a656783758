"""Exact rational arithmetic layer.

Everything in this package computes over the rationals with the stdlib's
``fractions.Fraction``; no floating point is used anywhere.  Values
interoperate with Python ints and print as ``p/q`` (or ``p`` when the
denominator is 1).
"""

from fractions import Fraction as QQ

__all__ = ["QQ", "as_int", "is_integer", "rat_str"]


def is_integer(x) -> bool:
    return x.denominator == 1


def as_int(x) -> int:
    if x.denominator != 1:
        raise ValueError(f"{x} is not an integer")
    return int(x.numerator)


def rat_str(x) -> str:
    """Render as ``p`` or ``p/q``."""
    if x.denominator == 1:
        return str(int(x.numerator))
    return f"{int(x.numerator)}/{int(x.denominator)}"
