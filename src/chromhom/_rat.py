"""Exact rational arithmetic layer.

Everything in this package computes over the rationals; no floating point
is used anywhere.  gmpy2.mpq is used when available (it is several times
faster than fractions.Fraction); otherwise we fall back to the stdlib.
Both types interoperate with Python ints, hash consistently, and print as
``p/q`` (or ``p`` when the denominator is 1).
"""

try:  # pragma: no cover - exercised implicitly
    from gmpy2 import mpq as QQ
except ImportError:  # pragma: no cover
    from fractions import Fraction as QQ

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
