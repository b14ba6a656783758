"""Exact rational arithmetic layer.

Everything in this package computes exactly over the rationals; no floating
point is used anywhere.  Inside the elimination kernels, the group action,
the split projections and the mod-p class traces values are Python ints, and
the d.d, equivariance and chain-map gates multiply transient integer
multiples of the differentials; at their boundary (differentials, echelon
forms over Q) they are ``fractions.Fraction``, printed as ``p/q`` or ``p``.
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
