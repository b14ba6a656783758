"""Exact rational arithmetic layer.

Everything in this package computes exactly over the rationals; no floating
point is used anywhere.  One arithmetic layer of ints carries the group
action, the split projections, the elimination kernels, the mod-p traces
and the differentials, `int` matrices over D_N = lcm(1, .., N - 1).
``fractions.Fraction`` is left to echelon forms and kernel bases over Q,
characters, multiplicities and differentials printed over D_N as ``p/q``.
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
