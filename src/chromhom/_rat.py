"""Exact rational arithmetic layer.

Everything in this package computes exactly over the rationals; no floating
point is used anywhere.  One arithmetic layer of ints carries the group
action, the split projections, the elimination kernels, the differentials
(`int` matrices over D_N = lcm(1, .., N - 1)), the image characters, read
mod a certified prime, and the multiplicities.  ``fractions.Fraction`` is
left to the reference echelon form over Q of `linalg._rref_vectors`
(`image_rref`), to differentials printed over D_N as ``p/q``
(`SparseMat.dump_lines`), and to the symmetric function coefficients of
`symfunc`; where those are multiplicities, as in the Schur products of
`lescheck.induction_product_table`, the reader checks that each is a
nonnegative integer.
"""

from fractions import Fraction as QQ

__all__ = ["QQ", "rat_str"]


def rat_str(x) -> str:
    """Render as ``p`` or ``p/q``."""
    if x.denominator == 1:
        return str(int(x.numerator))
    return f"{int(x.numerator)}/{int(x.denominator)}"
