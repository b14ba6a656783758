"""Symmetric group character tables via the Murnaghan-Nakayama rule."""

from functools import cache
from math import factorial

from .partitions import centralizer_order, hook_dimension, partitions_of


@cache
def _mn_character(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Character value chi_lam(mu) for partitions of a common n.

    Beta-number formulation: removing a border strip of size k from lam
    corresponds to lowering one beta number by k onto an unoccupied value;
    the strip height is the number of beta numbers jumped over.
    """
    if not lam:
        return 1
    k = mu[0]
    rest = mu[1:]
    nrows = len(lam)
    beta = [lam[t] + (nrows - 1 - t) for t in range(nrows)]
    occupied = set(beta)
    total = 0
    for t in range(nrows):
        low = beta[t] - k
        if low < 0 or low in occupied:
            continue
        height = sum(1 for b in beta if low < b < beta[t])
        newbeta = sorted((b for b in beta if b != beta[t]), reverse=True)
        newbeta.append(low)
        newbeta.sort(reverse=True)
        newlam = tuple(
            newbeta[r] - (nrows - 1 - r) for r in range(nrows)
        )
        newlam = tuple(p for p in newlam if p > 0)
        total += (-1) ** height * _mn_character(newlam, rest)
    return total


class CharacterTable:
    """Complete character table of the symmetric group on n letters.

    Rows are irreducibles, columns are cycle types; both are indexed by
    partitions of n in reverse lexicographic order.  Values are exact
    integers.  On construction the table is checked against column
    orthogonality, the hook length formula, and sum(f^2) = n!.
    """

    def __init__(self, n: int):
        self.n = n
        self.partitions = partitions_of(n)
        self.z = {mu: centralizer_order(mu) for mu in self.partitions}
        self.values = {
            (lam, mu): _mn_character(lam, mu)
            for lam in self.partitions
            for mu in self.partitions
        }
        self._validate()

    def chi(self, lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
        return self.values[(lam, mu)]

    def dim(self, lam: tuple[int, ...]) -> int:
        return self.values[(lam, (1,) * self.n)]

    def _validate(self) -> None:
        for lam in self.partitions:
            if self.dim(lam) != hook_dimension(lam):
                raise AssertionError(f"dimension mismatch for {lam}")
        if sum(self.dim(lam) ** 2 for lam in self.partitions) != factorial(self.n):
            raise AssertionError("sum of squared dimensions != n!")
        for mu in self.partitions:
            for nu in self.partitions:
                s = sum(
                    self.chi(lam, mu) * self.chi(lam, nu)
                    for lam in self.partitions
                )
                expected = self.z[mu] if mu == nu else 0
                if s != expected:
                    raise AssertionError(f"column orthogonality fails at {mu}, {nu}")


@cache
def character_table(n: int) -> CharacterTable:
    if n < 1:
        raise ValueError(f"character table degree {n} must be at least 1")
    return CharacterTable(n)
