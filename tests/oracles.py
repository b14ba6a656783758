"""Reference oracles: slow, literal constructions the engine is checked against.

`IsotypicProjector` sums over the whole symmetric group, `isotypic_rank`
reads its dimension and rank off class-function traces as the homology
engine does, and `standard_tableaux_count` enumerates tableaux one by
one, independent of the hook length formula.
"""

from itertools import permutations
from math import factorial

from chromhom._rat import QQ, as_int
from chromhom.characters import character_table
from chromhom.linalg import SparseMat, rank_forward, vec_add
from chromhom.partitions import hook_dimension
from chromhom.repn import (
    LabelBasis,
    basis_characters,
    check_equivariance,
    image_characters,
)


def cycle_type(p: tuple[int, ...]) -> tuple[int, ...]:
    n = len(p)
    seen = [False] * n
    lengths = []
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


class IsotypicProjector:
    """Central idempotent P = (f/n!) sum_g chi(g^{-1}) g for one irreducible.

    Application sums over the whole symmetric group (n! terms); the
    homology pipeline extracts multiplicities from class-function traces
    instead, and this class is the reference they are checked against.
    """

    def __init__(self, lam: tuple[int, ...], n_points: int):
        if sum(lam) != n_points:
            raise ValueError("partition size must equal the point count")
        self.lam = lam
        self.n_points = n_points
        self.table = character_table(n_points)
        self.dim = hook_dimension(lam)

    def apply(self, basis: LabelBasis, vec: dict) -> dict:
        out: dict = {}
        for g in permutations(range(self.n_points)):
            chi = self.table.chi(self.lam, cycle_type(g))
            if chi == 0:
                continue
            out = vec_add(out, basis.action_matrix(g).apply(vec), QQ(chi))
        scale = QQ(self.dim, factorial(self.n_points))
        return {k: scale * v for k, v in out.items() if v != 0}


def isotypic_rank(projector: IsotypicProjector, mat: SparseMat,
                  domain: LabelBasis, codomain: LabelBasis) -> tuple[int, int]:
    """(dimension of the isotypic part of the domain, rank of `mat` there).

    Equivariance is checked on generators.  Both values are read off
    class-function traces, the image's through `image_characters` with
    the exact rank as its certificate, and must equal what applying the
    literal projector gives: the domain trace of P, and the rank of `mat`
    composed with P.  Both are multiples of the irreducible's dimension.
    """
    n = projector.n_points
    check_equivariance(mat, domain, codomain, n)
    table = character_table(n)
    lam = projector.lam
    dom_char = basis_characters(domain, n)
    dom_mult = QQ(0)
    for mu in table.partitions:
        dom_mult += dom_char[mu] * table.chi(lam, mu) / QQ(table.z[mu])
    _, im_char = image_characters(mat, codomain, n, rank_forward(mat))
    im_mult = QQ(0)
    for mu in table.partitions:
        im_mult += im_char[mu] * table.chi(lam, mu) / QQ(table.z[mu])
    f = projector.dim
    return f * as_int(dom_mult), f * as_int(im_mult)


def standard_tableaux_count(lam: tuple[int, ...]) -> int:
    """Count standard Young tableaux of shape lam by brute enumeration.

    Independent of the hook length formula; intended for small shapes.
    """
    n = sum(lam)
    if n == 0:
        return 1

    def grow(shape: tuple[int, ...], k: int) -> int:
        if k == n:
            return 1
        total = 0
        for i in range(len(lam)):
            row = shape[i] if i < len(shape) else 0
            if i == 0:
                above = n + 1
            else:
                above = shape[i - 1] if i - 1 < len(shape) else 0
            if row < lam[i] and row < above:
                new = list(shape)
                while len(new) <= i:
                    new.append(0)
                new[i] += 1
                total += grow(tuple(new), k + 1)
        return total

    return grow((), 0)
