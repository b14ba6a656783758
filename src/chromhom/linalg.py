"""Exact sparse linear algebra over the rationals.

Matrices are stored column-major (each column a dict row->value), which
matches how chain maps are assembled (column = image of a domain basis
vector).  Three elimination routines check one another:

  * `rank_forward`: forward elimination over Q, the exact rank;
  * `image_rref_mod_p`: reduced echelon form of the image mod the prime
    P = 2^61 - 1, whose rank must equal `rank_forward`'s before the
    homology engine reads image traces off it;
  * `_rref_vectors` (behind `image_rref` and `kernel_basis`): reduced
    echelon form over Q.  `image_rref` serves only the fallback of
    `certified_image`, when the two ranks above differ; `kernel_basis`
    gives the cycle bases of the LES check.  Every rank the LES check
    compares is `rank_forward`'s.
"""

from ._rat import QQ, rat_str


class SparseMat:
    __slots__ = ("nrows", "ncols", "cols")

    def __init__(self, nrows: int, ncols: int, cols=None):
        self.nrows = nrows
        self.ncols = ncols
        self.cols = cols if cols is not None else [dict() for _ in range(ncols)]

    def add_entry(self, r: int, c: int, v) -> None:
        col = self.cols[c]
        val = col.get(r, QQ(0)) + v
        if val == 0:
            col.pop(r, None)
        else:
            col[r] = val

    def nnz(self) -> int:
        return sum(len(c) for c in self.cols)

    def is_zero(self) -> bool:
        return all(not c for c in self.cols)

    def apply(self, vec: dict) -> dict:
        """Matrix times a sparse column vector {col: value} -> {row: value}."""
        out: dict = {}
        for c, v in vec.items():
            for r, a in self.cols[c].items():
                val = out.get(r, QQ(0)) + v * a
                if val == 0:
                    out.pop(r, None)
                else:
                    out[r] = val
        return out

    def matmul(self, other: "SparseMat") -> "SparseMat":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        return SparseMat(
            self.nrows, other.ncols, [self.apply(c) for c in other.cols]
        )

    def transpose(self) -> "SparseMat":
        t = SparseMat(self.ncols, self.nrows)
        for c, col in enumerate(self.cols):
            for r, v in col.items():
                t.cols[r][c] = v
        return t

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseMat)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.cols == other.cols
        )

    def dump_lines(self):
        """Coordinate triples with exact rational values, row-major order."""
        triples = []
        for c, col in enumerate(self.cols):
            for r, v in col.items():
                triples.append((r, c, v))
        triples.sort(key=lambda t: (t[0], t[1]))
        return [f"{r} {c} {rat_str(v)}" for r, c, v in triples]


def vec_add(a: dict, b: dict, factor=1) -> dict:
    out = dict(a)
    for k, v in b.items():
        val = out.get(k, QQ(0)) + factor * v
        if val == 0:
            out.pop(k, None)
        else:
            out[k] = val
    return out


def vec_scale(a: dict, factor) -> dict:
    if factor == 0:
        return {}
    return {k: factor * v for k, v in a.items()}


def _rref_vectors(vectors) -> tuple[list[int], list[dict]]:
    """Reduced echelon form of a list of sparse vectors.

    Returns (pivots, basis): basis vectors have value 1 at their pivot
    index (the smallest index of the vector) and 0 at every other pivot.
    Fully deterministic.
    """
    pivots: list[int] = []
    basis: list[dict] = []
    by_pivot: dict[int, int] = {}
    for vec in vectors:
        v = dict(vec)
        # zero out every existing pivot coordinate; basis vectors are
        # themselves reduced, so a single pass suffices
        for q in [q for q in v if q in by_pivot]:
            v = vec_add(v, basis[by_pivot[q]], -v[q])
        if not v:
            continue
        p = min(v)
        v = vec_scale(v, QQ(1) / v[p])
        # back-reduce existing basis vectors against the new pivot
        for k, b in enumerate(basis):
            if p in b:
                basis[k] = vec_add(b, v, -b[p])
        by_pivot[p] = len(basis)
        basis.append(v)
        pivots.append(p)
    order = sorted(range(len(pivots)), key=lambda k: pivots[k])
    pivots = [pivots[k] for k in order]
    basis = [basis[k] for k in order]
    return pivots, basis


def image_rref(mat: SparseMat) -> tuple[list[int], list[dict]]:
    """Column space basis in reduced echelon form.

    Returns (pivot_rows, columns); column k has value 1 at pivot_rows[k]
    and 0 at every other pivot row.
    """
    return _rref_vectors(mat.cols)


P = (1 << 61) - 1  # the Mersenne prime modulus of `image_rref_mod_p`


def image_rref_mod_p(mat: SparseMat) -> tuple[list[int], list[dict]] | None:
    """`image_rref` of `mat` reduced mod P, with entries in range(P).

    An entry a/b maps to a * b^-1 mod P.  Returns None when P divides a
    denominator, so the reduction is undefined; callers treat that as a
    rank mismatch.
    """
    inverse = {1: 1}
    pivots: list[int] = []
    basis: list[dict] = []
    by_pivot: dict[int, int] = {}
    for col in mat.cols:
        v = {}
        for r, x in col.items():
            den = x.denominator
            if den not in inverse:
                if den % P == 0:
                    return None
                inverse[den] = pow(den, -1, P)
            val = x.numerator * inverse[den] % P
            if val:
                v[r] = val
        for q in [q for q in v if q in by_pivot]:
            v = _add_scaled_mod_p(v, basis[by_pivot[q]], P - v[q])
        if not v:
            continue
        p = min(v)
        s = pow(v[p], -1, P)
        v = {k: x * s % P for k, x in v.items()}
        for k, b in enumerate(basis):
            if p in b:
                basis[k] = _add_scaled_mod_p(b, v, P - b[p])
        by_pivot[p] = len(basis)
        basis.append(v)
        pivots.append(p)
    order = sorted(range(len(pivots)), key=lambda k: pivots[k])
    return [pivots[k] for k in order], [basis[k] for k in order]


def certified_image(mat: SparseMat, rank: int):
    """Reduced echelon image basis of `mat`, certified by its exact `rank`.

    Returns (pivots, columns, modulus): the form mod P, with modulus P,
    when its rank equals `rank` (and rank < P/2, so traces on it lift);
    else `image_rref` over Q, with modulus None.  Raises AssertionError
    when that rank differs from `rank` too.
    """
    echelon = image_rref_mod_p(mat)
    if echelon is not None and len(echelon[0]) == rank and 2 * rank < P:
        return (*echelon, P)
    echelon = None  # keep one echelon form alive at a time
    pivots, cols = image_rref(mat)
    if len(pivots) != rank:
        raise AssertionError(
            f"rank {rank} by forward elimination, {len(pivots)} by echelon form"
        )
    return pivots, cols, None


def _add_scaled_mod_p(v: dict, b: dict, factor: int) -> dict:
    """v + factor * b over F_P, dropping zeros, in a new dict.

    Updating in place leaves deleted slots behind: the echelon form of the
    largest P4(1,2,2,1) differential took 1.8 MB that way, 0.9 MB copied.
    """
    out = dict(v)
    for k, x in b.items():
        val = (out.get(k, 0) + factor * x) % P
        if val:
            out[k] = val
        else:
            del out[k]
    return out


def kernel_basis(mat: SparseMat) -> list[dict]:
    """Reduced basis of the right kernel {v : mat @ v = 0}."""
    pivots, rows = _rref_vectors(mat.transpose().cols)
    pivot_set = set(pivots)
    free = [c for c in range(mat.ncols) if c not in pivot_set]
    out = []
    for f in free:
        v = {f: QQ(1)}
        for p, row in zip(pivots, rows):
            c = row.get(f)
            if c is not None:
                v[p] = -c
        out.append(v)
    return out


def rank_forward(mat: SparseMat) -> int:
    """Rank by plain forward elimination on rows (no back-substitution).

    Deliberately separate from the reduced-echelon routine; used as the
    second, independent path for Betti numbers.
    """
    rows: dict[int, dict] = {}
    for c, col in enumerate(mat.cols):
        for r, v in col.items():
            rows.setdefault(r, {})[c] = v
    pivot_of: dict[int, dict] = {}
    rank = 0
    for r in sorted(rows):
        cur = rows[r]
        while cur:
            # eliminate against the pivot with the largest column first
            p = max(cur)
            row = pivot_of.get(p)
            if row is None:
                break
            factor = cur[p] / row[p]
            cur = vec_add(cur, row, -factor)
        if cur:
            pivot_of[max(cur)] = cur
            rank += 1
    return rank
