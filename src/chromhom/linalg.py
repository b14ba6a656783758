"""Exact sparse linear algebra over the rationals.

Matrices are stored column-major (each column a dict row->value), which
matches how chain maps are assembled (column = image of a domain basis
vector).  Rank, kernel and image computations run two different
elimination routines so the homology engine's Betti cross-check does not
reuse one code path for both sides.
"""

from ._rat import QQ, rat_str


class SparseMat:
    __slots__ = ("nrows", "ncols", "cols")

    def __init__(self, nrows: int, ncols: int, cols=None):
        self.nrows = nrows
        self.ncols = ncols
        self.cols = cols if cols is not None else [dict() for _ in range(ncols)]

    @staticmethod
    def from_entries(nrows: int, ncols: int, entries) -> "SparseMat":
        m = SparseMat(nrows, ncols)
        for r, c, v in entries:
            col = m.cols[c]
            val = col.get(r, QQ(0)) + v
            if val == 0:
                col.pop(r, None)
            else:
                col[r] = val
        return m

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


def identity_mat(n: int) -> SparseMat:
    return SparseMat(n, n, [{k: QQ(1)} for k in range(n)])


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
