"""Exact sparse linear algebra over the rationals.

Matrices are stored column-major (each column a dict row->value), which
matches how chain maps are assembled (column = image of a domain basis
vector).  There is one arithmetic layer: the differentials and chain maps
hold `int` entries, a differential D_N times the map over Q for one
denominator D_N per total weight (`complexes`), and every exact gate
multiplies them as stored.  No engine path eliminates over Q:

  * `rank_forward`: forward elimination of the rows, fraction-free, the
    exact rank.  Each vector is scaled to a primitive integer vector
    (`_integer`) and combined in place by `_eliminate`, with gcd
    cancellation (Bareiss, Math. Comp. 1968);
  * `certified_image`: the reduced echelon form of the image mod a
    word-size prime (`image_rref_mod_p`), taken at the first prime of
    `PRIMES` whose rank equals `rank_forward`'s, so the homology engine
    reads exact image traces off it;
  * `kernel_basis` and `rank_mod_p`: the cycle bases and induced ranks of
    the LES check mod a prime of `PRIMES`, which `lescheck.verify_les`
    certifies to be the ones over Q.

`_rref_vectors`, the fraction-free step in Gauss-Jordan form, gives the
reduced echelon form over Q of `image_rref`, the reference that no engine
path calls.  A stored vector is copied before it is combined, so no input
changes.

Gauss-Jordan with the smallest index as pivot fills in badly when fed the
differentials' columns in stored order; `image_rref_mod_p` and
`kernel_basis` feed them in reverse.  The reduced form of a span is
unique, so the order changes neither pivots nor values.
"""

from math import gcd, lcm

from ._rat import QQ, rat_str


class SparseMat:
    __slots__ = ("nrows", "ncols", "cols")

    def __init__(self, nrows: int, ncols: int, cols=None):
        self.nrows = nrows
        self.ncols = ncols
        self.cols = cols if cols is not None else [dict() for _ in range(ncols)]

    def add_entry(self, r: int, c: int, v) -> None:
        col = self.cols[c]
        val = col.get(r, 0) + v
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
                val = out.get(r, 0) + v * a
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

    def dump_lines(self, denominator: int):
        """Coordinate triples of the `int` matrix over `denominator`, as exact
        rational values, row-major order."""
        triples = []
        for c, col in enumerate(self.cols):
            for r, v in col.items():
                triples.append((r, c, v))
        triples.sort(key=lambda t: (t[0], t[1]))
        return [f"{r} {c} {rat_str(QQ(v, denominator))}" for r, c, v in triples]


def _integer(vec: dict) -> dict:
    """The primitive integer vector on the line of a rational sparse vector."""
    scale = lcm(*[x.denominator for x in vec.values()])
    out = {k: x.numerator * (scale // x.denominator) for k, x in vec.items()}
    g = gcd(*out.values())
    return {k: x // g for k, x in out.items()} if g > 1 else out


def _eliminate(v: dict, b: dict, q) -> None:
    """Set v to (b[q]/g) v - (v[q]/g) b, g = gcd(v[q], b[q]), in place: the
    integer combination of `v` and `b` with no entry at q.  A step that
    scaled v (b[q]/g != 1) then divides it by the gcd of its entries, which
    keeps them small; any scale keeps the span."""
    g = gcd(v[q], b[q])
    s, t = b[q] // g, v[q] // g
    if s != 1:
        for k in v:
            v[k] *= s
    for k, y in b.items():
        val = v.get(k, 0) - t * y
        if val:
            v[k] = val
        else:
            del v[k]
    if s != 1 and (g := gcd(*v.values())) > 1:
        for k in v:
            v[k] //= g


def _rref_vectors(vectors) -> tuple[list[int], list[dict]]:
    """Reduced echelon form of a list of sparse vectors.

    Returns (pivots, basis): basis vectors have value 1 at their pivot
    index (the smallest index of the vector) and 0 at every other pivot.
    Gauss-Jordan runs on integer vectors, each a multiple of the vector
    over Q, and divides by the pivot once at the end; the reduced
    form of a span is unique for this pivot rule.  Fully deterministic.
    """
    pivots: list[int] = []
    basis: list[dict] = []
    by_pivot: dict[int, int] = {}
    for vec in vectors:
        v = _integer(vec)
        # zero out every existing pivot coordinate; basis vectors are
        # themselves reduced, so a single pass suffices
        for q in [q for q in v if q in by_pivot]:
            _eliminate(v, basis[by_pivot[q]], q)
        if not v:
            continue
        p = min(v)
        # back-reduce existing basis vectors against the new pivot
        for k, b in enumerate(basis):
            if p in b:
                basis[k] = b = dict(b)
                _eliminate(b, v, p)
        by_pivot[p] = len(basis)
        basis.append(v)
        pivots.append(p)
    pairs = sorted(zip(pivots, basis))  # pivots are distinct
    return ([p for p, _ in pairs],
            [{i: QQ(x, b[p]) for i, x in b.items()} for p, b in pairs])


def image_rref(mat: SparseMat) -> tuple[list[int], list[dict]]:
    """Column space basis in reduced echelon form, (pivot_rows, columns):
    column k is 1 at pivot_rows[k] and 0 at every other pivot row.  No
    engine path calls it; `image_rref_mod_p` reproduces it mod each prime."""
    return _rref_vectors(mat.cols)


# the five largest primes below 2^30, tried in turn by `certified_image`;
# each residue fits one 30-bit CPython digit
PRIMES = (1073741789, 1073741783, 1073741741, 1073741723, 1073741719)


def image_rref_mod_p(mat: SparseMat, p: int) -> tuple[list[int], list[dict]]:
    """`image_rref` of the `int` matrix `mat` reduced mod the prime `p`,
    with entries in range(p).  Columns are fed last first (module
    docstring)."""
    pivots: list[int] = []
    basis: list[dict] = []
    by_pivot: dict[int, int] = {}
    for col in reversed(mat.cols):
        v = {r: val for r, x in col.items() if (val := x % p)}
        for q in [q for q in v if q in by_pivot]:
            _add_scaled_mod_p(v, basis[by_pivot[q]], p - v[q], p)
        if not v:
            continue
        lead = min(v)
        s = pow(v[lead], -1, p)
        v = {k: x * s % p for k, x in v.items()}  # stored compact
        for k, b in enumerate(basis):
            if lead in b:
                basis[k] = b = dict(b)
                _add_scaled_mod_p(b, v, p - b[lead], p)
        by_pivot[lead] = len(basis)
        basis.append(v)
        pivots.append(lead)
    order = sorted(range(len(pivots)), key=lambda k: pivots[k])
    return [pivots[k] for k in order], [basis[k] for k in order]


def certified_image(mat: SparseMat, rank: int):
    """Reduced echelon image basis of `mat` mod a prime, certified by its
    exact `rank`.

    Returns (pivots, columns, p) for the first p of `PRIMES` at which the
    form's rank equals `rank` and 2 rank < p, so traces on it lift.  A
    prime falls short only by dividing every rank x rank minor of `mat`,
    and finitely many primes do.  Raises AssertionError when every prime
    of `PRIMES` falls short.
    """
    for p in PRIMES:
        pivots, cols = image_rref_mod_p(mat, p)
        if len(pivots) == rank and 2 * rank < p:
            return pivots, cols, p
    raise AssertionError(
        f"rank {rank} by forward elimination, {len(pivots)} by echelon form"
    )


def _add_scaled_mod_p(v: dict, b: dict, factor: int, p: int) -> None:
    """v += factor * b over F_p, dropping zeros, in place.

    Deleting in place leaves slots behind: the echelon form of the largest
    P4(1,2,2,1) differential took 1.8 MB with its stored vectors updated in
    place, 0.9 MB copied.  So the working vector is updated in place and
    each stored vector is copied before an update.
    """
    for k, x in b.items():
        val = (v.get(k, 0) + factor * x) % p
        if val:
            v[k] = val
        else:
            del v[k]


def kernel_basis(mat: SparseMat, p: int) -> list[dict]:
    """Reduced basis of the right kernel of the `int` matrix `mat` mod the
    prime `p`, entries in range(p): per free index f, keys f (value 1) then
    increasing pivots.  Rows are fed last first (see top).  Few residues
    differ, so each value is stored as one shared `int`."""
    pivots, rows = image_rref_mod_p(mat.transpose(), p)
    pivot_set, shared = set(pivots), {}
    return [{f: 1} | {q: shared.setdefault(x := p - row[f], x)
                      for q, row in zip(pivots, rows) if f in row}
            for f in range(mat.ncols) if f not in pivot_set]


def rank_mod_p(cols, p: int) -> int:
    """Rank mod the prime `p` of the `int` vectors `cols` by forward
    elimination, with `rank_forward`'s pivot rule: a working vector steps
    in place against the pivot at its largest index, and is stored, scaled
    to 1 there, when it has none."""
    pivot_of: dict[int, dict] = {}
    for col in cols:
        cur = {k: val for k, x in col.items() if (val := x % p)}
        while cur and (q := max(cur)) in pivot_of:
            _add_scaled_mod_p(cur, pivot_of[q], p - cur[q], p)
        if cur:
            s = pow(cur[q], -1, p)
            pivot_of[q] = {k: x * s % p for k, x in cur.items()}
    return len(pivot_of)


def rank_forward(mat: SparseMat) -> int:
    """Rank by plain forward elimination on rows (no back-substitution).

    Deliberately separate from the reduced-echelon routine; used as the
    second, independent path for Betti numbers.  Each row is scaled to an
    integer row, which keeps the rank, and eliminated in place; it is
    copied once, compact, when it becomes a pivot.
    """
    pivot_of: dict[int, dict] = {}
    for row in mat.transpose().cols:
        cur = _integer(row)
        while cur:
            # eliminate against the pivot with the largest column first
            p = max(cur)
            pivot = pivot_of.get(p)
            if pivot is None:
                pivot_of[p] = dict(cur)
                break
            _eliminate(cur, pivot, p)
    return len(pivot_of)
