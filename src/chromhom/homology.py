"""Bigraded homology tables and Frobenius series.

Multiplicities of irreducibles in H_{i,j} = ker d_{i,j} / im d_{i+1,j} are
recovered from isotypic data: multiplicity in the chain space minus the
multiplicities of the two adjacent images, all read off from exact
class-function traces.  Betti numbers come from rank-nullity with one
exact rank per differential (`rank_forward`, fraction-free), which the
table keeps for `lescheck`, and the dimension-weighted multiplicities
must reproduce them.  Each differential's rank is cross-checked by one
certified echelon form mod a word-size prime (`linalg.certified_image`,
which retries at the next prime of a fixed list when the ranks differ),
and the image traces, plain `int`s, are read off that form, which the
agreeing ranks make exact.  Nothing here eliminates over Q.
"""

from typing import NamedTuple

from .complexes import ChainComplex
from .linalg import certified_image, rank_forward
from .partitions import hook_dimension, partition_index
from .repn import image_characters, multiplicities_from_characters


class HomologyTable:
    """Per-(i,j) multisets of irreducible labels with multiplicities, the
    nonzero Betti numbers, and `ranks`, the exact rank of each nonzero
    d_{i,j}.  Equality and every output read the cells alone."""

    def __init__(self, n_points: int, cells: dict, betti: dict, ranks: dict):
        self.n_points = n_points
        self.cells = {key: dict(val) for key, val in cells.items() if val}
        self.betti = {key: b for key, b in betti.items() if b}
        self.ranks = ranks
        for key, mults in self.cells.items():
            total = sum(hook_dimension(lam) * m for lam, m in mults.items())
            if total != self.betti.get(key, 0):
                raise AssertionError(f"multiplicity/Betti mismatch at {key}")

    def multiplicities(self, i: int, j: int) -> dict:
        return dict(self.cells.get((i, j), {}))

    def nonzero_cells(self) -> list[tuple[int, int]]:
        return sorted(self.cells)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HomologyTable)
            and self.n_points == other.n_points
            and self.cells == other.cells
        )

    def _irreducibles(self, i: int, j: int) -> list:
        """The (partition, multiplicity) pairs of H_{i,j}, in partition order."""
        order = partition_index(self.n_points)
        return sorted(self.cells[(i, j)].items(), key=lambda kv: order[kv[0]])

    def to_json_dict(self) -> dict:
        return {"points": self.n_points, "homology": [
            {"i": i, "j": j, "betti": self.betti[(i, j)],
             "irreducibles": [[list(lam), m] for lam, m in self._irreducibles(i, j)]}
            for i, j in self.nonzero_cells()]}

    def text_lines(self) -> list[str]:
        lines = []
        for i, j in self.nonzero_cells():
            parts = [("" if m == 1 else f"{m}*") + f"S[{','.join(map(str, lam))}]"
                     for lam, m in self._irreducibles(i, j)]
            lines.append(f"H[{i},{j}] = " + " + ".join(parts))
        return lines or ["H = 0"]


def homology_table(cx: ChainComplex) -> HomologyTable:
    """Homology of the complex as multisets of irreducibles.

    Each nonzero differential's exact rank comes once from `rank_forward`,
    is kept as `HomologyTable.ranks`, and the Betti numbers follow by
    rank-nullity.  For each (i, j) with a nonzero Betti number: the
    multiplicity of an irreducible in the homology equals its multiplicity
    in the chain space minus its multiplicities in the images of the
    incoming and outgoing differentials, read off class-function traces.
    Such differences must be nonnegative integers whose dimension-weighted
    sums reproduce the Betti numbers.  Every nonzero differential's rank
    is computed a second time, by elimination mod a prime, and the image
    traces are read off that echelon form, exact because the ranks agree
    (`image_characters`); when no prime of `linalg.PRIMES` agrees, the
    error names the bidegree and the graph.
    """
    n = cx.n_points
    ranks = {key: rank_forward(mat) for key, mat in cx.diffs.items()
             if mat.nnz()}
    betti: dict = {}
    for i, level in enumerate(cx.levels):
        for j in level.degrees():
            b = level.dim(j) - ranks.get((i, j), 0) - ranks.get((i + 1, j), 0)
            if b:
                betti[(i, j)] = b
    # (i, j) -> (character of C_{i,j}, character of im d_{i+1,j} in it)
    chars: dict = {}
    for i, level in enumerate(cx.levels):
        for j in level.degrees():
            key = (i + 1, j)
            try:
                if (i, j) in betti or key in betti:
                    chars[(i, j)] = image_characters(
                        cx.differential(*key), level.runs(j), j, n, ranks.get(key, 0)
                    )
                elif key in ranks:
                    certified_image(cx.diffs[key], ranks[key])
            except AssertionError:
                raise AssertionError(
                    f"rank computations disagree at (i={i + 1}, j={j}) "
                    f"of {cx.graph.serialize()}"
                ) from None
    cells: dict = {}
    for (i, j), b in betti.items():
        chain_chars, chars_in = chars[(i, j)]
        chars_out = chars[(i - 1, j)][1] if (i - 1, j) in chars else {}
        hom_chars = {
            mu: chain_chars[mu] - chars_in[mu] - chars_out.get(mu, 0)
            for mu in chain_chars
        }
        cells[(i, j)] = multiplicities_from_characters(hom_chars, n)
    return HomologyTable(n, cells, betti, ranks)


class FrobeniusSeries(NamedTuple):
    """Bivariate polynomial in (q, t) with Schur-function coefficients.

    Stored as {partition: {(i, j): coefficient}} where the coefficient of
    t^i q^j on the partition lam is (-1)^(i+j) times the multiplicity of
    lam in H_{i,j}.
    """

    n_points: int
    terms: tuple  # sorted ((partition, ((i,j), coeff) pairs) ...)

    def text(self) -> str:
        """Render like ``s[2,1] - (q + q^2*t)*s[1,1,1]``."""
        if not self.terms:
            return "0"

        def monomial(i: int, j: int, c: int) -> str:
            vars_txt = []
            if j == 1:
                vars_txt.append("q")
            elif j > 1:
                vars_txt.append(f"q^{j}")
            if i == 1:
                vars_txt.append("t")
            elif i > 1:
                vars_txt.append(f"t^{i}")
            body = "*".join(vars_txt)
            mag = abs(c)
            if not body:
                return str(mag)
            return body if mag == 1 else f"{mag}*{body}"

        pieces = []
        for lam, cells in self.terms:
            schur = f"s[{','.join(map(str, lam))}]"
            cells = sorted(cells, key=lambda kv: (kv[0][0] + kv[0][1], kv[0]))
            negative = all(c < 0 for _, c in cells)
            inner = []
            for (i, j), c in cells:
                mono = monomial(i, j, c)
                sign = "-" if (c < 0) != negative else "+"
                inner.append((sign, mono))
            if len(inner) == 1 and inner[0][1] == "1":
                poly = ""
            elif len(inner) == 1:
                poly = inner[0][1] + "*"
            else:
                body = inner[0][1]
                for sign, mono in inner[1:]:
                    body += f" {sign} {mono}"
                poly = f"({body})*"
            term = poly + schur
            pieces.append((negative, term))
        head_neg, head = pieces[0]
        out = ("-" if head_neg else "") + head
        for negative, term in pieces[1:]:
            out += (" - " if negative else " + ") + term
        return out


def frobenius_series(table: HomologyTable) -> FrobeniusSeries:
    """The series of a table, its partitions in `partition_index` order."""
    acc: dict = {}
    for (i, j), mults in table.cells.items():
        sign = -1 if (i + j) % 2 else 1
        for lam, m in mults.items():
            acc.setdefault(lam, {})[(i, j)] = sign * m
    order = partition_index(table.n_points)
    terms = tuple(
        (lam, tuple(sorted(cells.items())))
        for lam, cells in sorted(acc.items(), key=lambda kv: order[kv[0]])
    )
    return FrobeniusSeries(table.n_points, terms)


def span_indices(table: HomologyTable, j: int):
    """(k_min, k_max) of nonzero homology in column j; None if empty.

    For j = 0 the span is k_max + 1.
    """
    rows = [i for (i, jj) in table.cells if jj == j]
    if not rows:
        return None
    return min(rows), max(rows)


def span_zero(table: HomologyTable):
    span = span_indices(table, 0)
    return None if span is None else span[1] + 1
