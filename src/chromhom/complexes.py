"""Assembly of the bigraded chain complex of a vertex-weighted graph.

Level i is the direct sum of the chain modules of all states with i edges,
each read off `chain_labels` by the state's shape and tagged with its
edge mask.  The differential is the signed sum of per-edge maps over the
cover relations of the state lattice; removing one edge splits at most
one block, so each per-edge map moves one slot.  Everything is exact, in
one arithmetic layer: a split into parts of sizes a + b <= N has `int`
coefficients over lcm(a, b), which divides D_N = lcm(1, .., N - 1), so
each differential is an `int` matrix, D_N times the map over Q.  d . d = 0
and equivariance are asserted on construction, on the stored matrices;
`verify_equivariance` is the one equivariance gate.
"""

from functools import lru_cache
from itertools import combinations
from math import lcm

from .graphs import VertexWeightedGraph, level_masks, removal_sign, state_profile
from .linalg import SparseMat
from .repn import LabelBasis, chain_labels, class_representative, split_projection


class ChainLevel:
    """All states with a fixed number of edges, with per-degree bases."""

    def __init__(self, graph: VertexWeightedGraph, i: int):
        self.i = i
        self.masks = level_masks(graph.m, i)
        keys_by_j: dict[int, list] = {}
        for mask in self.masks:
            shape = state_profile(graph, mask).block_weights
            for j, labels in chain_labels(shape, graph.total_weight).items():
                keys_by_j.setdefault(j, []).extend((mask, lab) for lab in labels)
        self.bases: dict[int, LabelBasis] = {
            j: LabelBasis(keys) for j, keys in sorted(keys_by_j.items())
        }

    def dim(self, j: int) -> int:
        basis = self.bases.get(j)
        return basis.dim if basis else 0

    @property
    def total_dim(self) -> int:
        return sum(b.dim for b in self.bases.values())

    def degrees(self):
        return sorted(self.bases)


def per_edge_map(graph: VertexWeightedGraph, mask: int, e: int) -> dict:
    """Per-edge component of the differential at state `mask`, edge e.

    Returns {source label: [(target label, coefficient), ...]} with the
    degree preserved and `int` coefficients over D_N = lcm(1, .., N - 1).
    When removing e keeps the components intact the map is the identity on
    labels, D_N over D_N.  Otherwise source block k splits into parts
    A and B.  Blocks are ordered by their smallest vertex, so A keeps slot
    k and B lands at some slot b > k, after the source blocks k+1 .. b-1.
    Each source label maps to the signed projections over all point splits
    of its block k, identity on the other slots.  Basis elements are wedge
    words read slot by slot, so moving B's word past the words of slots
    k+1 .. b-1 costs the Koszul sign (-1)^(|S_B| * sum_{k<t<b} |S_t|).
    """
    if not mask >> e & 1:
        raise ValueError("edge must belong to the state")
    src = state_profile(graph, mask)
    tgt = state_profile(graph, mask & ~(1 << e))
    by_degree = chain_labels(src.block_weights, graph.total_weight)
    labels = [lab for labs in by_degree.values() for lab in labs]
    denominator = lcm(*range(1, graph.total_weight))
    if src.blocks == tgt.blocks:
        return {lab: [(lab, denominator)] for lab in labels}
    k = next(t for t, blk in enumerate(src.blocks) if blk != tgt.blocks[t])
    b = next(t for t in range(k + 1, len(tgt.blocks))
             if tgt.blocks[t][0] in src.blocks[k])
    weight_a, weight_b = tgt.block_weights[k], tgt.block_weights[b]
    scale = denominator // lcm(weight_a, weight_b)  # split_projection's L
    out: dict = {}
    for lab in labels:
        blocks, subs = lab
        D, S = blocks[k], subs[k]
        between = sum(len(s) for s in subs[k + 1:b]) % 2
        images = []
        for part_a in combinations(D, weight_a):
            part_b = tuple(x for x in D if x not in part_a)
            proj = split_projection(D, S, part_a, part_b)
            for (sub_a, sub_b), coeff in proj.items():
                tgt_lab = (
                    blocks[:k] + (part_a,) + blocks[k + 1:b] + (part_b,) + blocks[b:],
                    subs[:k] + (sub_a,) + subs[k + 1:b] + (sub_b,) + subs[b:],
                )
                sign = -scale if between and len(sub_b) % 2 else scale
                images.append((tgt_lab, sign * coeff))
        out[lab] = images
    return out


class ChainComplex:
    """The full bigraded complex; `diffs` holds `int` matrices over
    `denominator` D_N = lcm(1, .., N - 1)."""

    def __init__(self, graph: VertexWeightedGraph):
        self.graph = graph
        self.n_points = graph.total_weight
        self.denominator = lcm(*range(1, self.n_points))
        self.levels = [ChainLevel(graph, i) for i in range(graph.m + 1)]
        self.diffs: dict[tuple[int, int], SparseMat] = {}
        for i in range(1, graph.m + 1):
            self._assemble_level(i)
        self.verify_d_squared()
        self.verify_equivariance()

    def _assemble_level(self, i: int) -> None:
        upper = self.levels[i]
        lower = self.levels[i - 1]
        mats = {
            j: SparseMat(lower.dim(j), upper.dim(j))
            for j in upper.degrees()
        }
        for mask in upper.masks:
            for e in range(self.graph.m):
                if not mask >> e & 1:
                    continue
                sign = removal_sign(mask, e)
                tgt_mask = mask & ~(1 << e)
                pem = per_edge_map(self.graph, mask, e)
                for src_lab, images in pem.items():
                    j = sum(len(s) for s in src_lab[1])
                    col = upper.bases[j].index[(mask, src_lab)]
                    mat = mats[j]
                    lower_basis = lower.bases.get(j)
                    if lower_basis is None:
                        if images:
                            raise AssertionError(
                                "image in a degree the target level lacks"
                            )
                        continue
                    for tgt_lab, coeff in images:
                        row = lower_basis.index[(tgt_mask, tgt_lab)]
                        mat.add_entry(row, col, sign * coeff)
        for j, mat in mats.items():
            self.diffs[(i, j)] = mat

    def degrees(self):
        out = set()
        for level in self.levels:
            out.update(level.degrees())
        return sorted(out)

    def dim(self, i: int, j: int) -> int:
        if not 0 <= i < len(self.levels):
            return 0
        return self.levels[i].dim(j)

    def differential(self, i: int, j: int) -> SparseMat:
        """d_{i,j}: C_{i,j} -> C_{i-1,j}, a zero matrix when absent."""
        mat = self.diffs.get((i, j))
        if mat is None:
            lower = self.dim(i - 1, j) if i >= 1 else 0
            mat = SparseMat(lower, self.dim(i, j))
        return mat

    def verify_d_squared(self) -> None:
        for i in range(2, len(self.levels)):
            for j in self.levels[i].degrees():
                d_im1, d_i = self.differential(i - 1, j), self.differential(i, j)
                if d_im1.ncols != d_i.nrows:
                    raise AssertionError("graded shapes are inconsistent")
                if not d_im1.matmul(d_i).is_zero():
                    raise AssertionError(f"d.d != 0 at (i={i}, j={j}) "
                                         f"of {self.graph.serialize()}")

    def verify_equivariance(self) -> None:
        """Assert that every differential commutes with the action of S_N.

        (0 1) and (0 1 .. N-1), the representatives of the cycle types
        (2, 1, .., 1) and (N), generate S_N, and `action_matrix` is a
        homomorphism, so a map commuting with both commutes with every
        permutation.  Both are checked, in sorted order; N = 2 has one and
        N = 1 none.  Per generator g and degree j the levels are swept
        upward, testing A_{i-1} d_{i,j} == d_{i,j} A_i with A_i the matrix
        of g on level i, so each basis is acted on once per generator and
        only the level below's matrix is kept.
        """
        n = self.n_points
        shapes = {(2,) + (1,) * (n - 2), (n,)} if n > 1 else ()
        for g in sorted(class_representative(mu) for mu in shapes):
            for j in self.degrees():
                below = None
                for i, level in enumerate(self.levels):
                    basis = level.bases.get(j)
                    act = basis.action_matrix(g) if basis else None
                    if below is not None and act is not None:
                        mat = self.diffs[(i, j)]
                        if below.matmul(mat) != mat.matmul(act):
                            raise AssertionError(
                                f"differential at (i={i}, j={j}): map is not "
                                f"equivariant under permutation {g} "
                                f"of {self.graph.serialize()}")
                    below = act


@lru_cache(maxsize=256)
def build_complex(graph: VertexWeightedGraph) -> ChainComplex:
    return ChainComplex(graph)
