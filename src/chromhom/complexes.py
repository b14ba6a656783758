"""Assembly of the bigraded chain complex of a vertex-weighted graph.

Level i is the direct sum of the chain modules of all states with i edges;
`ChainLevel` is the one description of its basis, by state offsets and
shapes.  A state's run of degree j is its shape's block tuples times its
degree-j subset patterns (`repn.chain_dims`), so a level is laid out
without enumerating a label.  The differential is the signed sum of
per-edge maps over the cover relations of the state lattice; removing one
edge splits at most one block, so each per-edge map moves one slot.  A
per-edge map depends only on the source shape and on how the edge splits
it, so it is the shape-keyed `repn.edge_kernel` of positions, built from
one table per (tuple, split) and one per (pattern, split).  Every map
between two levels, the differentials here and the SES and connecting
maps of `lescheck`, is written by `block_matrix`: one kernel per pair of
states, placed at their offsets, with no label looked up.
Everything is exact, in one arithmetic layer: a split into parts of sizes
a + b <= N has `int` coefficients over lcm(a, b), which divides
D_N = lcm(1, .., N - 1), so each differential is an `int` matrix, D_N
times the map over Q.
d . d = 0 and equivariance are asserted on construction, on the stored
matrices; `verify_equivariance` is the one equivariance gate.  The action
of a permutation is block diagonal, one block per state, and a block
depends only on the state's shape, so each level's action matrix is read
off the shape-keyed `repn.shape_action` pattern maps at the state
offsets; they act once per relative order of a block tuple and pattern,
not per label.  The caller holds each complex it builds; nothing memoises one.
"""

from math import lcm

from .graphs import VertexWeightedGraph, level_masks, removal_sign, state_profile
from .linalg import SparseMat
from .repn import chain_dims, class_representative, edge_kernel, shape_action, subset_patterns


class ChainLevel:
    """All states with a fixed number of edges, with per-degree bases.

    The degree-j basis is each state's run of block tuples times subset
    patterns of its shape (`repn.chain_dims`), in mask order, from
    `offsets[j][mask]` on; `dims[j]` is its size."""

    def __init__(self, graph: VertexWeightedGraph, i: int):
        self.masks = level_masks(graph.m, i)
        self.offsets: dict[int, dict[int, int]] = {}
        self.shapes: dict[int, tuple[int, ...]] = {}
        self.dims: dict[int, int] = {}
        for mask in self.masks:
            shape = self.shapes[mask] = state_profile(graph, mask).block_weights
            for j, dim in chain_dims(shape).items():
                self.offsets.setdefault(j, {})[mask] = self.dims.get(j, 0)
                self.dims[j] = self.dims.get(j, 0) + dim

    def dim(self, j: int) -> int:
        return self.dims.get(j, 0)

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def degrees(self):
        return sorted(self.dims)

    def runs(self, j: int) -> list:
        """(offset, shape) of each state's run of the degree-j basis."""
        return [(start, self.shapes[mask])
                for mask, start in self.offsets.get(j, {}).items()]

    def action_matrix(self, perm: tuple[int, ...], j: int) -> SparseMat:
        """The matrix of `perm` on the degree-j basis, per state in mask
        order from its offset: tuple t's patterns map to tuple u = images[t]'s,
        at u * per_j plus each image pattern of t's relative order
        (`repn.ShapeAction`)."""
        cols = []
        for mask, start in self.offsets[j].items():
            shape = self.shapes[mask]
            act, per = shape_action(shape, perm), len(subset_patterns(shape)[j])
            for u, o in zip(act.images, act.orders):
                base = start + u * per
                cols.extend({base + s: c for s, c in image.items()}
                            for image in act.patterns(o, j))
        return SparseMat(len(cols), len(cols), cols)


def block_matrix(src: ChainLevel, tgt: ChainLevel, j: int, blocks) -> SparseMat:
    """The degree-j map from `src` to `tgt`, block by block: `blocks(mask)`
    yields (target mask, kernel, sign) for each block of source state
    `mask`, and sign times the kernel lands at the two states' offsets.  A
    kernel is CSR (indptr, rows, coeffs), position p to its rows, or None
    for the identity of one shape; a target with no degree-j run takes
    only kernels with no entries."""
    mat = SparseMat(tgt.dim(j), src.dim(j))
    row_offsets = tgt.offsets.get(j, {})
    for mask, col0 in src.offsets.get(j, {}).items():
        for tgt_mask, csr, sign in blocks(mask):
            row0 = row_offsets.get(tgt_mask)
            if csr is None:
                for p in range(chain_dims(src.shapes[mask])[j]):
                    mat.add_entry(row0 + p, col0 + p, sign)
                continue
            indptr, rows, coeffs = csr
            for p, (lo, hi) in enumerate(zip(indptr, indptr[1:]), col0):
                for r, c in zip(rows[lo:hi], coeffs[lo:hi]):
                    mat.add_entry(row0 + r, p, sign * c)
    return mat


def per_edge_map(graph: VertexWeightedGraph, mask: int, e: int) -> dict:
    """Per-edge component of the differential at state `mask`, edge e: the
    `edge_kernel` of the state's shape and split signature, CSR positions
    per degree, memoised once per signature.

    When removing e keeps the components intact the map is the identity.
    Otherwise source block k splits into parts A and B.  Blocks are
    ordered by their smallest vertex, so A keeps slot k and B lands at
    some slot b > k, after the source blocks k+1 .. b-1.
    """
    if not mask >> e & 1:
        raise ValueError("edge must belong to the state")
    src = state_profile(graph, mask)
    tgt = state_profile(graph, mask & ~(1 << e))
    shape, n_points = src.block_weights, graph.total_weight
    if src.blocks == tgt.blocks:
        return edge_kernel(shape, None, None, None, n_points)
    k = next(t for t, blk in enumerate(src.blocks) if blk != tgt.blocks[t])
    b = next(t for t in range(k + 1, len(tgt.blocks))
             if tgt.blocks[t][0] in src.blocks[k])
    return edge_kernel(shape, k, b, tgt.block_weights[k], n_points)


class ChainComplex:
    """The full bigraded complex; `diffs` holds `int` matrices over
    `denominator` D_N = lcm(1, .., N - 1), held by its caller, memoised by none."""

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
        """d_{i,j}: per state and edge, the per-edge map as a block at the
        states' offsets, signed by `removal_sign`."""
        upper, m = self.levels[i], self.graph.m
        edges = {mask: [(mask & ~(1 << e), per_edge_map(self.graph, mask, e),
                         removal_sign(mask, e)) for e in range(m) if mask >> e & 1]
                 for mask in upper.masks}
        for j in upper.degrees():
            self.diffs[(i, j)] = block_matrix(
                upper, self.levels[i - 1], j,
                lambda mask: ((tgt, pem[j], sign) for tgt, pem, sign in edges[mask]))

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
        (2, 1, .., 1) and (N), generate S_N, and the action is a
        homomorphism, so a map commuting with both commutes with every
        permutation.  Both are checked, in sorted order; N = 2 has one and
        N = 1 none.  Per generator g and degree j the levels are swept
        upward, testing A_{i-1} d_{i,j} == d_{i,j} A_i on the stored
        differentials, with A_i the matrix of g on level i
        (`ChainLevel.action_matrix`), so only the level below's matrix is
        kept, and each shape is acted on once per generator, relative order
        and pattern, in any number of complexes.
        """
        n = self.n_points
        shapes = {(2,) + (1,) * (n - 2), (n,)} if n > 1 else ()
        for g in sorted(class_representative(mu) for mu in shapes):
            for j in self.degrees():
                below = None
                for i, level in enumerate(self.levels):
                    act = level.action_matrix(g, j) if j in level.dims else None
                    if below is not None and act is not None:
                        mat = self.diffs[(i, j)]
                        if below.matmul(mat) != mat.matmul(act):
                            raise AssertionError(
                                f"differential at (i={i}, j={j}): map is not "
                                f"equivariant under permutation {g} "
                                f"of {self.graph.serialize()}")
                    below = act
