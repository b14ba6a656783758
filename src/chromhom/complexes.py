"""Assembly of the bigraded chain complex of a vertex-weighted graph.

Level i is the direct sum of the chain spaces of all states with i edges;
the differential is the signed sum of per-edge maps over the cover
relations of the state lattice.  Everything is exact; d . d = 0 is
asserted on construction, as is equivariance under the adjacent
transpositions.
"""

from functools import lru_cache

from ._rat import QQ
from .graphs import (
    State,
    VertexWeightedGraph,
    level_masks,
    removal_sign,
    state_profile,
)
from .linalg import SparseMat
from .repn import (
    LabelBasis,
    act_on_label,
    chain_space,
    check_equivariance,
    split_projection,
)


def _act_level(perm, keyed_label):
    mask, label = keyed_label
    return {
        (mask, tgt): c for tgt, c in act_on_label(perm, label).items()
    }


class ChainLevel:
    """All states with a fixed number of edges, with per-degree bases."""

    def __init__(self, graph: VertexWeightedGraph, i: int):
        self.i = i
        self.states: list[State] = []
        labels_by_j: dict[int, list] = {}
        for mask in level_masks(graph.m, i):
            st = state_profile(graph, mask)
            sp = chain_space(st)
            self.states.append(st)
            for j, basis in sp.bases.items():
                bucket = labels_by_j.setdefault(j, [])
                bucket.extend((mask, lab) for lab in basis.labels)
        self.bases: dict[int, LabelBasis] = {
            j: LabelBasis(labels, _act_level)
            for j, labels in sorted(labels_by_j.items())
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
    degree preserved.  When removing e keeps the components intact the map
    is the identity on labels; when a component splits, each source label
    maps to the signed projections over all point splits of the affected
    block, identity on the other tensor slots.
    """
    if not mask >> e & 1:
        raise ValueError("edge must belong to the state")
    src = state_profile(graph, mask)
    tgt = state_profile(graph, mask & ~(1 << e))
    src_space = chain_space(src)
    if src.blocks == tgt.blocks:
        return {
            lab: [(lab, QQ(1))]
            for basis in src_space.bases.values()
            for lab in basis.labels
        }
    # identify the split slot and the two target components it produces
    split_slot = None
    for t, blk in enumerate(src.blocks):
        if blk not in tgt.blocks:
            split_slot = t
            break
    pieces = [s for s, blk in enumerate(tgt.blocks)
              if set(blk) <= set(src.blocks[split_slot])]
    slot_a, slot_b = pieces
    weight_a = tgt.block_weights[slot_a]
    # target slot s draws from: source slot ("copy", t), or the split parts
    plan = []
    src_slot_of_block = {blk: t for t, blk in enumerate(src.blocks)}
    for s, blk in enumerate(tgt.blocks):
        if s == slot_a:
            plan.append(("A", None))
        elif s == slot_b:
            plan.append(("B", None))
        else:
            plan.append(("copy", src_slot_of_block[blk]))

    from itertools import combinations

    # Basis elements are global wedge words read slot by slot, so moving
    # the slot words into the target component order costs the Koszul sign
    # of the shuffle: a transposition of two odd-degree words flips the
    # sign.  Source order keys: slot t, with the split slot expanded into
    # (A then B) in place.
    source_keys = []
    for kind, t in plan:
        if kind == "copy":
            source_keys.append((t, 0))
        elif kind == "A":
            source_keys.append((split_slot, 0))
        else:
            source_keys.append((split_slot, 1))

    def reorder_sign(degrees: list[int]) -> int:
        sign = 1
        for p in range(len(degrees)):
            for q in range(p + 1, len(degrees)):
                if (
                    source_keys[p] > source_keys[q]
                    and degrees[p] % 2
                    and degrees[q] % 2
                ):
                    sign = -sign
        return sign

    out: dict = {}
    for basis in src_space.bases.values():
        for lab in basis.labels:
            blocks, subs = lab
            D = blocks[split_slot]
            S = subs[split_slot]
            images = []
            for part_a in combinations(D, weight_a):
                part_b = tuple(x for x in D if x not in set(part_a))
                proj = split_projection(D, S, part_a, part_b)
                for (sub_a, sub_b), coeff in proj.items():
                    tgt_blocks = []
                    tgt_subs = []
                    degrees = []
                    for kind, t in plan:
                        if kind == "copy":
                            tgt_blocks.append(blocks[t])
                            tgt_subs.append(subs[t])
                            degrees.append(len(subs[t]))
                        elif kind == "A":
                            tgt_blocks.append(part_a)
                            tgt_subs.append(sub_a)
                            degrees.append(len(sub_a))
                        else:
                            tgt_blocks.append(part_b)
                            tgt_subs.append(sub_b)
                            degrees.append(len(sub_b))
                    images.append(
                        (
                            (tuple(tgt_blocks), tuple(tgt_subs)),
                            reorder_sign(degrees) * coeff,
                        )
                    )
            out[lab] = images
    return out


class ChainComplex:
    """The full bigraded complex with exact differentials."""

    def __init__(self, graph: VertexWeightedGraph):
        self.graph = graph
        self.n_points = graph.total_weight
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
        for st in upper.states:
            mask = st.mask
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
                d_i = self.differential(i, j)
                d_im1 = self.differential(i - 1, j)
                if d_im1.ncols != d_i.nrows:
                    raise AssertionError("graded shapes are inconsistent")
                if not d_im1.matmul(d_i).is_zero():
                    raise AssertionError(f"d.d != 0 at (i={i}, j={j})")

    def verify_equivariance(self) -> None:
        for (i, j), mat in self.diffs.items():
            upper = self.levels[i].bases[j]
            lower = self.levels[i - 1].bases.get(j)
            if lower is None:
                if mat.nrows:
                    raise AssertionError("matrix with empty codomain")
                continue
            try:
                check_equivariance(mat, upper, lower, self.n_points)
            except AssertionError as exc:
                raise AssertionError(
                    f"differential at (i={i}, j={j}): {exc}"
                ) from None

    def dump_matrix_lines(self, i: int, j: int) -> list[str]:
        return self.differential(i, j).dump_lines()


@lru_cache(maxsize=256)
def build_complex(graph: VertexWeightedGraph) -> ChainComplex:
    return ChainComplex(graph)
