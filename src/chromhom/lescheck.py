"""Deletion-contraction exact sequences and structural-theorem verifiers.

For an edge e the chain complexes of G\\e, G and G/e fit into a levelwise
short exact sequence: states without e include into C(G), and states with
e project onto C(G/e) under the identity identification of their chain
modules.  The projection carries the sign twist (-1)^(# edges of F after
e), which makes it commute with the differentials for any edge position.
The induced long exact sequence in homology is verified one degree row at
a time, with the connecting map built by an explicit zig-zag.
"""

from dataclasses import dataclass, field
from functools import lru_cache

from ._rat import QQ
from .complexes import ChainComplex, build_complex, per_edge_map
from .graphs import (
    VertexWeightedGraph,
    count_blocks,
    modify_edge,
    state_profile,
)
from .homology import (
    HomologyTable,
    homology_table,
    span_indices,
    span_zero,
)
from .linalg import (
    SparseMat,
    _rref_vectors,
    image_rref,
    kernel_basis,
    rank_forward,
    vec_add,
)
from .partitions import add_one_box, hook_dimension
from .symfunc import multiplicity, s_func, schur_multiply


@lru_cache(maxsize=256)
def cached_table(graph: VertexWeightedGraph) -> HomologyTable:
    return homology_table(build_complex(graph))


@lru_cache(maxsize=128)
def cached_homology_basis(graph: VertexWeightedGraph) -> "HomologyBasis":
    return HomologyBasis(build_complex(graph))


def _push_mask(mask: int, e: int) -> int:
    low = mask & ((1 << e) - 1)
    return low | (mask >> e) << (e + 1)


def _pull_mask(mask: int, e: int) -> int:
    low = mask & ((1 << e) - 1)
    return low | (mask >> (e + 1)) << e


def _twist(mask: int, e: int) -> int:
    above = mask >> (e + 1)
    return -1 if above.bit_count() % 2 else 1


@dataclass
class ChainMap:
    """Per-(i, j) matrices of a chain map between two complexes.

    `shift` is the homological degree shift of the target: the inclusion
    has shift 0, the projection onto the contracted complex has shift 1
    (level i maps to level i - 1).
    """

    source: ChainComplex
    target: ChainComplex
    shift: int
    mats: dict

    def mat(self, i: int, j: int) -> SparseMat:
        m = self.mats.get((i, j))
        if m is None:
            m = SparseMat(self.target.dim(i - self.shift, j), self.source.dim(i, j))
        return m


def build_ses_maps(graph: VertexWeightedGraph, e: int):
    """Inclusion and twisted projection for the edge e.

    Returns (inclusion, projection).  Verifies exactness of
    0 -> C_{i,j}(G\\e) -> C_{i,j}(G) -> C_{i-1,j}(G/e) -> 0 levelwise and
    commutation with the differentials at every bidegree; either failure
    raises.
    """
    if not 0 <= e < graph.m:
        raise ValueError(f"edge index {e} out of range")
    cx = build_complex(graph)
    cx_del = build_complex(modify_edge(graph, e, "delete"))
    cx_con = build_complex(modify_edge(graph, e, "contract"))

    inc_mats: dict = {}
    for i in range(len(cx_del.levels)):
        for j in cx_del.levels[i].degrees():
            src = cx_del.levels[i].bases[j]
            tgt = cx.levels[i].bases[j]
            mat = SparseMat(tgt.dim, src.dim)
            for col, (mask, lab) in enumerate(src.labels):
                row = tgt.index[(_push_mask(mask, e), lab)]
                mat.add_entry(row, col, QQ(1))
            inc_mats[(i, j)] = mat
    inclusion = ChainMap(cx_del, cx, 0, inc_mats)

    proj_mats: dict = {}
    for i in range(1, len(cx.levels)):
        for j in cx.levels[i].degrees():
            src = cx.levels[i].bases[j]
            tgt_basis = cx_con.levels[i - 1].bases.get(j)
            mat = SparseMat(tgt_basis.dim if tgt_basis else 0, src.dim)
            for col, (mask, lab) in enumerate(src.labels):
                if not mask >> e & 1:
                    continue
                pulled = _pull_mask(mask & ~(1 << e), e)
                row = tgt_basis.index[(pulled, lab)]
                mat.add_entry(row, col, QQ(_twist(mask, e)))
            proj_mats[(i, j)] = mat
    projection = ChainMap(cx, cx_con, 1, proj_mats)

    # levelwise exactness by dimension count and rank
    for i in range(len(cx.levels)):
        for j in cx.levels[i].degrees():
            mid = cx.dim(i, j)
            left = cx_del.dim(i, j)
            right = cx_con.dim(i - 1, j) if i >= 1 else 0
            if mid != left + right:
                raise AssertionError(f"dimension count fails at (i={i}, j={j})")
            inc = inclusion.mat(i, j)
            proj = projection.mat(i, j)
            r_inc = rank_forward(inc)
            r_proj = rank_forward(proj)
            if r_inc != left or r_proj != right or r_inc + r_proj != mid:
                raise AssertionError(f"levelwise exactness fails at (i={i}, j={j})")
            if left and right and not proj.matmul(inc).is_zero():
                raise AssertionError(f"projection . inclusion != 0 at (i={i}, j={j})")

    # chain-map commutation
    for i in range(1, len(cx.levels)):
        for j in cx.levels[i].degrees():
            left = cx.differential(i, j).matmul(inclusion.mat(i, j))
            right = inclusion.mat(i - 1, j).matmul(cx_del.differential(i, j))
            if left != right:
                raise AssertionError(f"inclusion does not commute at (i={i}, j={j})")
            left = cx_con.differential(i - 1, j).matmul(projection.mat(i, j))
            right = projection.mat(i - 1, j).matmul(cx.differential(i, j))
            if left != right:
                raise AssertionError(f"projection does not commute at (i={i}, j={j})")
    return inclusion, projection


class HomologyBasis:
    """Cycle representatives and class coordinates for one complex.

    For each bidegree: a reduced image basis B with pivot rows P1, and a
    reduced representative basis R (cycles with zero P1-coordinates) with
    pivot rows P2.  The class of a cycle z has R-coordinates given by
    (z - B . z[P1])[P2].
    """

    def __init__(self, cx: ChainComplex):
        self.cx = cx
        self.data: dict = {}
        for i in range(len(cx.levels)):
            for j in cx.levels[i].degrees():
                dim = cx.dim(i, j)
                if dim == 0:
                    continue
                d_out = cx.differential(i, j)
                kernel = (
                    kernel_basis(d_out)
                    if d_out.nnz()
                    else [{k: QQ(1)} for k in range(dim)]
                )
                d_in = cx.differential(i + 1, j)
                if d_in.nnz():
                    piv1, b_im = image_rref(d_in)
                else:
                    piv1, b_im = [], []
                projected = [self._kill_image(v, piv1, b_im) for v in kernel]
                piv2, reps = _rref_vectors(projected)
                self.data[(i, j)] = (piv1, b_im, piv2, reps)

    @staticmethod
    def _kill_image(vec: dict, piv1, b_im) -> dict:
        out = dict(vec)
        for p, b in zip(piv1, b_im):
            c = out.get(p)
            if c is not None:
                out = vec_add(out, b, -c)
        return out

    def dim(self, i: int, j: int) -> int:
        entry = self.data.get((i, j))
        return len(entry[3]) if entry else 0

    def representatives(self, i: int, j: int) -> list[dict]:
        entry = self.data.get((i, j))
        return list(entry[3]) if entry else []

    def coords(self, i: int, j: int, vec: dict) -> dict:
        """Coordinates of the class of a cycle in the chosen basis."""
        entry = self.data.get((i, j))
        if entry is None:
            if vec:
                raise ValueError("nonzero cycle in a zero homology group")
            return {}
        piv1, b_im, piv2, reps = entry
        reduced = self._kill_image(vec, piv1, b_im)
        out = {}
        for k, p in enumerate(piv2):
            c = reduced.get(p)
            if c is not None:
                out[k] = c
        residual = dict(reduced)
        for k, c in out.items():
            residual = vec_add(residual, reps[k], -c)
        if residual:
            raise ValueError("vector is not a cycle modulo the image")
        return out


def _matrix_from_columns(columns: list[dict], nrows: int) -> SparseMat:
    return SparseMat(nrows, len(columns), [dict(c) for c in columns])


@dataclass
class LESNode:
    part: str  # 'deleted' | 'full' | 'contracted'
    i: int
    j: int
    dim: int
    modules: dict
    rank_in: int
    rank_out: int
    exact: bool

    def to_dict(self) -> dict:
        return {
            "part": self.part,
            "i": self.i,
            "j": self.j,
            "dim": self.dim,
            "modules": sorted(
                [[list(lam), m] for lam, m in self.modules.items()]
            ),
            "rank_in": self.rank_in,
            "rank_out": self.rank_out,
            "exact": self.exact,
        }


@dataclass
class LESReport:
    graph: VertexWeightedGraph
    edge: int
    rows: dict = field(default_factory=dict)  # j -> [LESNode], descending i
    all_exact: bool = True
    snake_consistent: bool = True

    def to_dict(self) -> dict:
        return {
            "graph": self.graph.serialize(),
            "edge": self.edge,
            "all_exact": self.all_exact,
            "snake_consistent": self.snake_consistent,
            "rows": {
                str(j): [node.to_dict() for node in nodes]
                for j, nodes in sorted(self.rows.items())
            },
        }


def verify_les(graph: VertexWeightedGraph, e: int) -> LESReport:
    """Verify the long exact sequence in homology for the edge e.

    Each degree row is built once as the sequence
    ... -> H_i(G/e) -> H_i(G\\e) -> H_i(G) -> H_{i-1}(G/e) -> ..., every
    node paired with its outgoing map.  Induced maps come from cycle
    representatives; the connecting map is the zig-zag: lift a cycle of
    the contracted complex by the transpose of the projection, apply the
    differential, pull back by the transpose of the inclusion (both are
    signed partial permutations, so each transpose is a one-sided
    inverse).  Each map's rank is taken once by `rank_forward`; exactness
    (dim = rank in + rank out, consecutive composites zero) is asserted at
    every node, and the alternating sum of dimensions along every row.
    """
    inclusion, projection = build_ses_maps(graph, e)
    cx, cx_del, cx_con = projection.source, inclusion.source, projection.target
    hb = cached_homology_basis(graph)
    hb_del = cached_homology_basis(cx_del.graph)
    hb_con = cached_homology_basis(cx_con.graph)
    t = cached_table(graph)
    t_del = cached_table(cx_del.graph)
    t_con = cached_table(cx_con.graph)

    m = graph.m
    degrees = sorted(
        set(cx.degrees()) | set(cx_del.degrees()) | set(cx_con.degrees())
    )
    report = LESReport(graph, e)
    pems: dict = {}  # full-graph state mask -> its per-edge map at e

    def induced(chain_map, hb_src, hb_tgt, i, j) -> SparseMat:
        mat = chain_map.mat(i, j)
        i_tgt = i - chain_map.shift
        cols = [
            hb_tgt.coords(i_tgt, j, mat.apply(rep))
            for rep in hb_src.representatives(i, j)
        ]
        return _matrix_from_columns(cols, hb_tgt.dim(i_tgt, j))

    def connecting(i, j) -> SparseMat:
        """Zig-zag map H_{i,j}(G/e) -> H_{i,j}(G\\e)."""
        proj, inc = projection.mat(i + 1, j), inclusion.mat(i, j)
        lift_by, pull_by = proj.transpose(), inc.transpose()
        cols = []
        for rep in hb_con.representatives(i, j):
            lift = lift_by.apply(rep)
            if proj.apply(lift) != rep:
                raise AssertionError("cycle with no room to lift")
            bound = cx.differential(i + 1, j).apply(lift)
            x = pull_by.apply(bound)
            if inc.apply(x) != bound:
                raise AssertionError("boundary of a lift touches e-states")
            if cx_del.differential(i, j).apply(x):
                raise AssertionError("zig-zag output is not a cycle")
            if not _snake_support_check(pems, e, cx, cx_del, cx_con, i, j, rep, x):
                report.snake_consistent = False
            cols.append(hb_del.coords(i, j, x))
        return _matrix_from_columns(cols, hb_del.dim(i, j))

    for j in degrees:
        row = []  # (part, i, homology basis, table, outgoing map)
        for i in range(m, -1, -1):
            row.append(("contracted", i, hb_con, t_con, connecting(i, j)))
            row.append(("deleted", i, hb_del, t_del,
                        induced(inclusion, hb_del, hb, i, j)))
            row.append(("full", i, hb, t,
                        induced(projection, hb, hb_con, i, j)))
        nodes, into = [], None  # `into`: the map into the current node
        for part, i, basis, table, out in row:
            dim = basis.dim(i, j)
            rank_in = nodes[-1].rank_out if nodes else 0
            rank_out = rank_forward(out)
            composite_zero = into is None or out.matmul(into).is_zero()
            exact = dim == rank_in + rank_out and composite_zero
            nodes.append(LESNode(part, i, j, dim, table.multiplicities(i, j),
                                 rank_in, rank_out, exact))
            into = out
        alt = sum((-1) ** k * nd.dim for k, nd in enumerate(nodes))
        report.rows[j] = nodes
        report.all_exact &= alt == 0 and all(nd.exact for nd in nodes)
    if not report.all_exact:
        raise AssertionError("long exact sequence verification failed")
    return report


def _snake_support_check(pems, e, cx, cx_del, cx_con, i, j, rep, x) -> bool:
    """Check the combinatorial description of the connecting map.

    Chainwise the zig-zag sends the component of a cycle at a state S of
    the contracted graph to (a sign times) the per-edge image of that
    component at the state S + e of the full graph, landing on the state S
    viewed in the deleted graph.  Verified per state, up to one overall
    sign per state.  `pems` holds the per-edge maps already computed, by
    full-graph state mask.
    """
    con_basis = cx_con.levels[i].bases[j]
    del_basis = cx_del.levels[i].bases.get(j)
    by_state: dict = {}
    for pos, c in rep.items():
        mask, lab = con_basis.labels[pos]
        by_state.setdefault(mask, {})[lab] = c
    for mask, comp in by_state.items():
        full_mask = _push_mask(mask, e) | 1 << e
        pem = pems.get(full_mask)
        if pem is None:
            pem = pems[full_mask] = per_edge_map(cx.graph, full_mask, e)
        expected: dict = {}
        for lab, c in comp.items():
            for tgt_lab, coeff in pem[lab]:
                if del_basis is None:
                    return False
                key = del_basis.index[(mask, tgt_lab)]
                val = expected.get(key, QQ(0)) + c * coeff
                if val == 0:
                    expected.pop(key, None)
                else:
                    expected[key] = val
        got = {
            k: v
            for k, v in x.items()
            if del_basis.labels[k][0] == mask
        }
        if not expected and not got:
            continue
        if set(expected) != set(got):
            return False
        keys = sorted(expected)
        ratio = got[keys[0]] / expected[keys[0]]
        if ratio not in (QQ(1), QQ(-1)):
            return False
        if any(got[k] != ratio * expected[k] for k in keys):
            return False
    return True


def loop_connecting_iso(graph: VertexWeightedGraph, e: int) -> bool:
    """For a loop, the connecting map is an isomorphism at every bidegree.

    Verified as a rank equality; this is the mechanism that kills the
    homology of a graph with a loop.
    """
    if not graph.is_loop(e):
        raise ValueError("edge is not a loop")
    report = verify_les(graph, e)
    for nodes in report.rows.values():
        for nd in nodes:
            if nd.part == "contracted" and nd.dim:
                if nd.rank_out != nd.dim:
                    return False
    return True


def induction_product_table(t_a: HomologyTable, t_b: HomologyTable) -> dict:
    """Expected homology of a disjoint union from the factor tables.

    {(i, j): {nu: multiplicity}} with induction multiplicities given by
    products of Schur expansions.
    """
    out: dict = {}
    for (p, q), mults_a in t_a.cells.items():
        for (r, s), mults_b in t_b.cells.items():
            key = (p + r, q + s)
            bucket = out.setdefault(key, {})
            for lam, ma in mults_a.items():
                for mu, mb in mults_b.items():
                    prod = schur_multiply(s_func(lam), s_func(mu))
                    for nu, _ in prod.coeffs:
                        c = multiplicity(prod, nu)
                        if c:
                            bucket[nu] = bucket.get(nu, 0) + ma * mb * c
    return {key: val for key, val in out.items() if any(val.values())}


def one_box_table(t: HomologyTable) -> dict:
    """Expected homology after adding an isolated vertex of weight 1."""
    out: dict = {}
    for (i, j), mults in t.cells.items():
        bucket = out.setdefault((i, j), {})
        for lam, m in mults.items():
            for mu in add_one_box(lam):
                bucket[mu] = bucket.get(mu, 0) + m
    return out


def _connected_components(graph: VertexWeightedGraph):
    full = state_profile(graph, (1 << graph.m) - 1)
    comps = []
    for block in full.blocks:
        vset = set(block)
        ids = tuple(graph.ids[v] for v in block)
        weights = tuple(graph.weights[v] for v in block)
        pos = {v: k for k, v in enumerate(block)}
        edges = tuple(
            (pos[u], pos[v])
            for u, v in graph.edges
            if u in vset and v in vset
        )
        comps.append(VertexWeightedGraph(ids, weights, edges))
    return comps


@dataclass
class CheckResult:
    graph: str
    check: str
    status: str  # PASS | FAIL | SKIPPED
    detail: str = ""


@dataclass
class StructureReport:
    results: list = field(default_factory=list)
    c6_findings: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.status != "FAIL" for r in self.results)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "results": [vars(r) for r in self.results],
            "c6": list(self.c6_findings),
        }


def verify_structure_theorems(corpus, raise_on_failure: bool = True) -> StructureReport:
    """Run every applicable structural check over a list of graphs.

    Loop implies zero homology; removing one of two parallel edges keeps
    the table; disjoint unions factor through induction products; adding a
    weight-1 isolated vertex adds one box to every label; the top nonzero
    index per degree is at most n-1 (and at most n-2 in degree 0 when
    there is an edge); nonzero indices per degree are contiguous.  The
    conjectured lower bound (n - blocks <= degree-0 span) is only
    recorded, never asserted.
    """
    report = StructureReport()

    def add(graph, check, status, detail=""):
        report.results.append(
            CheckResult(graph.serialize(), check, status, detail)
        )

    for graph in corpus:
        table = cached_table(graph)
        name = graph.serialize()

        if graph.has_loop():
            status = "PASS" if not table.cells else "FAIL"
            add(graph, "loop-kills-homology", status)
        else:
            add(graph, "loop-kills-homology", "SKIPPED", "no loop")

        pairs = graph.parallel_pairs()
        if pairs and not graph.has_loop():
            ok = all(
                cached_table(modify_edge(graph, e2, "delete")) == table
                for _, e2 in pairs
            )
            add(graph, "parallel-edge-invariance", "PASS" if ok else "FAIL")
        elif pairs:
            add(graph, "parallel-edge-invariance", "SKIPPED", "loop present")
        else:
            add(graph, "parallel-edge-invariance", "SKIPPED", "no parallel edges")

        comps = _connected_components(graph)
        if len(comps) >= 2:
            acc_cells = cached_table(comps[0]).cells
            acc_n = comps[0].total_weight
            for comp in comps[1:]:
                acc_cells = induction_product_table(
                    _table_from_cells(acc_n, acc_cells), cached_table(comp)
                )
                acc_n += comp.total_weight
            ok = acc_cells == table.cells
            add(graph, "disjoint-union-product", "PASS" if ok else "FAIL")
        else:
            add(graph, "disjoint-union-product", "SKIPPED", "connected")

        isolated = [
            v for v in range(graph.n)
            if all(v not in edge for edge in graph.edges)
        ]
        unit_isolated = [v for v in isolated if graph.weights[v] == 1]
        if unit_isolated and graph.n >= 2:
            v = unit_isolated[0]
            rest = _remove_vertex(graph, v)
            expected = one_box_table(cached_table(rest))
            ok = expected == table.cells
            add(graph, "isolated-vertex-one-box", "PASS" if ok else "FAIL")
        else:
            add(graph, "isolated-vertex-one-box", "SKIPPED",
                "no weight-1 isolated vertex")

        ok_bounds = True
        ok_contig = True
        degrees = sorted({j for (_, j) in table.cells})
        for j in degrees:
            span = span_indices(table, j)
            if span is None:
                continue
            k_min, k_max = span
            if k_max > graph.n - 1:
                ok_bounds = False
            if j == 0 and graph.m >= 1 and not graph.has_loop():
                if k_max > graph.n - 2:
                    ok_bounds = False
            for i in range(k_min, k_max + 1):
                if (i, j) not in table.cells:
                    ok_contig = False
        if not graph.has_loop():
            if (0, 0) not in table.cells:
                ok_bounds = False  # degree-0 homology must start at 0
        add(graph, "kmax-bounds", "PASS" if ok_bounds else "FAIL")
        add(graph, "contiguity", "PASS" if ok_contig else "FAIL")

        if not graph.has_loop() and len(comps) == 1:
            b = count_blocks(graph)
            s0 = span_zero(table)
            report.c6_findings.append(
                {
                    "graph": name,
                    "vertices": graph.n,
                    "blocks": b,
                    "span0": s0,
                    "lower_bound_holds": (s0 is not None and graph.n - b <= s0),
                }
            )

    if raise_on_failure and not report.ok:
        failures = [r for r in report.results if r.status == "FAIL"]
        raise AssertionError(f"structure checks failed: {failures}")
    return report


def _table_from_cells(n_points: int, cells: dict) -> HomologyTable:
    betti = {
        key: sum(hook_dimension(lam) * m for lam, m in val.items())
        for key, val in cells.items()
    }
    return HomologyTable(n_points, cells, betti)


def _remove_vertex(graph: VertexWeightedGraph, v: int) -> VertexWeightedGraph:
    ids = tuple(i for k, i in enumerate(graph.ids) if k != v)
    weights = tuple(w for k, w in enumerate(graph.weights) if k != v)

    def remap(x: int) -> int:
        return x - 1 if x > v else x

    edges = tuple((remap(a), remap(b)) for a, b in graph.edges)
    return VertexWeightedGraph(ids, weights, edges)


def solve_quotient_from_row(nodes: list) -> dict:
    """Solve a verified exact row for the contracted-graph nodes.

    Inputs are the row's nodes (descending order as produced by
    verify_les); the deleted/full modules are treated as known.  Unknown
    dimensions are forced by exactness (rank in + rank out); multiset
    content by per-irreducible alternating sums once every other unknown
    in the row is pinned (dimension-zero nodes pin themselves).
    Returns {i: multiplicities} for the contracted nodes.
    """
    unknown = {}
    for k, nd in enumerate(nodes):
        if nd.part == "contracted":
            unknown[k] = (nd.i, nd.rank_in + nd.rank_out)
    solved: dict = {k: {} for k, (_, dim) in unknown.items() if dim == 0}
    remaining = [k for k in unknown if k not in solved]
    if len(remaining) > 1:
        raise ValueError("row has more than one undetermined node")
    if remaining:
        k0 = remaining[0]
        sign = (-1) ** k0
        all_labels = {lam for nd in nodes for lam in nd.modules}
        mults: dict = {}
        for lam in all_labels:
            total = 0
            for k, nd in enumerate(nodes):
                if k == k0:
                    continue
                m = (
                    solved.get(k, {}).get(lam, 0)
                    if nd.part == "contracted"
                    else nd.modules.get(lam, 0)
                )
                total += (-1) ** k * m
            value = -sign * total
            if value < 0:
                raise ValueError("row cannot be solved consistently")
            if value:
                mults[lam] = value
        dim_check = sum(hook_dimension(lam) * m for lam, m in mults.items())
        if dim_check != unknown[k0][1]:
            raise ValueError("solved node contradicts its forced dimension")
        solved[k0] = mults
    return {unknown[k][0]: v for k, v in solved.items()}
