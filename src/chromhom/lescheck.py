"""Deletion-contraction exact sequences and structural-theorem verifiers.

For an edge e the chain complexes of G\\e, G and G/e fit into a levelwise
short exact sequence: the inclusion I sends states without e into C(G),
and the projection P sends states with e onto C(G/e).  A state and its
image have the same shape, so each map is one identity block per state
(`complexes.block_matrix`).  P carries the sign twist
(-1)^(# edges of F after e), which makes it commute with the differentials
for any edge position.  I and P are signed partial permutations with
complementary supports, so S = [I | P^T] is a signed permutation and the
sequence splits: C(G) is the mapping cone of the connecting map Z, one
`int` matrix per bidegree, Z_i = (-1)^i E_i with E_i the per-edge maps at
e, one block per state of G/e.  `verify_les` asserts the cone once, as
three whole-matrix identities in S and Z, which prove Z D_N times the
zig-zag over Q.  G, G\\e and G/e have one total weight N, so every
identity uses their differentials as stored, `int` matrices over one D_N
(`complexes`).  The long exact sequence in homology is then verified one
degree row at a time.  Each map rank in homology is read off the map's
mapping cone with no elimination: the cone identity gives the cone's rank
from the chain dimensions and the exact ranks of d that the three
homology tables keep (`HomologyTable.ranks`), and two more such ranks are
subtracted, so every rank is the rank over Q and none sees the scale.
Each row is also an exact sequence of S_N-modules, so along it every
irreducible's alternating multiplicity sum (`row_sums`) is 0: `verify_les`
checks it, and `solve_quotient_from_row` solves an unknown node with it.
The reports and their entries are `NamedTuple`s.
"""

from functools import lru_cache
from typing import NamedTuple

from .complexes import ChainComplex, block_matrix, per_edge_map
from .graphs import (VertexWeightedGraph, count_blocks, induced_subgraph, modify_edge,
                     state_profile)
from .homology import HomologyTable, homology_table, span_indices, span_zero
from .linalg import SparseMat, kernel_basis
from .partitions import add_one_box, hook_dimension


@lru_cache(maxsize=256)
def cached_table(graph: VertexWeightedGraph) -> HomologyTable:
    """The one whole-result memo: a miss builds the complex and drops it.
    Read by `verify_structure_theorems` and `cli` verify, scan-c6, selftest."""
    return homology_table(ChainComplex(graph))


def _push_mask(mask: int, e: int) -> int:
    low = mask & ((1 << e) - 1)
    return low | (mask >> e) << (e + 1)


def _pull_mask(mask: int, e: int) -> int:
    low = mask & ((1 << e) - 1)
    return low | (mask >> (e + 1)) << e


def _twist(mask: int, e: int) -> int:
    above = mask >> (e + 1)
    return -1 if above.bit_count() % 2 else 1


def _sum(a: SparseMat, b: SparseMat) -> SparseMat:
    """a + b, in a new matrix."""
    if (a.nrows, a.ncols) != (b.nrows, b.ncols):
        raise ValueError("shape mismatch")
    out = SparseMat(a.nrows, a.ncols, [dict(col) for col in a.cols])
    for c, col in enumerate(b.cols):
        for r, v in col.items():
            out.add_entry(r, c, v)
    return out


def _is_identity(mat: SparseMat) -> bool:
    return mat.nrows == mat.ncols and all(col == {c: 1} for c, col in enumerate(mat.cols))


class ChainMap:
    """Per-(i, j) matrices of a map between two complexes: I, P or Z.

    `shift` is the homological degree shift of the target: the inclusion
    and the connecting map have shift 0, the projection onto the contracted
    complex has shift 1 (level i maps to level i - 1).
    """

    def __init__(self, source: ChainComplex, target: ChainComplex, shift: int,
                 mats: dict):
        self.source, self.target, self.shift, self.mats = source, target, shift, mats

    def mat(self, i: int, j: int) -> SparseMat:
        m = self.mats.get((i, j))
        if m is None:
            m = SparseMat(self.target.dim(i - self.shift, j), self.source.dim(i, j))
        return m


def build_ses_maps(graph: VertexWeightedGraph, e: int):
    """Inclusion and twisted projection for the edge e, between the
    complexes of G\\e, G and G/e that it builds.

    Returns (inclusion, projection), with `int` entries; `verify_les`
    checks them.  An edge out of range raises `ValueError`.

    Each map is one identity block per state (`complexes.block_matrix`),
    with no label read: a state of G\\e is one of G with the same blocks,
    and a state of G with e contracts to one of G/e of the same shape, as
    the dropped endpoint of e shares a block with the kept one, so it is
    never a block's minimum and the blocks keep their order.
    """
    if not 0 <= e < graph.m:
        raise ValueError(f"edge index {e} out of range")
    cx = ChainComplex(graph)
    cx_del = ChainComplex(modify_edge(graph, e, "delete"))
    cx_con = ChainComplex(modify_edge(graph, e, "contract"))

    inclusion = ChainMap(cx_del, cx, 0, {
        (i, j): block_matrix(level, cx.levels[i], j,
                             lambda mask: [(_push_mask(mask, e), None, 1)])
        for i, level in enumerate(cx_del.levels) for j in level.degrees()})

    def pulled(mask):  # states without e map to 0
        if mask >> e & 1:
            return [(_pull_mask(mask & ~(1 << e), e), None, _twist(mask, e))]
        return []

    projection = ChainMap(cx, cx_con, 1, {
        (i, j): block_matrix(level, cx_con.levels[i - 1], j, pulled)
        for i, level in enumerate(cx.levels[1:], 1) for j in level.degrees()})
    return inclusion, projection


class HomologyBasis(dict):
    """Cycle bases mod the prime p, keyed (i, j): the reduced basis of
    ker d_{i,j} mod p (`linalg.kernel_basis`).  No engine path builds it:
    `verify_les` reads every map rank off the three tables' exact ranks."""

    def __init__(self, cx: ChainComplex, p: int):
        super().__init__(((i, j), kernel_basis(cx.differential(i, j), p))
                         for i, level in enumerate(cx.levels) for j in level.degrees())


class LESNode(NamedTuple):
    part: str  # 'deleted' | 'full' | 'contracted'
    i: int
    j: int
    dim: int
    modules: dict
    rank_in: int
    rank_out: int

    def to_dict(self) -> dict:
        return {**self._asdict(), "exact": True,  # verify_les raises on an inexact node
                "modules": sorted([list(lam), m] for lam, m in self.modules.items())}


class LESReport(NamedTuple):
    graph: VertexWeightedGraph
    edge: int
    rows: dict  # j -> [LESNode], descending i

    def to_dict(self) -> dict:
        return {
            "graph": self.graph.serialize(),
            "edge": self.edge,
            "all_exact": True,  # verify_les raises on any failed check
            # a constant too, as no separate snake comparison runs; kept
            # because the `les` outputs are pinned byte for byte
            "snake_consistent": True,
            "rows": {
                str(j): [node.to_dict() for node in nodes]
                for j, nodes in sorted(self.rows.items())
            },
        }


def verify_les(graph: VertexWeightedGraph, e: int) -> LESReport:
    """Verify the long exact sequence in homology for the edge e.

    Each degree row ... -> H_i(G/e) -> H_i(G\\e) -> H_i(G) -> H_{i-1}(G/e)
    -> ... is read off the exact ranks of d that the tables of the three
    complexes it holds keep (`HomologyTable.ranks`), with no basis of
    cycles or of homology classes.  Node dimensions and modules are the
    tables' Betti numbers and cells.  A node's map f: A -> B, Z or I from
    level i to level k = i, or P to k = i - 1, has rank in homology
    rank f_* = rank M - rank d^A_i - rank d^B_{k+1}, with M the cone matrix
    [[d^A_i, 0], [f_i, d^B_{k+1}]]: M(a, b) = (d a, f a + d b), so im M lies
    over im d^A_i with fibre f(ker d^A_i) + im d^B_{k+1} (Weibel 1.5).  No
    node eliminates M: the identities below give rank M from the chain
    dimensions and the exact ranks that the tables keep.  A node of
    dimension 0, or one whose map goes to level -1, has rank out 0.

    The maps themselves are checked first, exactly, as whole matrices per
    bidegree, in node order and before any table.
    With d = d_G, S_i = [I_i | P_i^T] and the connecting matrix
    Z_i = (-1)^i E_i, E the per-edge maps at e, one block per state S of G/e
    from S in G/e to S in G\\e (`complexes.block_matrix`, each map read
    once per state), row j asserts for i = m .. 0

      * at (contracted, i, j), Inclusion: d_{i+1} I_{i+1} = I_i d_{G\\e,i+1};
      * at (contracted, i, j), Lift: d_{i+1} P_{i+1}^T = I_i Z_i + P_i^T d_{G/e,i};
      * at (full, i, j), Split: S_i is square and S_i^T S_i = Id.

    Together they say d S_{i+1} = S_i M_i, M_i = [[d_{G\\e,i+1}, Z_i],
    [0, d_{G/e,i}]], with S orthogonal, so S_i^T d = M_i S_{i+1}^T: C(G) is
    the mapping cone of Z.  Every other identity follows:

      * Split is I^T I = Id, P P^T = Id (every cycle lifts) and P I = 0, and,
        S_i being square, S_i S_i^T = I I^T + P^T P = Id;
      * P commutes, P_i d = d_{G/e,i} P_{i+1}: the lower row of
        S_i^T d = M_i S_{i+1}^T;
      * Certificate, I_i^T d = d_{G\\e,i+1} I_{i+1}^T + Z_i P_{i+1}: its
        upper row;
      * the zig-zag, Z_i = I_i^T d P_{i+1}^T: Lift times I_i^T.  So Z is
        D_N times the zig-zag over Q.  Its sign: I^T keeps only the removal
        of e from S + e, at `removal_sign`, and P^T carries `_twist`; their
        product is (-1)^(edges of S + e other than e) = (-1)^i;
      * Chain, d_{G\\e,i+1} Z_{i+1} = -Z_i d_{G/e,i+1}: the upper right
        block of M_i M_{i+1} = S_i^T d d S_{i+2} = 0, with the d d = 0 that
        `ChainComplex` asserts.  The zig-zag of a cycle is a cycle.

    Rank M at every node follows too, with r_X(i) = rank d_{X,i}, the exact
    rank that the table of X keeps, and dim_X(i) = dim C_{i,j}(X):

      * Z at (contracted, i): rank M = r_G(i + 1).  M = [[d_{G/e,i}, 0],
        [Z_i, d_{G\\e,i+1}]] is M_i = S_i^T d_{i+1} S_{i+1} with its two row
        blocks and its two column blocks swapped;
      * I at (deleted, i): rank M = dim_{G\\e}(i) + r_{G/e}(i).  Times S_i^T
        on the rows of C_i(G) and S_{i+1} on the columns of C_{i+1}(G), the
        I columns carry an identity on C_i(G\\e).  Eliminating it, with
        d_{G\\e} d_{G\\e} = 0, leaves [d_{G\\e,i} Z_i ; d_{G/e,i}], whose top
        rows are -Z_{i-1} d_{G/e,i} by Chain;
      * P at (full, i >= 1): rank M = dim_{G/e}(i - 1) + r_{G\\e}(i).  Times
        S_{i-1}^T and S_i on the blocks of C(G), P_i S_i = [0 | Id].
        Eliminating that identity, with d_{G/e} d_{G/e} = 0, leaves
        [d_{G\\e,i} | -Z_{i-1} d_{G/e,i}] = [d_{G\\e,i} | d_{G\\e,i} Z_i] by
        Chain.

    Every rank read is exact, so the rows hold the ranks over Q.

    On a cycle z of G/e the boundary of its lift is I Z z, so
    I_* . delta = 0; on a full cycle w, delta(P w) = -d_{G\\e}(I^T w), so
    delta . P_* = 0.  Exactness, dim = r_in + r_out, is asserted at every
    node; a failure names the graph, the edge and the node.  With the ranks
    above it is rank-nullity, so it checks each table's Betti numbers
    against its ranks.  The first node has r_in = 0, each r_in is the r_out
    before it, and the last node, (full, i=0), maps to level -1, which has
    no cycles, so r_out = 0 there and the alternating sum of dimensions
    telescopes to 0.  The sums per irreducible do not: I, P and Z commute
    with S_N, so an exact row splits into one exact row of multiplicity
    spaces per irreducible lam, and after a row's node sums every
    alternating sum of `row_sums` must be 0.  That check sees a node module
    that is wrong at the right dimension, such as an irreducible swapped
    for its conjugate, and names the graph, the edge, the row and lam.
    Every check raises at once.
    """
    inclusion, projection = build_ses_maps(graph, e)
    cx, cx_del, cx_con = projection.source, inclusion.source, projection.target
    parts = {"contracted": cx_con, "deleted": cx_del, "full": cx}
    m = graph.m
    degrees = sorted({j for c in (cx, cx_del, cx_con) for j in c.degrees()})
    where = f"LES of {graph.serialize()} edge {e}"

    edge_maps = {mask: per_edge_map(graph, _push_mask(mask, e) | 1 << e, e)
                 for level in cx_con.levels for mask in level.masks}  # once per state
    connecting = ChainMap(cx_con, cx_del, 0, {  # Z_i = (-1)^i E_i, G/e to G\e
        (i, j): block_matrix(level, cx_del.levels[i], j,
                             lambda mask: [(mask, edge_maps[mask][j], (-1) ** i)])
        for i, level in enumerate(cx_con.levels) for j in level.degrees()})

    for j in degrees:  # the exact pass: d S = S [[d_{G\e}, Z], [0, d_{G/e}]]
        for i in range(m, -1, -1):
            node = f"{where} at (contracted, i={i}, j={j}): "
            d, inc = cx.differential(i + 1, j), inclusion.mat(i, j)
            lift, lift_below = (projection.mat(k, j).transpose() for k in (i + 1, i))
            if d.matmul(inclusion.mat(i + 1, j)) != inc.matmul(cx_del.differential(i + 1, j)):
                raise AssertionError(node + "inclusion does not commute")
            if d.matmul(lift) != _sum(inc.matmul(connecting.mat(i, j)),
                                      lift_below.matmul(cx_con.differential(i, j))):
                raise AssertionError(node + "boundary of a lift touches e-states")
            split = SparseMat(inc.nrows, inc.ncols + lift_below.ncols,
                              inc.cols + lift_below.cols)
            if split.nrows != split.ncols or not _is_identity(split.transpose().matmul(split)):
                raise AssertionError(f"{where} at (full, i={i}, j={j}): "
                                     "levelwise exactness fails")

    tables = {part: homology_table(c) for part, c in parts.items()}

    def rank(part, i, j):
        return tables[part].ranks.get((i, j), 0)

    rows = {}
    for j in degrees:
        nodes = []
        for i in range(m, -1, -1):
            for part, target, k, cone in (  # A, B and k of f_i: A_i -> B_k, rank M
                    ("contracted", "deleted", i, rank("full", i + 1, j)),
                    ("deleted", "full", i, cx_del.dim(i, j) + rank("contracted", i, j)),
                    ("full", "contracted", i - 1, cx_con.dim(i - 1, j) + rank("deleted", i, j))):
                table = tables[part]
                dim = table.betti.get((i, j), 0)
                rank_in = nodes[-1].rank_out if nodes else 0
                rank_out = 0
                if dim and k >= 0:
                    rank_out = cone - rank(part, i, j) - rank(target, k + 1, j)
                if dim != rank_in + rank_out:
                    raise AssertionError(f"{where} at ({part}, i={i}, j={j}): dim {dim} "
                                         f"is not rank in {rank_in} + rank out {rank_out}")
                nodes.append(LESNode(part, i, j, dim, table.multiplicities(i, j),
                                     rank_in, rank_out))
        if sums := row_sums(nodes):
            lam, total = next(iter(sums.items()))
            raise AssertionError(f"{where} at row j={j}: the multiplicities of {lam} "
                                 f"sum to {total} along the row, not 0")
        rows[j] = nodes
    return LESReport(graph, e, rows)


def induction_product_table(cells_a: dict, cells_b: dict) -> dict:
    """Expected homology of a disjoint union from the factors' table cells.

    {(i, j): {nu: multiplicity}} with induction multiplicities given by
    products of Schur expansions: the Littlewood-Richardson coefficients,
    read off the product's Schur terms, must be nonnegative integers.
    """
    from .symfunc import s_func, schur_multiply

    out: dict = {}
    for (p, q), mults_a in cells_a.items():
        for (r, s), mults_b in cells_b.items():
            key = (p + r, q + s)
            bucket = out.setdefault(key, {})
            for lam, ma in mults_a.items():
                for mu, mb in mults_b.items():
                    for nu, c in schur_multiply(s_func(lam), s_func(mu)).coeffs:
                        if c.denominator != 1 or c < 0:
                            raise ValueError(f"Littlewood-Richardson coefficient {c} "
                                             f"at {nu} is not a nonnegative integer")
                        bucket[nu] = bucket.get(nu, 0) + ma * mb * int(c)
    return {key: val for key, val in out.items() if any(val.values())}


def one_box_table(cells: dict) -> dict:
    """Expected homology after adding an isolated vertex of weight 1, from
    the table cells of the graph without it."""
    out: dict = {}
    for (i, j), mults in cells.items():
        bucket = out.setdefault((i, j), {})
        for lam, m in mults.items():
            for mu in add_one_box(lam):
                bucket[mu] = bucket.get(mu, 0) + m
    return out


class CheckResult(NamedTuple):
    graph: str
    check: str
    status: str  # PASS | FAIL | SKIPPED
    detail: str = ""


class StructureReport(NamedTuple):
    results: list
    c6_findings: list

    @property
    def ok(self) -> bool:
        return all(r.status != "FAIL" for r in self.results)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "results": [r._asdict() for r in self.results],
            "c6": list(self.c6_findings),
        }


def verify_structure_theorems(corpus) -> StructureReport:
    """Run every applicable structural check over a list of graphs.

    Loop implies zero homology; removing one of two parallel edges keeps
    the table; disjoint unions factor through induction products; adding a
    weight-1 isolated vertex adds one box to every label; the top nonzero
    index per degree is at most n-1 (and at most n-2 in degree 0 when
    there is an edge); nonzero indices per degree are contiguous.  The
    conjectured lower bound (n - blocks <= degree-0 span) is only
    recorded, never asserted.  A failed check reads FAIL in the report.
    """
    report = StructureReport([], [])

    def add(graph, check, status, detail=""):
        report.results.append(
            CheckResult(graph.serialize(), check, status, detail)
        )

    for graph in corpus:
        table = cached_table(graph)

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

        comps = [induced_subgraph(graph, block)
                 for block in state_profile(graph, (1 << graph.m) - 1).blocks]
        if len(comps) >= 2:
            cells = cached_table(comps[0]).cells
            for comp in comps[1:]:
                cells = induction_product_table(cells, cached_table(comp).cells)
            ok = cells == table.cells
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
            rest = induced_subgraph(graph, [x for x in range(graph.n) if x != v])
            expected = one_box_table(cached_table(rest).cells)
            ok = expected == table.cells
            add(graph, "isolated-vertex-one-box", "PASS" if ok else "FAIL")
        else:
            add(graph, "isolated-vertex-one-box", "SKIPPED",
                "no weight-1 isolated vertex")

        ok_bounds = True
        ok_contig = True
        degrees = sorted({j for (_, j) in table.cells})
        for j in degrees:
            k_min, k_max = span_indices(table, j)
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
            report.c6_findings.append(c6_finding(graph, table))

    return report


def c6_finding(graph: VertexWeightedGraph, table: HomologyTable) -> dict:
    """The conjectured lower bound n - blocks <= degree-0 span, recorded
    for one graph, never asserted."""
    b, s0 = count_blocks(graph), span_zero(table)
    return {"graph": graph.serialize(), "vertices": graph.n, "blocks": b, "span0": s0,
            "lower_bound_holds": s0 is not None and graph.n - b <= s0}


def row_sums(nodes: list) -> dict:
    """{lam: sum over k of (-1)^k times the multiplicity of lam at nodes[k]},
    zero sums left out.  On an exact row of S_N-modules every sum is 0."""
    sums: dict = {}
    for k, node in enumerate(nodes):
        for lam, mult in node.modules.items():
            sums[lam] = sums.get(lam, 0) + (-1) ** k * mult
    return {lam: total for lam, total in sums.items() if total}


def solve_quotient_from_row(nodes: list) -> dict:
    """Solve a verified exact row for the contracted-graph nodes.

    Inputs are the row's nodes in `verify_les` order; the deleted and full
    modules are treated as known.  Each contracted dimension is forced by
    exactness (rank in + rank out), and at most one may be nonzero.  With
    every contracted module zeroed, that node's multiplicities, at position
    k, are -(-1)^k times the `row_sums`; the other contracted nodes are 0.
    Returns {i: multiplicities} for the contracted nodes.
    """
    dims = {k: nd.rank_in + nd.rank_out for k, nd in enumerate(nodes)
            if nd.part == "contracted"}
    solved = {nodes[k].i: {} for k in dims}
    unknown = [k for k, dim in dims.items() if dim]
    if len(unknown) > 1:
        raise ValueError("row has more than one undetermined node")
    for k in unknown:
        known = [nd._replace(modules={}) if nd.part == "contracted" else nd for nd in nodes]
        mults = {lam: -(-1) ** k * total for lam, total in row_sums(known).items()}
        if any(m < 0 for m in mults.values()):
            raise ValueError("row cannot be solved consistently")
        if sum(hook_dimension(lam) * m for lam, m in mults.items()) != dims[k]:
            raise ValueError("solved node contradicts its forced dimension")
        solved[nodes[k].i] = mults
    return solved
