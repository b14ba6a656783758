"""Reference oracles: slow, literal constructions the engine is checked against.

`IsotypicProjector` sums over the whole symmetric group, `isotypic_rank`
reads its dimension and rank off class-function traces as the homology
engine does, and `standard_tableaux_count` enumerates tableaux one by
one, independent of the hook length formula.  `categorification_check`
ties a homology table to the state sum through chain characters computed
combinatorially, with `frobenius_value` evaluating the series at rationals
q and t.  `fraction_rref_vectors` and `fraction_rank_forward` are
the eliminations over `Fraction` that the engine's fraction-free integer
kernels must reproduce exactly, and `fraction_kernel_basis` is the kernel
basis over `Fraction` that `kernel_basis` must reproduce mod a prime.
`fraction_split_projection` is the split projection that the shape-keyed
memo must reproduce.
`label_action_matrix` acts on a basis label by label, where the engine
reads the shape-keyed `ShapeAction` pattern maps at state offsets, and
`full_action_image_characters` reads the traces off those whole matrices,
where `image_characters` computes only the entries they read.
`check_equivariance` tests one map against both generators of S_N, as the
complex's gate does for every differential.
`LabelBasis` is the label-keyed reference for a level's basis, whose
engine form is only state offsets and shapes (`ChainLevel`); `label_basis`
builds it for one degree from `chain_labels`, a state's position basis
spelled out as point labels.
`label_edge_map` builds a per-edge map label by label, and
`label_differentials` assembles a complex's differentials through its
label index; the engine's position kernels (`repn.edge_kernel`) added at
state offsets must reproduce both, entry order included.
`label_ses_maps` builds the inclusion and projection of an edge's short
exact sequence through the label index, which the engine's identity
blocks at state offsets must reproduce.
`fraction_zigzag` is the connecting map on one cycle by the explicit
zig-zag over `Fraction`, which the LES check's integer matrix Z must
reproduce up to the denominator and the cycle's scale.
`isomorphic` decides weighted multigraph isomorphism by trying every
vertex bijection, which `graphs.canonical_form` must agree with;
`relabellings` gives a graph under seeded relabellings that keep its
isomorphism class.
`tarjan_count_blocks` counts blocks by Tarjan's depth-first search, which
`graphs.count_blocks`, read off component counts alone, must agree with.
The rest are small constructors and identities that only the tests use.
"""

import random
from array import array
from functools import cache
from itertools import combinations, permutations
from itertools import product as iproduct
from math import factorial, lcm

from chromhom._rat import QQ
from chromhom.characters import character_table
from chromhom.complexes import ChainComplex, ChainLevel
from chromhom.graphs import (
    VertexWeightedGraph,
    level_masks,
    modify_edge,
    removal_sign,
    state_profile,
)
from chromhom.homology import (
    FrobeniusSeries,
    HomologyTable,
    frobenius_series,
    homology_table,
)
from chromhom.lescheck import _pull_mask, _push_mask, _twist
from chromhom.linalg import SparseMat, certified_image, rank_forward
from chromhom.partitions import check_partition, hook_dimension
from chromhom.repn import (
    _label,
    _wedge_multiply,
    act_on_label,
    basis_characters,
    block_tuples,
    class_representative,
    image_characters,
    split_projection,
    subset_patterns,
)
from chromhom.symfunc import (
    SymFunc,
    basis_convert,
    csf_state_sum,
    s_func,
)


def as_int(x) -> int:
    """An integral `Fraction` as an `int`; raises on a remainder."""
    assert x.denominator == 1, f"{x} is not an integer"
    return int(x)


@cache
def chain_labels(block_weights: tuple[int, ...], n_points: int) -> dict:
    """Labels of the chain module of a state, by degree: {j: tuple(labels)}.

    Label t * per_j + s is block tuple t of `block_tuples` with pattern s
    of `subset_patterns` read as the points at those positions: the
    engine's position basis spelled out as point labels.  The module
    depends only on the ordered component weights, so every state of
    every graph with the same shape shares one basis.
    """
    tuples = block_tuples(block_weights)
    return {j: tuple(_label(blocks, pat) for blocks in tuples for pat in pats)
            for j, pats in subset_patterns(block_weights).items()}


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


class LabelBasis:
    """An ordered basis of (mask, label) keys: chain labels, each tagged
    with the edge mask of its state, with the position of each key."""

    def __init__(self, keys):
        self.labels = list(keys)
        self.index = {key: k for k, key in enumerate(self.labels)}

    @property
    def dim(self) -> int:
        return len(self.labels)


def label_basis(level: ChainLevel, j: int) -> LabelBasis:
    """The degree-j basis of a level as keys: per state, in mask order, its
    `chain_labels` of degree j, read off the state's shape alone."""
    return LabelBasis((mask, lab) for mask in level.masks
                      for lab in chain_labels(level.shapes[mask],
                                              sum(level.shapes[mask])).get(j, ()))


def expected_dim(block_weights: tuple[int, ...], n_points: int) -> int:
    """Dimension of the chain module of a state, without enumerating it:
    N! / prod b_t! ordered set partitions times prod 2^(b_t - 1) subsets."""
    d = factorial(n_points)
    for b in block_weights:
        d //= factorial(b)
    for b in block_weights:
        d *= 2 ** (b - 1)
    return d


def label_action_matrix(basis: LabelBasis, perm) -> SparseMat:
    """The matrix of `perm` on a basis, label by label through its index:
    `perm` acts on the label of each key and keeps its mask.  The engine
    reads it off the shape-keyed `repn.shape_action` pattern maps at state
    offsets (`ChainLevel.action_matrix`) and must reproduce it.  `act_on_label`
    returns distinct targets with nonzero coefficients, so each column is
    its image as it stands."""
    index = basis.index
    cols = [{index[(mask, tgt)]: c for tgt, c in act_on_label(perm, lab).items()}
            for mask, lab in basis.labels]
    return SparseMat(basis.dim, basis.dim, cols)


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
            out = vec_add(out, label_action_matrix(basis, g).apply(vec), QQ(chi))
        scale = QQ(self.dim, factorial(self.n_points))
        return {k: scale * v for k, v in out.items() if v != 0}


def check_equivariance(mat: SparseMat, domain: LabelBasis,
                       codomain: LabelBasis, n_points: int) -> None:
    """Assert that one map commutes with the action of S_N: the test that
    `ChainComplex.verify_equivariance` runs on every differential, with
    both action matrices built here for this map alone.

    (0 1) and (0 1 .. N-1) generate S_N and `label_action_matrix` is a
    homomorphism, so both are checked, in sorted order.
    """
    shapes = {(2,) + (1,) * (n_points - 2), (n_points,)} if n_points > 1 else ()
    for g in sorted(class_representative(mu) for mu in shapes):
        left = label_action_matrix(codomain, g).matmul(mat)
        right = mat.matmul(label_action_matrix(domain, g))
        if left != right:
            raise AssertionError(f"map is not equivariant under permutation {g}")


def isotypic_rank(projector: IsotypicProjector, mat: SparseMat, domain: ChainLevel,
                  codomain: ChainLevel, j: int) -> tuple[int, int]:
    """(dimension of the isotypic part of the domain, rank of `mat` there),
    for `mat` from the degree-j basis of one level to that of another.

    Equivariance is checked on generators.  Both values are read off
    class-function traces, the image's through `image_characters` with
    the exact rank as its certificate, and must equal what applying the
    literal projector gives: the domain trace of P, and the rank of `mat`
    composed with P.  Both are multiples of the irreducible's dimension.
    """
    n = projector.n_points
    check_equivariance(mat, label_basis(domain, j), label_basis(codomain, j), n)
    table = character_table(n)
    lam = projector.lam
    dom_char = basis_characters(domain.runs(j), j, n)
    dom_mult = QQ(0)
    for mu in table.partitions:
        dom_mult += dom_char[mu] * table.chi(lam, mu) / QQ(table.z[mu])
    _, im_char = image_characters(mat, codomain.runs(j), j, n, rank_forward(mat))
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


def frobenius_of_hooks(a: int, j: int) -> SymFunc:
    """Schur function of the hook (a - j, 1^j), as a p-basis expression."""
    return basis_convert(s_func((a - j,) + (1,) * j), "p")


def chain_character_symfunc(graph: VertexWeightedGraph, i: int, j: int) -> SymFunc:
    """Frobenius characteristic of C_{i,j}, computed combinatorially.

    Independent of the explicit point bases: per state, the degree-j part
    contributes the sum over degree compositions of products of hook Schur
    functions of the component weights.
    """
    n = graph.total_weight
    total = zero_func("p", n)
    for mask in level_masks(graph.m, i):
        st = state_profile(graph, mask)
        sizes = st.block_weights
        ranges = [range(b) for b in sizes]
        for combo in iproduct(*ranges):
            if sum(combo) != j:
                continue
            term = None
            for b, jj in zip(sizes, combo):
                factor = frobenius_of_hooks(b, jj)
                term = factor if term is None else term * factor
            total = total + term
    return basis_convert(total, "s")


def table_character(table: HomologyTable) -> SymFunc:
    """Alternating-sign Frobenius characteristic of the whole table."""
    total = zero_func("s", table.n_points)
    for (i, j), mults in table.cells.items():
        sign = -1 if (i + j) % 2 else 1
        for lam, m in mults.items():
            total = total + s_func(lam, sign * m)
    return total


def frobenius_value(series: FrobeniusSeries, q, t) -> SymFunc:
    """The Frobenius series at exact rationals q and t, in the Schur basis."""
    q, t = QQ(q), QQ(t)
    coeffs = {lam: sum(QQ(c) * t**i * q**j for (i, j), c in cells)
              for lam, cells in series.terms}
    return SymFunc.make("s", series.n_points, coeffs)


def categorification_check(graph: VertexWeightedGraph,
                           table: HomologyTable | None = None):
    """Verify the two exact identities tying homology to the state sum.

    (a) the Frobenius series at q = t = 1 equals the weighted chromatic
        symmetric function in the Schur basis;
    (b) the alternating character sum over homology equals the alternating
        character sum over the chain spaces (computed combinatorially).
    Returns (ok, frobenius_value, csf_in_schur).
    """
    cx = ChainComplex(graph)
    if table is None:
        table = homology_table(cx)
    frob_at_one = frobenius_value(frobenius_series(table), 1, 1)
    csf_schur = basis_convert(csf_state_sum(graph), "s")
    ok = frob_at_one == csf_schur
    chain_alt = zero_func("s", graph.total_weight)
    for i in range(len(cx.levels)):
        for j in cx.levels[i].degrees():
            sign = -1 if (i + j) % 2 else 1
            chain_alt = chain_alt + chain_character_symfunc(graph, i, j).scale(sign)
    hom_alt = table_character(table)
    ok = ok and (chain_alt == hom_alt)
    return ok, frob_at_one, csf_schur


def check_deletion_contraction_csf(g: VertexWeightedGraph, e: int):
    """Exact check of X(G) = X(G\\e) - X(G/e) in the power-sum basis.

    Returns (holds, X(G), X(G\\e), X(G/e)).
    """
    if not 0 <= e < g.m:
        raise ValueError(f"graph has no edge {e}")
    xg = csf_state_sum(g)
    xdel = csf_state_sum(modify_edge(g, e, "delete"))
    xcon = csf_state_sum(modify_edge(g, e, "contract"))
    return (xg == xdel - xcon), xg, xdel, xcon


def zero_func(basis: str, degree: int) -> SymFunc:
    return SymFunc.make(basis, degree, {})


def p_func(lam, coeff=1) -> SymFunc:
    lam = check_partition(lam)
    return SymFunc.make("p", sum(lam), {lam: QQ(coeff)})


def inner_product(a: SymFunc, b: SymFunc) -> QQ:
    """Hall inner product; Schur functions are orthonormal."""
    sa, sb = basis_convert(a, "s"), basis_convert(b, "s")
    db = dict(sb.coeffs)
    total = QQ(0)
    for lam, c in sa.coeffs:
        total += c * db.get(lam, QQ(0))
    return total


def compose(g: tuple[int, ...], h: tuple[int, ...]) -> tuple[int, ...]:
    """g after h: (g*h)(x) = g(h(x))."""
    return tuple(g[h[x]] for x in range(len(g)))


def hooks_of(n: int) -> list[tuple[int, ...]]:
    """Hook-shaped partitions (n - j, 1^j) of n, for j = 0 .. n-1."""
    return [(n - j,) + (1,) * j for j in range(n)]


def identity_mat(n: int) -> SparseMat:
    return SparseMat(n, n, [{k: QQ(1)} for k in range(n)])


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


def mod_p(x, p: int) -> int:
    """The residue mod the prime p of a rational x whose denominator p does
    not divide."""
    return x.numerator * pow(x.denominator, -1, p) % p


def vec_add(a: dict, b: dict, factor=1) -> dict:
    """a + factor * b, dropping zeros, in a new dict."""
    out = dict(a)
    for k, v in b.items():
        val = out.get(k, QQ(0)) + factor * v
        if val == 0:
            out.pop(k, None)
        else:
            out[k] = val
    return out


def fraction_rref_vectors(vectors) -> tuple[list[int], list[dict]]:
    """Reduced echelon form by Gauss-Jordan over `Fraction`: the pivot of a
    vector is its smallest index, normalised to 1 as soon as it is found."""
    pivots: list[int] = []
    basis: list[dict] = []
    by_pivot: dict[int, int] = {}
    for vec in vectors:
        v = dict(vec)
        for q in [q for q in v if q in by_pivot]:
            v = vec_add(v, basis[by_pivot[q]], -v[q])
        if not v:
            continue
        p = min(v)
        lead = QQ(v[p])
        v = {k: x / lead for k, x in v.items()}
        for k, b in enumerate(basis):
            if p in b:
                basis[k] = vec_add(b, v, -b[p])
        by_pivot[p] = len(basis)
        basis.append(v)
        pivots.append(p)
    order = sorted(range(len(pivots)), key=lambda k: pivots[k])
    return [pivots[k] for k in order], [basis[k] for k in order]


def fraction_kernel_basis(mat: SparseMat) -> list[dict]:
    """Reduced basis of the right kernel over `Fraction`, off
    `fraction_rref_vectors` of the rows fed last first: per free index f,
    keys f (value 1) then increasing pivots.  `kernel_basis` mod p must
    reproduce it reduced mod p, key order included."""
    pivots, rows = fraction_rref_vectors(reversed(mat.transpose().cols))
    pivot_set = set(pivots)
    return [{f: QQ(1)} | {q: -row[f] for q, row in zip(pivots, rows) if f in row}
            for f in range(mat.ncols) if f not in pivot_set]


def fraction_rank_forward(mat: SparseMat) -> int:
    """Rank by forward elimination of the rows over `Fraction`, eliminating
    against the pivot with the largest column first."""
    rows: dict[int, dict] = {}
    for c, col in enumerate(mat.cols):
        for r, v in col.items():
            rows.setdefault(r, {})[c] = v
    pivot_of: dict[int, dict] = {}
    rank = 0
    for r in sorted(rows):
        cur = rows[r]
        while cur:
            p = max(cur)
            row = pivot_of.get(p)
            if row is None:
                break
            cur = vec_add(cur, row, -QQ(cur[p]) / row[p])
        if cur:
            pivot_of[max(cur)] = cur
            rank += 1
    return rank


def fraction_split_projection(block, subset, part_a, part_b) -> dict:
    """`split_projection` computed on the points themselves, with no memo:
    each factor e_x - e_{min block} rewritten in the anchored bases of the
    two parts and the barycenter difference, whose terms are dropped."""
    set_a, set_b = set(part_a), set(part_b)
    if set_a & set_b or set_a | set_b != set(block):
        raise ValueError("parts must partition the block")
    a = block[0]
    alpha, beta = part_a[0], part_b[0]
    la, lb = len(part_a), len(part_b)
    monos: dict = {(): QQ(1)}
    for x in subset:
        coords = {x: QQ(1), a: QQ(-1)}
        s = (QQ(1) if x in set_a else QQ(0)) - (QQ(1) if a in set_a else QQ(0))
        if s != 0:
            for y in part_a:
                coords[y] = coords.get(y, QQ(0)) - s / la
            for z in part_b:
                coords[z] = coords.get(z, QQ(0)) + s / lb
        factor = []
        for y in part_a:
            if y != alpha and coords.get(y, 0) != 0:
                factor.append(((0, y), coords[y]))
        for z in part_b:
            if z != beta and coords.get(z, 0) != 0:
                factor.append(((1, z), coords[z]))
        monos = _wedge_multiply(monos, factor)
        if not monos:
            return {}
    out: dict = {}
    for mono, c in monos.items():
        sub_a = tuple(pt for part, pt in mono if part == 0)
        sub_b = tuple(pt for part, pt in mono if part == 1)
        out[(sub_a, sub_b)] = c
    return out


def full_action_image_characters(mat: SparseMat, codomain: LabelBasis,
                                 n_points: int, rank: int) -> tuple[dict, dict]:
    """`image_characters` off the whole action matrix A of each class
    representative: the codomain's trace is A's diagonal, and over the
    certified reduced-echelon image basis b_k with pivot rows p_k,
    trace(g | im) = sum_k sum_q b_k[q] * A[p_k, q], lifted from mod the
    certifying prime."""
    pivots, cols, modulus = certified_image(mat, rank)
    chain, image = {}, {}
    for mu in character_table(n_points).partitions:
        act = label_action_matrix(codomain, class_representative(mu)).cols
        chain[mu] = sum(col.get(k, 0) for k, col in enumerate(act))
        total = sum(b * act[q][p] for p, col in zip(pivots, cols)
                    for q, b in col.items() if p in act[q]) % modulus
        image[mu] = total - modulus if 2 * total > modulus else total
    return chain, image


def fraction_zigzag(inclusion, projection, i: int, j: int, z: dict) -> dict:
    """The connecting map on a cycle z of C_{i,j}(G/e) by six `apply`s:
    lift by P^T, apply d_G over Q (the stored matrix over its denominator),
    pull back by I^T; the lift must project back onto z, the boundary must
    lie on states without e and the result must be a cycle of G\\e."""
    proj, inc = projection.mat(i + 1, j), inclusion.mat(i, j)
    lift = proj.transpose().apply(z)
    assert proj.apply(lift) == z, "cycle with no room to lift"
    cx = projection.source
    bound = {r: QQ(v, cx.denominator)
             for r, v in cx.differential(i + 1, j).apply(lift).items()}
    x = inc.transpose().apply(bound)
    assert inc.apply(x) == bound, "boundary of a lift touches e-states"
    assert not inclusion.source.differential(i, j).apply(x), "output is not a cycle"
    return x


def label_edge_map(shape, k, b, weight_a, n_points: int) -> dict:
    """The per-edge map of signature (shape, k, b, |A|) label by label:
    {source label: [(target label, coefficient), ...]}, `int`s over D_N,
    `k` None the identity.  Each label maps to the signed projections over
    all point splits of its block k, identity on the other slots; moving
    B's word past the words of slots k+1 .. b-1 costs the Koszul sign."""
    by_degree = chain_labels(shape, n_points)
    labels = [lab for labs in by_degree.values() for lab in labs]
    denominator = lcm(*range(1, n_points))
    if k is None:
        return {lab: [(lab, denominator)] for lab in labels}
    weight_b = shape[k] - weight_a
    scale = denominator // lcm(weight_a, weight_b)
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


def label_per_edge_map(graph: VertexWeightedGraph, mask: int, e: int) -> dict:
    """`per_edge_map` label by label: the signature read off the two
    states' components, then `label_edge_map`."""
    src = state_profile(graph, mask)
    tgt = state_profile(graph, mask & ~(1 << e))
    if src.blocks == tgt.blocks:
        return label_edge_map(src.block_weights, None, None, None, graph.total_weight)
    k = next(t for t, blk in enumerate(src.blocks) if blk != tgt.blocks[t])
    b = next(t for t in range(k + 1, len(tgt.blocks))
             if tgt.blocks[t][0] in src.blocks[k])
    return label_edge_map(src.block_weights, k, b, tgt.block_weights[k],
                          graph.total_weight)


def label_differentials(cx: ChainComplex) -> dict:
    """{(i, j): d_{i,j}} of `cx` assembled label by label: each image of
    `label_per_edge_map` added at the row and column that the levels'
    `label_basis` index gives its (mask, label) key."""
    graph, diffs = cx.graph, {}
    for i in range(1, len(cx.levels)):
        upper, lower = cx.levels[i], cx.levels[i - 1]
        mats = {j: SparseMat(lower.dim(j), upper.dim(j)) for j in upper.degrees()}
        uppers = {j: label_basis(upper, j) for j in upper.degrees()}
        lowers = {j: label_basis(lower, j) for j in upper.degrees()}
        for mask in upper.masks:
            for e in range(graph.m):
                if not mask >> e & 1:
                    continue
                sign, tgt_mask = removal_sign(mask, e), mask & ~(1 << e)
                for src_lab, images in label_per_edge_map(graph, mask, e).items():
                    j = sum(len(s) for s in src_lab[1])
                    col = uppers[j].index[(mask, src_lab)]
                    for tgt_lab, coeff in images:
                        row = lowers[j].index[(tgt_mask, tgt_lab)]
                        mats[j].add_entry(row, col, sign * coeff)
        diffs.update({(i, j): mat for j, mat in mats.items()})
    return diffs


def label_ses_maps(graph: VertexWeightedGraph, e: int) -> tuple[dict, dict]:
    """({(i, j): I_{i,j}}, {(i, j): P_{i,j}}) of the edge e built through
    the label index: each (mask, label) key of G\\e goes to the key of G
    with the pushed mask and the same label, and each key of G whose state
    holds e to the key of G/e with the pulled mask, signed by `_twist`."""
    cx = ChainComplex(graph)
    cx_del = ChainComplex(modify_edge(graph, e, "delete"))
    cx_con = ChainComplex(modify_edge(graph, e, "contract"))
    inc_mats: dict = {}
    for i in range(len(cx_del.levels)):
        for j in cx_del.levels[i].degrees():
            src = label_basis(cx_del.levels[i], j)
            tgt = label_basis(cx.levels[i], j)
            mat = SparseMat(tgt.dim, src.dim)
            for col, (mask, lab) in enumerate(src.labels):
                mat.add_entry(tgt.index[(_push_mask(mask, e), lab)], col, 1)
            inc_mats[(i, j)] = mat
    proj_mats: dict = {}
    for i in range(1, len(cx.levels)):
        for j in cx.levels[i].degrees():
            src = label_basis(cx.levels[i], j)
            tgt = label_basis(cx_con.levels[i - 1], j)
            mat = SparseMat(tgt.dim, src.dim)
            for col, (mask, lab) in enumerate(src.labels):
                if not mask >> e & 1:
                    continue
                pulled = _pull_mask(mask & ~(1 << e), e)
                mat.add_entry(tgt.index[(pulled, lab)], col, _twist(mask, e))
            proj_mats[(i, j)] = mat
    return inc_mats, proj_mats


def kernel_images(kernel: dict) -> dict:
    """{j: [[(target position, coefficient), ...] per source position]}
    of a per-edge kernel {j: (indptr, rows, coeffs)}."""
    return {j: [list(zip(rows[lo:hi], coeffs[lo:hi]))
                for lo, hi in zip(indptr, indptr[1:])]
            for j, (indptr, rows, coeffs) in kernel.items()}


def scale_kernel(kernel: dict, factor: int, degree=None) -> dict:
    """A per-edge kernel with its coefficients times `factor`, in every
    degree or only in `degree`."""
    return {j: (indptr, rows, array("l", (factor * c for c in coeffs))
                if degree in (None, j) else coeffs)
            for j, (indptr, rows, coeffs) in kernel.items()}


def isomorphic(a: VertexWeightedGraph, b: VertexWeightedGraph) -> bool:
    """Whether some bijection of a's vertices onto b's keeps every weight
    and the multiset of unordered edge pairs, loops included."""
    def edges(g, pos):
        return sorted(tuple(sorted((pos[u], pos[v]))) for u, v in g.edges)

    target = edges(b, range(b.n))
    return a.n == b.n and any(
        all(b.weights[s[x]] == a.weights[x] for x in range(a.n)) and edges(a, s) == target
        for s in permutations(range(a.n)))


def relabellings(graph: VertexWeightedGraph, seed: int) -> list:
    """The graph under four seeded relabellings, one at a time and then all
    four in turn: its vertices permuted, its ids renamed, its edges
    shuffled and some edges' orientations flipped."""
    rng = random.Random(seed)
    place = rng.sample(range(graph.n), graph.n)  # vertex x moves to place[x]
    names = tuple(f"r{k}" for k in rng.sample(range(graph.n), graph.n))
    order = tuple(rng.sample(range(graph.m), graph.m))
    flips = [rng.random() < 0.5 for _ in range(graph.m)]

    def permuted(g):
        back = sorted(range(g.n), key=place.__getitem__)  # the vertex at each place
        return VertexWeightedGraph(tuple(g.ids[x] for x in back),
                                   tuple(g.weights[x] for x in back),
                                   tuple((place[u], place[v]) for u, v in g.edges))

    steps = [permuted,
             lambda g: g._replace(ids=names),
             lambda g: g.with_edge_order(order),
             lambda g: g._replace(edges=tuple((v, u) if flip else (u, v)
                                              for (u, v), flip in zip(g.edges, flips)))]
    combined = graph
    for step in steps:
        combined = step(combined)
    return [step(graph) for step in steps] + [combined]


def tarjan_count_blocks(g: VertexWeightedGraph) -> int:
    """Number of blocks (maximal 2-connected pieces, bridges, isolated
    vertices) of the underlying graph, by Tarjan's depth-first search:
    a tree edge into y closes a block at x when low[y] >= disc[x]."""
    adj: dict[int, list[tuple[int, int]]] = {x: [] for x in range(g.n)}
    for e, (u, v) in enumerate(g.edges):
        if u != v:
            adj[u].append((v, e))
            adj[v].append((u, e))
    visited = [False] * g.n
    disc = [0] * g.n
    low = [0] * g.n
    timer = [1]
    blocks = [0]
    stack: list[int] = []

    def dfs(x: int, parent_edge: int) -> None:
        visited[x] = True
        disc[x] = low[x] = timer[0]
        timer[0] += 1
        for y, e in adj[x]:
            if e == parent_edge:
                continue
            if not visited[y]:
                stack.append(e)
                dfs(y, e)
                low[x] = min(low[x], low[y])
                if low[y] >= disc[x]:
                    # pop one block's worth of edges
                    blocks[0] += 1
                    while stack and stack[-1] != e:
                        stack.pop()
                    if stack:
                        stack.pop()
            elif disc[y] < disc[x]:
                stack.append(e)
                low[x] = min(low[x], disc[y])

    isolated = 0
    for x in range(g.n):
        if not visited[x]:
            if not adj[x]:
                isolated += 1
                visited[x] = True
            else:
                dfs(x, -1)
    return blocks[0] + isolated
