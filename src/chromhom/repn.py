"""Chain modules for graph states and the symmetric group action on them.

The module attached to a state with component weights (b_1, .., b_r) is
induced from a tensor product of exterior algebras of standard
representations.  Concretely, with N the total weight, a basis element is

  * an ordered set partition (D_1, .., D_r) of the points {0..N-1} with
    |D_t| = b_t (slot order follows the state's component order), and
  * per slot a subset S_t of D_t minus its minimum,

standing for the wedge monomial over factors e_x - e_{min D_t}, x in S_t.
The degree is j = sum |S_t|.  The labels depend only on the shape
(b_1, .., b_r), so `chain_labels` enumerates them once per shape for
every state of every graph; a level's basis is one run of them per
state (`complexes.ChainLevel`).  The symmetric group permutes points and
keeps states; images are rewritten in the target block's min-anchored basis.
The group enters only through `class_representative`, one permutation
per cycle type, and acts on labels only through `act_on_label`, with
`int` coefficients.  The action on a state's module depends only on its
shape too, so it is memoised per (shape, N, permutation) in two parts:
`action_kernel`, the positions and coefficients of a permutation's
matrix on one run of `chain_labels` in CSR form, which the one
equivariance gate, `complexes.ChainComplex.verify_equivariance`,
assembles at state offsets for both generators; and `block_images`, the
permutation a class representative induces on the shape's block tuples.
`image_characters` reads, per conjugacy class, the character of a basis,
given by its runs, and of a differential's image in it: which labels' blocks g maps where
off `block_images`, the chain trace once per (shape, degree, class), and
the image trace acting only on the labels whose entries it reads.  The
image traces are taken mod a prime on an echelon form certified by the
exact rank, and lifted to the integer traces.

Per-edge differentials split one block D into (A, B); the component map
rewrites each wedge factor in a basis adapted to the split and deletes
every term containing the barycenter difference
u = mean(A) - mean(B), landing in the tensor of the two smaller exterior
algebras.  Its coefficients are `int`s over lcm(|A|, |B|).  That depends
only on the positions of S and A in D, so `_split_shape` computes it once
per shape.  A whole per-edge map depends only on the state's shape and its
split signature (slot k, slot b of B, |A|), so `edge_kernel` builds it
once per signature, as `array('l')` positions and coefficients in CSR
form: at most one per (state, edge) cover of a graph, 12 for P4(1,2,2,1),
each about the size of one per-edge map's entries.  `_split_shape`,
`edge_kernel`, `action_kernel`, `block_images`, `chain_labels` and the
`int` chain traces are the module's shape-keyed memos; the kernels are
`array('l')`s, 156 KB for both generators on the shapes of P4(1,2,2,1).
"""

from array import array
from functools import cache
from itertools import combinations, product
from math import factorial, lcm

from ._rat import QQ, as_int
from .characters import character_table
from .linalg import SparseMat, certified_image

Label = tuple  # ((D_1, .., D_r), (S_1, .., S_r)) as nested tuples


def _wedge_multiply(monos: dict, factor) -> dict:
    """Wedge each monomial (sorted key tuple) with a 1-form.

    `factor` is a list of (key, coefficient); keys must be comparable.
    Insertion uses the sign of moving the new key from the right end to
    its sorted position.
    """
    out: dict = {}
    for mono, c in monos.items():
        for key, a in factor:
            if key in mono:
                continue
            pos = 0
            while pos < len(mono) and mono[pos] < key:
                pos += 1
            sign = -1 if (len(mono) - pos) % 2 else 1
            new = mono[:pos] + (key,) + mono[pos:]
            val = out.get(new, 0) + sign * c * a
            if val == 0:
                out.pop(new, None)
            else:
                out[new] = val
    return out


def _ordered_set_partitions(points: tuple[int, ...], sizes: tuple[int, ...]):
    if not sizes:
        yield ()
        return
    first_size = sizes[0]
    for chosen in combinations(points, first_size):
        rest = tuple(x for x in points if x not in set(chosen))
        for tail in _ordered_set_partitions(rest, sizes[1:]):
            yield (chosen,) + tail


def _subsets(block: tuple[int, ...]):
    rest = block[1:]
    for r in range(len(rest) + 1):
        yield from combinations(rest, r)


def class_representative(mu: tuple[int, ...]) -> tuple[int, ...]:
    """A permutation of cycle type mu, as a tuple p with p[x] the image of
    x: consecutive cycles (0 1 ..)(..) in the order of mu."""
    n = sum(mu)
    p = list(range(n))
    start = 0
    for length in mu:
        for k in range(length):
            p[start + k] = start + (k + 1) % length
        start += length
    return tuple(p)


def act_on_label(perm: tuple[int, ...], label: Label) -> dict:
    """Image of a basis label under a point permutation.

    Blocks stay in their slots; wedge factors are rewritten in the image
    block's min-anchored basis and re-sorted, producing a combination of
    labels with `int` coefficients.
    """
    blocks, subsets = label
    result: dict = {((), ()): 1}
    for D, S in zip(blocks, subsets):
        new_block = tuple(sorted(perm[x] for x in D))
        anchor = new_block[0]
        old_anchor_image = perm[D[0]]
        monos: dict = {(): 1}
        for x in S:
            gx = perm[x]
            factor = []
            if gx != anchor:
                factor.append((gx, 1))
            if old_anchor_image != anchor:
                factor.append((old_anchor_image, -1))
            monos = _wedge_multiply(monos, factor)
            if not monos:
                break
        new_result: dict = {}
        for (blocks_acc, subs_acc), c in result.items():
            for mono, a in monos.items():
                key = (blocks_acc + (new_block,), subs_acc + (mono,))
                new_result[key] = c * a
        result = new_result
        if not result:
            return {}
    return result


@cache
def action_kernel(shape: tuple[int, ...], n_points: int, perm: tuple[int, ...]) -> dict:
    """The action of `perm` on a state's chain module as positions:
    {j: (indptr, rows, coeffs)} in CSR form, `array('l')`s.  Position p
    of `chain_labels(shape, N)[j]` maps to rows[indptr[p]:indptr[p + 1]]
    of the same run, with `int` coefficients (`act_on_label`)."""
    out = {}
    for j, labels in chain_labels(shape, n_points).items():
        where = {lab: q for q, lab in enumerate(labels)}
        indptr, rows, coeffs = array("l", [0]), array("l"), array("l")
        for lab in labels:
            for tgt, c in act_on_label(perm, lab).items():
                rows.append(where[tgt])
                coeffs.append(c)
            indptr.append(len(rows))
        out[j] = (indptr, rows, coeffs)
    return out


@cache
def block_images(shape: tuple[int, ...], n_points: int, perm: tuple[int, ...]) -> array:
    """The permutation of a shape's block tuples, numbered in
    `chain_labels(shape, N)[0]` order, that `perm` induces: entry t is
    the number of tuple(tuple(sorted(perm[x] for x in D)) for D in blocks_t)."""
    tuples = [blocks for blocks, _ in chain_labels(shape, n_points)[0]]
    number = {blocks: t for t, blocks in enumerate(tuples)}
    return array("l", [number[tuple(tuple(sorted(perm[x] for x in D)) for D in blocks)]
                       for blocks in tuples])


def split_projection(
    block: tuple[int, ...],
    subset: tuple[int, ...],
    part_a: tuple[int, ...],
    part_b: tuple[int, ...],
) -> dict:
    """Project a wedge monomial on `block` onto the split (part_a, part_b).

    Each factor e_x - e_{min block} is rewritten in the basis made of the
    two parts' anchored vectors together with the barycenter difference
    u = mean(part_a) - mean(part_b); terms containing u are dropped.
    Returns {(subset_a, subset_b): coefficient}, each coefficient an `int`
    over lcm(|part_a|, |part_b|); degree is preserved.
    Points come in increasing order, as in every label, so the result is
    the shape's `_split_shape` with each position read as its point.
    """
    set_a, set_b = set(part_a), set(part_b)
    if set_a & set_b or set_a | set_b != set(block):
        raise ValueError("parts must partition the block")
    pos = {x: k for k, x in enumerate(block)}
    shape = _split_shape(len(block), tuple(pos[x] for x in subset),
                         tuple(pos[x] for x in part_a))
    return {(tuple(block[k] for k in sub_a), tuple(block[k] for k in sub_b)): c
            for sub_a, sub_b, c in shape}


@cache
def _split_shape(size: int, subset: tuple[int, ...], part_a: tuple[int, ...]):
    """`split_projection` of the block (0, .., size - 1) as a tuple of
    (subset_a, subset_b, coefficient) triples, one per shape: block sizes
    up to N give at most sum_b 2^(b-1) (2^b - 2) keys.  Coefficients are
    `int`s over L = lcm(|A|, |B|): dropping u from e_x - e_0 leaves an
    integer vector plus s_x c, s_x in {-1, 0, 1}, c = -w_A/|A| + w_B/|B|
    for every factor, and c ^ c = 0 leaves at most one c per wedge.
    Factors are scaled by |A| |B| to `int`s; exact `divmod` brings each
    coefficient to L and raises AssertionError on a remainder."""
    part_b = tuple(k for k in range(size) if k not in part_a)
    la, lb = len(part_a), len(part_b)
    monos: dict = {(): 1}
    for x in subset:
        coords = {x: la * lb, 0: -la * lb}
        s = (x in part_a) - (0 in part_a)
        if s:
            for y in part_a:
                coords[y] = coords.get(y, 0) - s * lb
            for z in part_b:
                coords[z] = coords.get(z, 0) + s * la
        factor = [((0, y), coords[y]) for y in part_a[1:] if coords.get(y)]
        factor += [((1, z), coords[z]) for z in part_b[1:] if coords.get(z)]
        monos = _wedge_multiply(monos, factor)
        if not monos:
            return ()
    scale, den, out = lcm(la, lb), (la * lb) ** len(subset), []
    for mono, c in monos.items():
        coeff, rem = divmod(c * scale, den)
        if rem:
            raise AssertionError(f"split coefficient {c}/{den} is not an "
                                 f"integer over lcm({la}, {lb})")
        out.append((tuple(k for part, k in mono if part == 0),
                    tuple(k for part, k in mono if part == 1), coeff))
    return tuple(out)


@cache
def edge_kernel(shape: tuple[int, ...], k, b, weight_a, n_points: int) -> dict:
    """A per-edge map as positions: {j: (indptr, rows, coeffs)} in CSR
    form, `array('l')`s.  Position p of `chain_labels(shape, N)[j]` maps
    to rows[indptr[p]:indptr[p + 1]] of the target shape's, with `int`
    coefficients over D_N = lcm(1, .., N - 1); `k` None is the identity.
    Otherwise slot k splits into A (|A| = `weight_a`), kept at slot k, and
    B, moved to slot b > k: each label maps to the projections over all
    point splits of its block k (`_split_shape`, times D_N / lcm(|A|, |B|))
    in split order, with the Koszul sign (-1)^(|S_B| sum_{k<t<b} |S_t|)
    of moving B's word past the words of slots k+1 .. b-1."""
    source, den = chain_labels(shape, n_points), lcm(*range(1, n_points))
    if k is None:
        return {j: (array("l", range(len(labs) + 1)), array("l", range(len(labs))),
                    array("l", [den]) * len(labs)) for j, labs in source.items()}

    def placed(seq, part_a, part_b):  # A at slot k, B at slot b
        return seq[:k] + (part_a,) + seq[k + 1:b] + (part_b,) + seq[b:]

    size = shape[k]
    target = chain_labels(placed(shape, weight_a, size - weight_a), n_points)
    scale = den // lcm(weight_a, size - weight_a)
    splits = list(combinations(range(size), weight_a))
    heads: dict = {}  # source blocks -> [(target blocks, positions of A)]
    out = {}
    for j, labels in source.items():
        where = {lab: q for q, lab in enumerate(target.get(j, ()))}
        indptr, rows, coeffs = array("l", [0]), array("l"), array("l")
        for blocks, subs in labels:
            D = blocks[k]
            if blocks not in heads:
                heads[blocks] = [(placed(blocks, tuple(D[t] for t in pa), tuple(
                    D[t] for t in range(size) if t not in pa)), pa) for pa in splits]
            at = tuple(D.index(x) for x in subs[k])
            flip = sum(len(s) for s in subs[k + 1:b]) % 2
            for tgt_blocks, pa in heads[blocks]:
                for sub_a, sub_b, c in _split_shape(size, at, pa):
                    tgt_subs = placed(subs, tuple(D[t] for t in sub_a),
                                      tuple(D[t] for t in sub_b))
                    rows.append(where[(tgt_blocks, tgt_subs)])
                    coeffs.append(-scale * c if flip and len(sub_b) % 2 else scale * c)
            indptr.append(len(rows))
        out[j] = (indptr, rows, coeffs)
    return out


@cache
def chain_labels(block_weights: tuple[int, ...], n_points: int) -> dict:
    """Labels of the chain module of a state, by degree: {j: tuple(labels)}.

    The module depends only on the ordered component weights, so every
    state of every graph with the same shape shares one enumeration.
    """
    labels_by_j: dict[int, list[Label]] = {}
    for blocks in _ordered_set_partitions(tuple(range(n_points)), block_weights):
        for subs in product(*(_subsets(D) for D in blocks)):
            j = sum(len(s) for s in subs)
            labels_by_j.setdefault(j, []).append((blocks, subs))
    return {j: tuple(labels) for j, labels in sorted(labels_by_j.items())}


def basis_characters(runs: list, j: int, n_points: int) -> dict:
    """Character of the representation on the degree-j basis of `runs`,
    per cycle type."""
    dim = sum(len(chain_labels(shape, n_points)[j]) for _, shape in runs)
    return image_characters(SparseMat(dim, 0), runs, j, n_points, 0)[0]


def multiplicities_from_characters(char: dict, n_points: int) -> dict:
    """Decompose a character (given per class) into irreducibles: the
    multiplicity of lambda is sum_mu char(mu) chi_lambda(mu) (N!/z_mu),
    in `int`s, divided exactly by N!.  Values may be the integral
    `Fraction`s of the rational fallback."""
    table, order = character_table(n_points), factorial(n_points)
    weights = {mu: as_int(char[mu]) * (order // table.z[mu]) for mu in table.partitions}
    out = {}
    for lam in table.partitions:
        total = sum(w * table.chi(lam, mu) for mu, w in weights.items())
        mult, rem = divmod(total, order)
        if rem:
            raise ValueError(f"{QQ(total, order)} is not an integer")
        if mult:
            out[lam] = mult
            if mult < 0:
                raise ValueError(f"negative multiplicity at {lam}")
    return out


_chain_traces: dict = {}  # (shape, j, cycle type) -> trace on a state's run


def image_characters(mat: SparseMat, runs: list, j: int, n_points: int,
                     rank: int) -> tuple[dict, dict]:
    """Characters of a degree-j basis and of the image of `mat` in it, per
    cycle type.  The basis is given by its `runs`, (offset, shape) per
    state as `complexes.ChainLevel.runs` lists them.

    With A the action matrix of a class representative g, the basis's
    trace is A's diagonal, and over a reduced-echelon image basis b_k with
    pivot rows p_k (identity there; the image is invariant)
    trace(g | im) = sum_k sum_q b_k[q] * A[p_k, q].  Only these entries
    are computed: g keeps each label in its state's run and its blocks in
    their slots, so A[p, q] = 0 unless p and q share a state and g maps
    q's blocks to p's (for p = q, g fixes every block), and `act_on_label`
    runs once per label q that passes.  Which blocks g maps where is read
    off the shape's `block_images`, and a state's chain trace depends only
    on its shape, degree and the class, so it is memoised as one `int` per
    (shape, j, class).

    `rank`, the exact rank of `mat` over Q, certifies the echelon form mod
    the prime P = 2^61 - 1 (`certified_image`), and the traces are read
    mod P and lifted to (-P/2, P/2).  This is exact:

      * `mat` is an integer matrix D (a differential times its
        denominator D_N), so it reduces mod P; the group acts by integer
        matrices on the label basis;
      * L = im_Q D ∩ Z^n is a saturated lattice of rank r = rank_Q D, so
        L mod P has dimension r and contains im(D mod P); when
        rank(D mod P) = r the two are equal;
      * g preserves L, so trace(g | im) = trace(g | L) is an integer
        congruent to trace(g | im(D mod P)) mod P;
      * g has finite order, so its eigenvalues are roots of unity and
        |trace| <= r < P/2: the lift is the trace.

    When the ranks differ the form over Q is used instead, and when that
    rank differs too `certified_image` raises AssertionError.
    """
    pivots, cols, modulus = certified_image(mat, rank)
    labels, pers = [], []  # the basis, and per run the labels to a block tuple
    place, bases = [], [0]  # per label, a small int for its (state, blocks)
    for _, shape in runs:
        by_j = chain_labels(shape, n_points)
        tuples, per = len(by_j[0]), len(by_j[j]) // len(by_j[0])
        labels.extend(by_j[j])
        pers.append(per)
        place.extend(bases[-1] + p // per for p in range(tuples * per))
        bases.append(bases[-1] + tuples)
    chain, image = {}, {}
    for mu in character_table(n_points).partitions:
        if mu == (1,) * n_points:  # the identity: dimension and rank
            chain[mu], image[mu] = len(labels), len(pivots)
            continue
        g = class_representative(mu)
        act = cache(lambda q: act_on_label(g, labels[q]))
        to, chain[mu] = [], 0
        for (start, shape), per, base in zip(runs, pers, bases):
            images = block_images(shape, n_points, g)
            to.extend(base + t for t in images)
            key = (shape, j, mu)
            if key not in _chain_traces:  # g fixes the blocks of these labels
                _chain_traces[key] = sum(
                    act(k).get(labels[k], 0) for t, u in enumerate(images)
                    if t == u for k in range(start + t * per, start + t * per + per))
            chain[mu] += _chain_traces[key]
        total = sum((b * act(q).get(labels[p], 0)
                     for p, col in zip(pivots, cols) for q, b in col.items()
                     if to[place[q]] == place[p]), QQ(0) if modulus is None else 0)
        if modulus is not None:  # lift to (-P/2, P/2)
            total = (total + modulus // 2) % modulus - modulus // 2
        image[mu] = total
    return chain, image
