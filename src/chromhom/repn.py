"""Chain modules for graph states and the symmetric group action on them.

The module attached to a state with component weights (b_1, .., b_r) is
induced from a tensor product of exterior algebras of standard
representations of the Young subgroup S_{b_1} x .. x S_{b_r}.
Concretely, with N the total weight, a basis element is

  * a block tuple: an ordered set partition (D_1, .., D_r) of the points
    {0..N-1} with |D_t| = b_t (slot order follows the state's component
    order), and
  * a subset pattern: per slot a set P_t of positions 1 .. b_t - 1 of D_t,

standing for the wedge monomial over factors e_x - e_{min D_t}, x the
points of D_t at the positions P_t.  The degree is j = sum |P_t|.  Both
factors depend only on the shape (b_1, .., b_r), so `block_tuples` and
`subset_patterns` enumerate them once per shape for every state of every
graph.  The degree-j basis of a state is tuple t times pattern s at
position t * per_j + s, per_j the number of degree-j patterns, and a
level's basis is one run of it per state (`complexes.ChainLevel`).

The symmetric group permutes points and keeps states; images are
rewritten in the target block's min-anchored basis.  The group enters
only through `class_representative`, one permutation per cycle type, and
acts on labels only through `act_on_label`, with `int` coefficients.  A
permutation g sends tuple t to another tuple, and acts on its pattern
only through the relative order g gives each block of t.  So
`ShapeAction`, the one memo of the action per (shape, permutation),
holds the tuple images, acts on one representative label per (relative
order, pattern) and stores the action only as those pattern maps.  Every
reader reads them there: the one equivariance gate,
`complexes.ChainComplex.verify_equivariance`, builds g's matrix on a
level from them at state offsets (`complexes.ChainLevel.action_matrix`)
for both generators, `ShapeAction.trace` sums their diagonals per
(shape, degree, class), and `image_characters` reads, per
conjugacy class, the character of a basis, given by its runs, and of a
differential's image in it, each entry of the image trace off the same
pattern maps.  The image traces are `int`s, taken mod a word-size prime
on an echelon form certified by the exact rank (`linalg.certified_image`)
and lifted to the integer traces.

Per-edge differentials split one block D into (A, B); the component map
rewrites each wedge factor in a basis adapted to the split and deletes
every term containing the barycenter difference
u = mean(A) - mean(B), landing in the tensor of the two smaller exterior
algebras.  Its coefficients are `int`s over lcm(|A|, |B|).  That depends
only on the positions of S and A in D, so `_split_shape` computes it once
per (pattern, split).  A whole per-edge map depends only on the state's
shape and its split signature (slot k, slot b of B, |A|): a split sends
tuple t to a target tuple read off (t, split) and pattern s to target
patterns read off (s, split).  So `edge_kernel` tables both once per
signature and emits `array('l')` positions and coefficients in CSR form
by integer arithmetic, at most one kernel per (state, edge) cover of a
graph.

`_split_shape`, `edge_kernel`, `shape_action`, `block_tuples` and
`subset_patterns` are the module's shape-keyed memos.  On the 8 shapes of
P4(1,2,2,1), by `sys.getsizeof` on CPython 3.11: 12 edge kernels of
232 KB, and over all 11 classes 222 KB of pattern maps and 83 KB of tuple
images and orders; a cold build acts 424 times and splits 1,696 times,
and its table acts 309 times more.
"""

from array import array
from functools import cache
from itertools import combinations, product
from math import factorial, gcd, lcm

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


class ShapeAction:
    """The action of one permutation g on a shape's chain module, read off
    the tuple x pattern factorisation (module docstring).

    `images[t]` numbers, in `block_tuples(shape)`, the tuple g sends tuple
    t to: tuple(tuple(sorted(g[x] for x in D)) for D in t).  `orders[t]`
    is the id of the relative order g gives each block of t: per block D,
    the rank of g(x) among g(D) for each x in D.  g acts on a pattern only
    through that order, so `patterns(o, j)` acts once per (order id,
    degree), with one `act_on_label` per pattern on the first tuple of
    order o (`reps[o]`), and gives per degree-j pattern its image patterns
    with their `int` coefficients, in `act_on_label`'s order.  These maps
    are the action's only stored form: `trace(j)`, memoised in `traces`,
    and `complexes.ChainLevel.action_matrix` read g's matrix off them."""

    def __init__(self, shape: tuple[int, ...], perm: tuple[int, ...]):
        self.shape, self.perm = shape, perm
        tuples = block_tuples(shape)
        number = {blocks: t for t, blocks in enumerate(tuples)}
        moved: dict = {}  # block -> (its image, the rank of each point's image)

        def move(D):
            image = [perm[x] for x in D]
            new = sorted(image)
            moved[D] = out = (tuple(new), tuple(map(new.index, image)))
            return out

        ids: dict = {}  # relative order -> its id
        self.images, self.orders, self.reps = array("l"), array("l"), []
        for t, blocks in enumerate(tuples):
            new, order = zip(*[moved.get(D) or move(D) for D in blocks])
            self.images.append(number[new])
            if order not in ids:
                ids[order] = len(self.reps)
                self.reps.append(t)
            self.orders.append(ids[order])
        self._maps: dict = {}  # (order id, j) -> per pattern, {image pattern: coeff}
        self.traces: dict = {}  # j -> the `int` trace on the module

    def patterns(self, o: int, j: int) -> tuple:
        """Per degree-j pattern, {image pattern number: coefficient} under g
        of any block tuple of order id `o`."""
        if (o, j) not in self._maps:
            tuples, pats = block_tuples(self.shape), subset_patterns(self.shape)[j]
            blocks = tuples[self.reps[o]]
            rank = [{x: r for r, x in enumerate(N)}  # point -> its position
                    for N in tuples[self.images[self.reps[o]]]]
            where = {pat: s for s, pat in enumerate(pats)}

            def image(pat):
                acted = act_on_label(self.perm, _label(blocks, pat))
                return {where[tuple(tuple(R[x] for x in S) for R, S in zip(rank, subs))]: c
                        for (_, subs), c in acted.items()}

            self._maps[(o, j)] = tuple(map(image, pats))
        return self._maps[(o, j)]

    def trace(self, j: int) -> int:
        """The trace of g on the degree-j module: over the tuples g fixes,
        the diagonals of their pattern maps."""
        if j not in self.traces:
            self.traces[j] = sum(
                image.get(s, 0) for t, (u, o) in enumerate(zip(self.images, self.orders))
                if t == u for s, image in enumerate(self.patterns(o, j)))
        return self.traces[j]


shape_action = cache(ShapeAction)  # the one memo of the action, per (shape, perm)


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
    form, `array('l')`s.  Position p = t * per_j + s of the degree-j run
    (block tuple t, subset pattern s) maps to rows[indptr[p]:indptr[p + 1]]
    of the target shape's, with `int` coefficients over
    D_N = lcm(1, .., N - 1); `k` None is the identity.
    Otherwise slot k splits into A (|A| = `weight_a`), kept at slot k, and
    B, moved to slot b > k: each label maps to the projections over all
    point splits of its block k (`_split_shape`, times D_N / lcm(|A|, |B|))
    in split order, with the Koszul sign (-1)^(|S_B| sum_{k<t<b} |S_t|)
    of moving B's word past the words of slots k+1 .. b-1.  A split sends
    block tuple t to a target tuple read off (t, split) and pattern s to
    target patterns read off (s, split), so both are tabled once and the
    image of position t * per_j + s is their product."""
    den = lcm(*range(1, n_points))
    if k is None:
        return {j: (array("l", range(n + 1)), array("l", range(n)), array("l", [den]) * n)
                for j, n in chain_dims(shape).items()}

    def placed(seq, part_a, part_b):  # A at slot k, B at slot b
        return seq[:k] + (part_a,) + seq[k + 1:b] + (part_b,) + seq[b:]

    size = shape[k]
    target = placed(shape, weight_a, size - weight_a)
    scale = den // lcm(weight_a, size - weight_a)
    splits = [(pa, tuple(x for x in range(size) if x not in pa))
              for pa in combinations(range(size), weight_a)]
    number = {blocks: t for t, blocks in enumerate(block_tuples(target))}
    heads = [[number[placed(blocks, tuple(blocks[k][x] for x in pa),
                            tuple(blocks[k][x] for x in pb))] for pa, pb in splits]
             for blocks in block_tuples(shape)]  # (t, split) -> target tuple
    out = {}
    for j, pats in subset_patterns(shape).items():
        tgt = subset_patterns(target).get(j, ())
        where, per = {pat: s for s, pat in enumerate(tgt)}, len(tgt)
        images = []  # per pattern: its target patterns per split, and coefficients
        for pat in pats:
            flip = sum(len(sub) for sub in pat[k + 1:b]) % 2
            targets, signed = [], array("l")
            for pa, pb in splits:
                split = _split_shape(size, pat[k], pa)
                targets.append([where[placed(pat, tuple(map(pa.index, sub_a)),
                                             tuple(map(pb.index, sub_b)))]
                                for sub_a, sub_b, _ in split])
                signed.extend(-scale * c if flip and len(sub_b) % 2 else scale * c
                              for _, sub_b, c in split)
            images.append((targets, signed))
        indptr, rows, coeffs = array("l", [0]), array("l"), array("l")
        for head in heads:
            for targets, signed in images:
                for u, tss in zip(head, targets):
                    base = u * per
                    rows.extend([base + ts for ts in tss])
                coeffs.extend(signed)
                indptr.append(len(rows))
        out[j] = (indptr, rows, coeffs)
    return out


@cache
def block_tuples(shape: tuple[int, ...]) -> tuple:
    """The ordered set partitions (D_1, .., D_r) of the points with
    |D_t| = shape[t], in basis order."""
    return tuple(_ordered_set_partitions(tuple(range(sum(shape))), shape))


@cache
def subset_patterns(shape: tuple[int, ...]) -> dict:
    """{j: patterns}: per slot t a subset of the positions 1 .. shape[t] - 1,
    with j positions in all, in basis order."""
    out: dict = {}
    for pat in product(*(_subsets(tuple(range(size))) for size in shape)):
        out.setdefault(sum(map(len, pat)), []).append(pat)
    return {j: tuple(pats) for j, pats in sorted(out.items())}


def chain_dims(shape: tuple[int, ...]) -> dict:
    """{j: dimension} of a state's chain module: tuples times patterns."""
    tuples = len(block_tuples(shape))
    return {j: tuples * len(pats) for j, pats in subset_patterns(shape).items()}


def _label(blocks: tuple, pattern: tuple) -> Label:
    """The label of a block tuple and a subset pattern: each slot's
    positions read as the points of its block."""
    return blocks, tuple(tuple(D[x] for x in P) for D, P in zip(blocks, pattern))


def basis_characters(runs: list, j: int, n_points: int) -> dict:
    """Character of the representation on the degree-j basis of `runs`,
    per cycle type."""
    dim = sum(chain_dims(shape)[j] for _, shape in runs)
    return image_characters(SparseMat(dim, 0), runs, j, n_points, 0)[0]


def multiplicities_from_characters(char: dict, n_points: int) -> dict:
    """Decompose a character (given per class) into irreducibles: the
    multiplicity of lambda is sum_mu char(mu) chi_lambda(mu) (N!/z_mu),
    in `int`s, divided exactly by N!."""
    table, order = character_table(n_points), factorial(n_points)
    weights = {mu: char[mu] * (order // table.z[mu]) for mu in table.partitions}
    out = {}
    for lam in table.partitions:
        total = sum(w * table.chi(lam, mu) for mu, w in weights.items())
        mult, rem = divmod(total, order)
        if rem:
            g = gcd(total, order)
            raise ValueError(f"{total // g}/{order // g} is not an integer")
        if mult:
            out[lam] = mult
            if mult < 0:
                raise ValueError(f"negative multiplicity at {lam}")
    return out


def image_characters(mat: SparseMat, runs: list, j: int, n_points: int,
                     rank: int) -> tuple[dict, dict]:
    """Characters of a degree-j basis and of the image of `mat` in it, per
    cycle type.  The basis is given by its `runs`, (offset, shape) per
    state as `complexes.ChainLevel.runs` lists them.

    With A the action matrix of a class representative g, the basis's
    trace is A's diagonal, and over a reduced-echelon image basis b_k with
    pivot rows p_k (identity there; the image is invariant)
    trace(g | im) = sum_k sum_q b_k[q] * A[p_k, q].  Only these entries
    are computed: g keeps each position in its state's run and sends the
    block tuple of q to its `ShapeAction.images` entry, so A[p, q] = 0
    unless p and q share a state and g maps q's tuple to p's, and then
    A[p, q] is read off the pattern map of q's relative order.  A state's
    chain trace is its `ShapeAction.trace`, one `int` per (shape, j, class).

    `rank`, the exact rank of `mat` over Q, certifies the echelon form mod
    a prime p (`certified_image`), and the traces are read mod p and
    lifted to (-p/2, p/2).  This is exact:

      * `mat` is an integer matrix D (a differential times its
        denominator D_N), so it reduces mod p; the group acts by integer
        matrices on the label basis;
      * L = im_Q D ∩ Z^n is a saturated lattice of rank r = rank_Q D, so
        L mod p has dimension r and contains im(D mod p); when
        rank(D mod p) = r the two are equal;
      * g preserves L, so trace(g | im) = trace(g | L) is an integer
        congruent to trace(g | im(D mod p)) mod p;
      * g has finite order, so its eigenvalues are roots of unity and
        |trace| <= r < p/2: the lift is the trace.

    `certified_image` tries its primes in turn until the ranks agree, and
    raises AssertionError when no prime of its list certifies `rank`.
    """
    pivots, cols, modulus = certified_image(mat, rank)
    place, first, bases = [], [], [0]  # per position its tuple; per tuple its start
    for start, shape in runs:
        tuples, per = len(block_tuples(shape)), len(subset_patterns(shape)[j])
        place.extend(bases[-1] + p // per for p in range(tuples * per))
        first.extend(range(start, start + tuples * per, per))
        bases.append(bases[-1] + tuples)
    chain, image = {}, {}
    for mu in character_table(n_points).partitions:
        if mu == (1,) * n_points:  # the identity: dimension and rank
            chain[mu], image[mu] = len(place), len(pivots)
            continue
        g = class_representative(mu)
        to, orders, chain[mu] = [], [], 0  # per tuple: its image, (action, order id)
        for (_, shape), base in zip(runs, bases):
            act = shape_action(shape, g)
            to.extend(base + u for u in act.images)
            orders.extend((act, o) for o in act.orders)
            chain[mu] += act.trace(j)
        total = 0
        for p, col in zip(pivots, cols):
            tp = place[p]
            sp = p - first[tp]
            for q, b in col.items():
                tq = place[q]
                if to[tq] == tp:
                    act, o = orders[tq]
                    total += b * act.patterns(o, j)[q - first[tq]].get(sp, 0)
        image[mu] = (total + modulus // 2) % modulus - modulus // 2  # the lift
    return chain, image
