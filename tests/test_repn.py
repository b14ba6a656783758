import random
import re
import sys
from array import array
from itertools import combinations, permutations
from math import lcm

import pytest

from chromhom import (
    graph_from_weights,
    linalg,
    path_graph,
    repn,
    single_vertex,
    state_profile,
)
from chromhom._rat import QQ
from chromhom.complexes import ChainComplex, ChainLevel
from chromhom.homology import homology_table
from chromhom.linalg import SparseMat, rank_forward
from chromhom.partitions import hook_dimension, partitions_of
from chromhom.repn import (
    _split_shape,
    _subsets,
    act_on_label,
    basis_characters,
    class_representative,
    image_characters,
    multiplicities_from_characters,
    split_projection,
)
from chromhom.symfunc import basis_convert

from corpus import CORPUS, FAST_CORPUS
from oracles import (
    IsotypicProjector,
    LabelBasis,
    chain_character_symfunc,
    chain_labels,
    check_equivariance,
    compose,
    expected_dim,
    fraction_split_projection,
    full_action_image_characters,
    isotypic_rank,
    kernel_images,
    label_action_matrix,
    label_basis,
    label_edge_map,
    zero_func,
)

SEGMENT = graph_from_weights([1, 2], [(0, 1)])


def state_bases(g, mask) -> dict:
    """Per-degree bases of the chain module of one state."""
    shape = state_profile(g, mask).block_weights
    return {j: LabelBasis((mask, lab) for lab in labels)
            for j, labels in chain_labels(shape, g.total_weight).items()}


def test_weighted_segment_graded_dims():
    connected = state_bases(SEGMENT, 1)
    assert {j: b.dim for j, b in connected.items()} == {0: 1, 1: 2, 2: 1}
    split = state_bases(SEGMENT, 0)
    assert {j: b.dim for j, b in split.items()} == {0: 3, 1: 3}
    assert sum(b.dim for b in split.values()) == expected_dim((1, 2), 3) == 6


def test_dimension_formula_across_corpus():
    for name, g in CORPUS:
        for mask in (0, (1 << g.m) - 1):
            space = state_bases(g, mask)
            shape = state_profile(g, mask).block_weights
            assert (sum(b.dim for b in space.values())
                    == expected_dim(shape, g.total_weight)), name


def test_degree_bound():
    # degrees vanish above (total points - number of blocks)
    for name, g in FAST_CORPUS:
        for mask in range(1 << g.m):
            st = state_profile(g, mask)
            space = state_bases(g, mask)
            top = g.total_weight - len(st.blocks)
            assert max(space) == top


def test_act_identity_and_swap():
    lab = (((0, 1),), ((1,),))
    assert act_on_label((0, 1), lab) == {lab: QQ(1)}
    # swapping the anchor with the other point negates the wedge vector
    assert act_on_label((1, 0), lab) == {lab: QQ(-1)}


def test_act_transposition_moves_subset_points():
    # block of size 3, swap the two non-minimal points
    lab = (((0, 1, 2),), ((1,),))
    g = (0, 2, 1)
    assert act_on_label(g, lab) == {(((0, 1, 2),), ((2,),)): QQ(1)}


def test_action_coefficients_are_int():
    g = path_graph([1, 1, 2])
    n = g.total_weight
    for mask in range(1 << g.m):
        for labels in chain_labels(state_profile(g, mask).block_weights, n).values():
            basis = LabelBasis((mask, lab) for lab in labels)
            for perm in permutations(range(n)):
                for lab in labels:
                    assert all(type(c) is int for c in act_on_label(perm, lab).values())
                cols = label_action_matrix(basis, perm).cols
                assert all(type(c) is int for col in cols for c in col.values())


def test_act_composition_random():
    rng = random.Random(0)
    for name, g in [("P3(1,1,2)", path_graph([1, 1, 2])),
                    ("K2(2,2)", graph_from_weights([2, 2], [(0, 1)]))]:
        n = g.total_weight
        for mask in range(1 << g.m):
            space = chain_labels(state_profile(g, mask).block_weights, n)
            labels = space[max(space)]
            for _ in range(6):
                p1 = list(range(n)); rng.shuffle(p1)
                p2 = list(range(n)); rng.shuffle(p2)
                p1, p2 = tuple(p1), tuple(p2)
                lab = rng.choice(labels)
                via_two = {}
                for mid, c in act_on_label(p2, lab).items():
                    for tgt, a in act_on_label(p1, mid).items():
                        via_two[tgt] = via_two.get(tgt, QQ(0)) + c * a
                via_two = {k: v for k, v in via_two.items() if v != 0}
                assert via_two == act_on_label(compose(p1, p2), lab)


def test_split_projection_reference_value():
    # block {0,1,2}, split ({0}, {1,2}): e_1 - e_0 projects to -(e_2 - e_1)/2,
    # -1 over lcm(1, 2) = 2
    out = split_projection((0, 1, 2), (1,), (0,), (1, 2))
    assert out == {((), (2,)): -1}


def test_split_projection_degree_zero():
    # 1 over lcm(2, 2) = 2
    assert split_projection((0, 1, 2, 3), (), (0, 1), (2, 3)) == {((), ()): 2}


def test_split_projection_top_degree_killed():
    # degree 3 on a 4-point block cannot fit in (1,3)-split target (max 2)
    out = split_projection((0, 1, 2, 3), (1, 2, 3), (0,), (1, 2, 3))
    assert all(len(sa) + len(sb) == 3 for sa, sb in out)
    assert out == {((), (1, 2, 3)): QQ(1)} or ((), (1, 2, 3)) in out or out == {}


def test_split_projection_rejects_bad_parts():
    with pytest.raises(ValueError):
        split_projection((0, 1, 2), (1,), (0, 1), (1, 2))


POINTS = (2, 3, 7, 11, 12, 20)


def split_keys(size: int) -> int:
    """Shapes (size, S, A) of split projections for blocks up to `size`."""
    return sum(2 ** (b - 1) * (2 ** b - 2) for b in range(1, size + 1))


def over_lcm(out: dict, part_a, part_b) -> dict:
    """`split_projection`'s `int` coefficients as the values over Q they
    stand for, over lcm(|A|, |B|)."""
    return {k: QQ(v, lcm(len(part_a), len(part_b))) for k, v in out.items()}


def test_split_projection_memo_matches_fraction_oracle():
    """Every shape up to size 6, on two non-contiguous point sets each,
    gives the oracle's dict with the same key order, as `int`s over
    lcm(|A|, |B|)."""
    for size in range(1, len(POINTS) + 1):
        for block in (POINTS[:size], POINTS[-size:]):
            for subset in _subsets(block):
                for r in range(1, size):
                    for part_a in combinations(block, r):
                        part_b = tuple(x for x in block if x not in part_a)
                        out = split_projection(block, subset, part_a, part_b)
                        expected = fraction_split_projection(
                            block, subset, part_a, part_b)
                        got = over_lcm(out, part_a, part_b)
                        assert list(got.items()) == list(expected.items())
                        assert all(type(c) is int for c in out.values())


def test_split_projection_returns_a_fresh_dict():
    args = ((2, 7, 11), (7,), (2,), (7, 11))
    out = split_projection(*args)
    assert over_lcm(out, *args[2:]) == fraction_split_projection(*args) != {}
    out.clear()
    out[((), ())] = 5
    assert over_lcm(split_projection(*args), *args[2:]) == fraction_split_projection(*args)


def test_split_coefficients_are_exact_over_lcm_of_the_parts():
    """Every shape of block size up to 7, the default --max-weight, has
    coefficients exact over lcm(|A|, |B|): `_split_shape` raises otherwise,
    and each is the oracle's value.  The lcm of their denominators over the
    block sizes up to N is the complexes' denominator D_N, so the bound
    lcm(1, .., N - 1) is tight."""
    dens = 1
    for size in range(1, 8):
        block = tuple(range(size))
        for subset in _subsets(block):
            for r in range(1, size):
                for part_a in combinations(block, r):
                    part_b = tuple(x for x in block if x not in part_a)
                    expected = fraction_split_projection(block, subset, part_a, part_b)
                    out = split_projection(block, subset, part_a, part_b)
                    assert over_lcm(out, part_a, part_b) == expected
                    dens = lcm(dens, *(c.denominator for c in expected.values()))
        assert dens == ChainComplex(single_vertex(size)).denominator, size


def test_split_shape_raises_on_an_inexact_coefficient(monkeypatch):
    """-1/2 is no integer over a bound of 1: the bound is checked."""
    monkeypatch.setattr(repn, "lcm", lambda *args: 1)
    with pytest.raises(AssertionError, match=re.escape(
            "split coefficient -1/2 is not an integer over lcm(1, 2)")):
        _split_shape.__wrapped__(3, (1,), (0,))


def test_split_memo_is_bounded_by_the_shapes():
    """The memo holds at most the 2,604 keys of N = 6, and a cold build of
    P4(1,2,2,1) reads it once per (pattern, split) of each signature:
    1,696 calls (10,144 when it was read once per label and split)."""
    graph = path_graph([1, 2, 2, 1])
    _split_shape.cache_clear()
    repn.edge_kernel.cache_clear()  # a warm kernel reads no split shape
    homology_table(ChainComplex(graph))
    info = _split_shape.cache_info()
    assert split_keys(graph.total_weight) == 2604
    assert 0 < info.currsize <= 2604
    assert info.hits + info.misses <= 1700


def compositions(n: int):
    if n == 0:
        yield ()
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def signatures(n: int):
    """Every per-edge signature (shape, k, b, |A|) of total weight n, the
    identity (shape, None, None, None) included."""
    for shape in compositions(n):
        yield shape, None, None, None
        for k, size in enumerate(shape):
            for b in range(k + 1, len(shape) + 1):
                for weight_a in range(1, size):
                    yield shape, k, b, weight_a


def split_target(shape, k, b, weight_a):
    """The target shape of a per-edge signature."""
    if k is None:
        return shape
    return shape[:k] + (weight_a,) + shape[k + 1:b] + (shape[k] - weight_a,) + shape[b:]


@pytest.mark.parametrize("n", range(1, 7))
def test_edge_kernel_matches_the_label_oracle(n):
    """Each kernel, read back through `chain_labels`, is the per-edge map
    built label by label, image order included (the images are lists),
    for every signature."""
    for shape, k, b, weight_a in signatures(n):
        kernel = repn.edge_kernel(shape, k, b, weight_a, n)
        target = split_target(shape, k, b, weight_a)
        src, tgt = chain_labels(shape, n), chain_labels(target, n)
        got = {src[j][p]: [(tgt[j][q], c) for q, c in image]
               for j, images in kernel_images(kernel).items()
               for p, image in enumerate(images)}
        assert got == label_edge_map(shape, k, b, weight_a, n), (shape, k, b)


@pytest.mark.parametrize("n", range(1, 7))
def test_block_images_permute_the_block_tuples(n):
    """Entry t of the action's `images` numbers the image of block tuple
    t, read off `chain_labels`, for every shape and class representative."""
    for shape in compositions(n):
        tuples = [blocks for blocks, _ in chain_labels(shape, n)[0]]
        for mu in partitions_of(n):
            g = class_representative(mu)
            images = repn.shape_action(shape, g).images
            assert sorted(images) == list(range(len(tuples)))
            assert [tuples[t] for t in images] == [
                tuple(tuple(sorted(g[x] for x in D)) for D in blocks)
                for blocks in tuples], (shape, mu)


@pytest.mark.parametrize("n", range(1, 7))
def test_shape_action_matches_the_label_oracles(n):
    """For every shape of weight n and every class representative g, g's
    matrix on the shape's run, read off the `ShapeAction` pattern maps
    (`ChainLevel.action_matrix` of the one state of the edgeless graph with
    those weights), is g's matrix built label by label through
    `chain_labels`, entry order included, and each chain trace is the sum
    of that matrix's diagonal."""
    for shape in compositions(n):
        level = ChainLevel(graph_from_weights(list(shape), []), 0)
        assert level.shapes == {0: shape}
        for mu in partitions_of(n):
            g = class_representative(mu)
            for j, labels in chain_labels(shape, n).items():
                oracle = label_action_matrix(LabelBasis((0, lab) for lab in labels), g)
                cols = level.action_matrix(g, j).cols
                assert ([list(col.items()) for col in cols]
                        == [list(col.items()) for col in oracle.cols]), (shape, mu, j)
                assert repn.shape_action(shape, g).trace(j) == sum(
                    col.get(p, 0) for p, col in enumerate(oracle.cols)), (shape, mu, j)


@pytest.mark.parametrize("n", range(1, 7))
def test_image_characters_of_every_shape_match_the_full_action(n):
    """Into every shape of weight n: the first per-edge map that lands in
    it, or the identity of the one-block shape, with its columns doubled,
    so that its rank is at most half its columns.  On that one run,
    `image_characters` equals the full-action oracle in every degree."""
    maps = {}
    for shape, k, b, weight_a in signatures(n):
        if k is not None:
            maps.setdefault(split_target(shape, k, b, weight_a), (shape, k, b, weight_a))
    maps[(n,)] = ((n,), None, None, None)
    assert len(maps) == 2 ** (n - 1)  # every composition of n
    for target, signature in maps.items():
        kernel = repn.edge_kernel(*signature, n)
        for j, labels in chain_labels(target, n).items():
            cols = [dict(image) for image in kernel_images(kernel)[j]]
            mat = SparseMat(len(labels), 2 * len(cols), cols + [dict(c) for c in cols])
            rank = rank_forward(mat)
            assert rank <= len(cols)
            got = image_characters(mat, [(0, target)], j, n, rank)
            assert got == full_action_image_characters(
                mat, LabelBasis((0, lab) for lab in labels), n, rank), (target, j)


def test_action_memos_are_compact_int_arrays():
    """The action memo's block images and orders are `array('l')`s, its
    chain traces `int`s, and the pattern maps of P4(1,2,2,1), the only
    stored form of the action, stay under 250 KB over all 11 classes after
    a cold build and its table (222 KB measured; a dict matrix per basis
    kept 7.4 MB more).  The maps fill per (order, degree) as they are read,
    so the memo starts empty."""
    repn.shape_action.cache_clear()
    cx = ChainComplex(path_graph([1, 2, 2, 1]))
    homology_table(cx)
    size, traces = 0, []
    for shape in {s for level in cx.levels for s in level.shapes.values()}:
        for mu in partitions_of(6):
            act = repn.shape_action(shape, class_representative(mu))
            assert all(type(a) is array and a.typecode == "l"
                       for a in (act.images, act.orders))
            traces.extend(act.traces.values())
            size += sys.getsizeof(act._maps) + sum(
                sys.getsizeof(key) + sys.getsizeof(maps) + sum(map(sys.getsizeof, maps))
                for key, maps in act._maps.items())
    assert 0 < size < 250_000
    assert traces and all(type(v) is int for v in traces)


def test_multiplicities_divide_exactly_in_ints():
    """The regular character of S_3 is sum_lambda f_lambda chi_lambda, and
    a remainder raises."""
    regular = {(3,): 0, (2, 1): 0, (1, 1, 1): 6}
    expected = {(3,): 1, (2, 1): 2, (1, 1, 1): 1}
    got = multiplicities_from_characters(regular, 3)
    assert got == expected and all(type(m) is int for m in got.values())
    with pytest.raises(ValueError, match="1/2 is not an integer"):
        multiplicities_from_characters({(3,): 0, (2, 1): 0, (1, 1, 1): 3}, 3)
    with pytest.raises(ValueError, match=r"negative multiplicity at \(3,\)"):
        multiplicities_from_characters({(3,): -1, (2, 1): -1, (1, 1, 1): -1}, 3)


def test_split_projection_equivariant_for_split_preserving_maps():
    block = (0, 1, 2, 3)
    part_a, part_b = (0, 1), (2, 3)
    # g preserves the split: swap within each part
    g = (1, 0, 3, 2)
    for subset in [(1,), (2,), (1, 2), (1, 2, 3), (3,)]:
        direct = split_projection(block, subset, part_a, part_b)
        # act then project: the action of g on the block's wedge
        lab = ((block,), (subset,))
        acted = act_on_label(g, lab)
        lhs: dict = {}
        for (blocks2, subs2), c in acted.items():
            for key, v in split_projection(block, subs2[0], part_a, part_b).items():
                lhs[key] = lhs.get(key, QQ(0)) + c * v
        lhs = {k: v for k, v in lhs.items() if v != 0}
        # project then act inside the two parts
        rhs: dict = {}
        for (sa, sb), c in direct.items():
            inner = act_on_label(g, ((part_a, part_b), (sa, sb)))
            for (blocks2, subs2), v in inner.items():
                key = (subs2[0], subs2[1])
                rhs[key] = rhs.get(key, QQ(0)) + c * v
        rhs = {k: v for k, v in rhs.items() if v != 0}
        assert lhs == rhs


def test_alternating_character_identity_per_state():
    """Signed sum of graded characters equals the power sum of the state
    partition, for every state of every fast-corpus graph."""
    from chromhom.symfunc import s_func

    for name, g in FAST_CORPUS:
        n = g.total_weight
        for mask in range(1 << g.m):
            st = state_profile(g, mask)
            space = state_bases(g, mask)
            acc = zero_func("p", n)
            for j in space:
                mults = multiplicities_from_characters(
                    basis_characters([(0, st.block_weights)], j, n), n
                )
                for lam, m in mults.items():
                    acc = acc + basis_convert(
                        s_func(lam, (-1) ** j * m), "p"
                    )
            assert acc.dict() == {st.partition: 1}, (name, mask)


def test_projector_idempotent_and_commuting():
    g = SEGMENT
    space = state_bases(g, 0)
    basis = space[1]
    n = 3
    for lam in partitions_of(n):
        proj = IsotypicProjector(lam, n)
        for pos in range(basis.dim):
            v = {pos: QQ(1)}
            pv = proj.apply(basis, v)
            ppv = proj.apply(basis, pv)
            assert pv == ppv
        # commutes with the action of every group element
        for g_ in permutations(range(n)):
            v = {0: QQ(1)}
            lhs = proj.apply(basis, label_action_matrix(basis, g_).apply(v))
            rhs = label_action_matrix(basis, g_).apply(proj.apply(basis, v))
            assert lhs == rhs


def test_projector_trace_gives_multiplicity():
    g = SEGMENT
    space = state_bases(g, 0)
    n = 3
    # degree-0 piece of the split state: trivial + standard
    basis = space[0]
    expected = {(3,): 1, (2, 1): 1}
    for lam in partitions_of(n):
        proj = IsotypicProjector(lam, n)
        trace = QQ(0)
        for pos in range(basis.dim):
            trace += proj.apply(basis, {pos: QQ(1)}).get(pos, QQ(0))
        assert trace == hook_dimension(lam) * expected.get(lam, 0)


def test_isotypic_rank_matches_brute_force():
    """The class-function route equals literally applying the projector."""
    g = SEGMENT
    cx = ChainComplex(g)
    n = 3
    for (i, j) in [(1, 0), (1, 1)]:
        mat = cx.differential(i, j)
        domain = label_basis(cx.levels[i], j)
        for lam in partitions_of(n):
            proj = IsotypicProjector(lam, n)
            dim_iso, rank_iso = isotypic_rank(proj, mat, cx.levels[i],
                                              cx.levels[i - 1], j)
            # brute force: P applied to every basis vector, then M, then rank
            cols = []
            for pos in range(domain.dim):
                pv = proj.apply(domain, {pos: QQ(1)})
                cols.append(mat.apply(pv))
            from chromhom.linalg import SparseMat, image_rref

            brute = SparseMat(mat.nrows, len(cols), cols)
            assert rank_iso == len(image_rref(brute)[0])
            trace = QQ(0)
            for pos in range(domain.dim):
                trace += proj.apply(domain, {pos: QQ(1)}).get(pos, QQ(0))
            assert dim_iso == trace
            assert dim_iso % hook_dimension(lam) == 0
            assert rank_iso % hook_dimension(lam) == 0


def test_isotypic_rank_example_from_segment():
    # trivial-label multiplicity 1 on both sides of d_{1,0}; the map is
    # injective there, so the isotypic rank is the irreducible's dimension
    cx = ChainComplex(SEGMENT)
    proj = IsotypicProjector((3,), 3)
    dim_iso, rank_iso = isotypic_rank(
        proj, cx.differential(1, 0), cx.levels[1], cx.levels[0], 0
    )
    assert dim_iso == 1 and rank_iso == 1


def test_equivariance_check_names_the_failing_differential():
    cx = ChainComplex(SEGMENT)
    mat = cx.diffs[(1, 0)]
    mat.add_entry(0, 0, 1)  # 1/D_3 = 1/2 of the map over Q
    with pytest.raises(AssertionError, match=r"i=1, j=0\).*permutation \("):
        cx.verify_equivariance()
    proj = IsotypicProjector((3,), 3)
    with pytest.raises(AssertionError, match="not equivariant under permutation"):
        isotypic_rank(proj, mat, cx.levels[1], cx.levels[0], 0)


@pytest.mark.parametrize("shape", [(1, 1, 1), (2, 1, 1)])
def test_equivariance_check_catches_a_map_commuting_with_one_generator(shape):
    """The action of (0 1) commutes with (0 1) but not with (0 1 .. N-1),
    and the other way round, so each must fail, naming the other generator.
    Shape (1, 1, 1) in degree 0 is the regular representation of S_3."""
    n = sum(shape)
    transposition = (1, 0) + tuple(range(2, n))
    cycle = tuple(range(1, n)) + (0,)
    for labels in chain_labels(shape, n).values():
        basis = LabelBasis((0, lab) for lab in labels)
        for g, other in ((transposition, cycle), (cycle, transposition)):
            with pytest.raises(AssertionError,
                               match=re.escape(f"permutation {other}")):
                check_equivariance(label_action_matrix(basis, g), basis, basis, n)


def test_multiplicity_cross_check_against_symfunc():
    for name, g in [("K2(1,2)", SEGMENT), ("P3", path_graph([1, 1, 1]))]:
        cx = ChainComplex(g)
        n = g.total_weight
        for i in range(len(cx.levels)):
            for j in cx.levels[i].degrees():
                mults = multiplicities_from_characters(
                    basis_characters(cx.levels[i].runs(j), j, n), n
                )
                sf = chain_character_symfunc(g, i, j)
                expected = {lam: int(c.numerator) for lam, c in sf.coeffs}
                assert mults == expected


def test_basis_dump_golden():
    shape = state_profile(SEGMENT, 1).block_weights
    lines = [
        "j={} D=({}) S=({})".format(
            j,
            "|".join(",".join(map(str, D)) for D in blocks),
            "|".join(",".join(map(str, S)) for S in subs),
        )
        for j, labels in chain_labels(shape, 3).items()
        for blocks, subs in labels
    ]
    assert lines == [
        "j=0 D=(0,1,2) S=()",
        "j=1 D=(0,1,2) S=(1)",
        "j=1 D=(0,1,2) S=(2)",
        "j=2 D=(0,1,2) S=(1,2)",
    ]


def assert_characters_match_full_action(cx) -> list:
    """`image_characters` equals the full-action-matrix oracle per class on
    every basis of `cx`, for its incoming differential and for no columns;
    returns the image characters."""
    images = []
    for i, level in enumerate(cx.levels):
        for j in level.degrees():
            d, basis = cx.differential(i + 1, j), label_basis(level, j)
            for mat, rank in ((d, rank_forward(d)), (SparseMat(basis.dim, 0), 0)):
                got = image_characters(mat, level.runs(j), j, cx.n_points, rank)
                assert got == full_action_image_characters(
                    mat, basis, cx.n_points, rank)
                images.append(got[1])
    return images


@pytest.mark.parametrize("name,graph", FAST_CORPUS, ids=[n for n, _ in FAST_CORPUS])
def test_image_characters_match_full_action_matrices(name, graph):
    images = assert_characters_match_full_action(ChainComplex(graph))
    assert all(type(x) is int for char in images for x in char.values())


def test_image_characters_of_an_empty_matrix():
    empty = LabelBasis([])
    for n in (1, 3):
        got = image_characters(SparseMat(0, 0), [], 0, n, 0)
        assert got == full_action_image_characters(SparseMat(0, 0), empty, n, 0)
        assert set(got[0].values()) == set(got[1].values()) == {0}


def test_image_characters_match_full_action_on_the_prime_retry(monkeypatch):
    """A form short of the exact rank at the first prime is retried at the
    next one: the characters are the same `int`s."""
    mod_p, primes_tried = linalg.image_rref_mod_p, []

    def short_by_one_at_the_first_prime(mat, p):
        primes_tried.append(p)
        pivots, cols = mod_p(mat, p)
        return (pivots[:-1], cols[:-1]) if p == linalg.PRIMES[0] else (pivots, cols)

    cx = ChainComplex(path_graph([1, 2, 1]))
    expected = assert_characters_match_full_action(cx)
    monkeypatch.setattr(linalg, "image_rref_mod_p", short_by_one_at_the_first_prime)
    images = assert_characters_match_full_action(cx)
    assert images == expected and set(primes_tried) == set(linalg.PRIMES[:2])
    assert all(type(x) is int for char in images for x in char.values())


def test_image_characters_act_only_where_the_traces_read(monkeypatch):
    """From a cold action memo, the traces of P3(1,2,1) act once per
    pattern and relative order they read: 36 `act_on_label` calls (whole
    action matrices per class took 245)."""
    cx = ChainComplex(path_graph([1, 2, 1]))
    calls = []
    original = repn.act_on_label

    def counted(perm, label):
        calls.append(label)
        return original(perm, label)

    repn.shape_action.cache_clear()
    monkeypatch.setattr(repn, "act_on_label", counted)
    homology_table(cx)
    assert 0 < len(calls) <= 36
