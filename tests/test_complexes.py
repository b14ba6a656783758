import re
from math import lcm

import pytest

from chromhom import (
    complete_graph,
    cycle_graph,
    graph_from_weights,
    path_graph,
    per_edge_map,
    single_vertex,
    state_profile,
)
from chromhom import repn
from chromhom._rat import QQ
from chromhom.complexes import ChainComplex
from chromhom.graphs import level_masks
from chromhom.repn import class_representative
from chromhom.symfunc import basis_convert

from corpus import CORPUS, FAST_CORPUS
from oracles import (
    chain_character_symfunc,
    chain_labels,
    expected_dim,
    kernel_images,
    label_action_matrix,
    label_basis,
    label_differentials,
    p_func,
    zero_func,
)

SEGMENT = graph_from_weights([1, 2], [(0, 1)])


def test_weighted_segment_graded_layout():
    cx = ChainComplex(SEGMENT)
    dims = {(i, j): cx.dim(i, j) for i in range(2) for j in range(3)}
    assert dims[(1, 0)] == 1 and dims[(1, 1)] == 2 and dims[(1, 2)] == 1
    assert dims[(0, 0)] == 3 and dims[(0, 1)] == 3
    assert dims[(0, 2)] == 0  # forces H_{1,2} = C_{1,2}
    assert cx.differential(1, 2).is_zero()


def test_path_dims():
    cx = ChainComplex(path_graph([1, 1, 1]))
    assert [cx.levels[i].total_dim for i in range(3)] == [6, 12, 4]
    assert cx.dim(2, 0) == 1 and cx.dim(2, 1) == 2 and cx.dim(2, 2) == 1


def test_per_edge_identity_when_components_survive():
    tri = complete_graph([1, 1, 1])
    # removing one triangle edge keeps the component connected: the
    # identity, D_3 = 2 over D_3
    pem = kernel_images(per_edge_map(tri, 0b111, 0))
    for j, images in pem.items():
        for p, image in enumerate(images):
            assert image == [(p, 2)]


def test_per_edge_map_requires_membership():
    with pytest.raises(ValueError):
        per_edge_map(SEGMENT, 0, 0)


def test_unweighted_segment_split_behavior():
    """Degree 0 part is injective onto the symmetric line; degree 1 dies."""
    k2 = graph_from_weights([1, 1], [(0, 1)])
    cx = ChainComplex(k2)
    d0 = cx.differential(1, 0)
    assert d0.cols[0] == {0: QQ(1), 1: QQ(1)}
    assert cx.differential(1, 1).is_zero()


def test_differential_entries_are_ints():
    """Every differential is an `int` matrix over D_N = lcm(1, .., N - 1)."""
    for name, graph in FAST_CORPUS:
        cx = ChainComplex(graph)
        assert cx.denominator == lcm(*range(1, graph.total_weight)), name
        for mat in cx.diffs.values():
            assert all(type(x) is int for col in mat.cols for x in col.values()), name


def planted_complex():
    """A fresh complex of P3(1,2,1) with 1, that is 1/D_4 = 1/6 of the map
    over Q, added to the entry of d_{1,1} in row 0 and the first row
    d_{2,1} hits."""
    cx = ChainComplex(path_graph([1, 2, 1]))
    assert cx.denominator == 6
    row = min(r for col in cx.diffs[(2, 1)].cols for r in col)
    cx.diffs[(1, 1)].add_entry(0, row, 1)
    return cx


def test_d_squared_catches_a_planted_fraction():
    with pytest.raises(AssertionError, match=re.escape("d.d != 0 at (i=2, j=1)")):
        planted_complex().verify_d_squared()


def test_equivariance_catches_a_planted_fraction():
    with pytest.raises(AssertionError, match=r"^differential at \(i=1, j=1\): "
                       r"map is not equivariant under permutation \(\d"):
        planted_complex().verify_equivariance()


def test_gate_failures_name_the_graph():
    graph = path_graph([1, 2, 1]).serialize()
    for gate in ("verify_d_squared", "verify_equivariance"):
        with pytest.raises(AssertionError) as failure:
            getattr(planted_complex(), gate)()
        assert str(failure.value).endswith(f") of {graph}")


@pytest.mark.parametrize("planted,other", [((1, 0, 2), (1, 2, 0)),
                                           ((1, 2, 0), (1, 0, 2))])
def test_equivariance_catches_a_differential_commuting_with_one_generator(
        planted, other):
    """d_{1,0} A_g of P3(1,1,1) commutes with g but not with the other
    generator, so the gate must fail there, naming the other one."""
    cx = ChainComplex(path_graph([1, 1, 1]))
    act = label_action_matrix(label_basis(cx.levels[1], 0), planted)
    cx.diffs[(1, 0)] = cx.diffs[(1, 0)].matmul(act)
    with pytest.raises(AssertionError, match=re.escape(
            f"differential at (i=1, j=0): map is not equivariant under "
            f"permutation {other} of ")):
        cx.verify_equivariance()


def test_equivariance_acts_on_each_basis_once_per_generator(monkeypatch):
    """The gate acts once per generator, pattern and relative order of a
    shape's block tuples, across complexes: a cold build of P4(1,2,2,1),
    whose states all have distinct shapes, acts on at most 500 labels
    (4,928 when it acted on every label once per generator, 7,986 when
    each differential built both of its own action matrices), and a
    second build of C4(1,1,1,2) acts on none."""
    labels_acted = [0]
    act_on_label = repn.act_on_label

    def counted_action(perm, label):
        labels_acted[0] += 1
        return act_on_label(perm, label)

    repn.shape_action.cache_clear()
    monkeypatch.setattr(repn, "act_on_label", counted_action)
    ChainComplex(path_graph([1, 2, 2, 1]))
    assert 0 < labels_acted[0] <= 500
    ChainComplex(cycle_graph([1, 1, 1, 2]))
    labels_acted[0] = 0
    ChainComplex(cycle_graph([1, 1, 1, 2]))
    assert labels_acted[0] == 0


def test_kernel_action_matches_the_label_oracle():
    """Each level's action matrix, read off the shape-keyed pattern maps
    at state offsets, equals the one built label by label through the
    basis index, for every basis of the corpus under both generators."""
    for name, graph in CORPUS:
        cx = ChainComplex(graph)
        n = cx.n_points
        shapes = {(2,) + (1,) * (n - 2), (n,)} if n > 1 else ()
        for g in (class_representative(mu) for mu in shapes):
            for level in cx.levels:
                for j in level.degrees():
                    assert level.action_matrix(g, j) == label_action_matrix(
                        label_basis(level, j), g), (name, g, j)


def test_runs_lay_out_the_label_keys():
    """Per level and degree, the labels of `runs(j)`, run after run, are the
    label-keyed oracle's, each run starting at its state's first key, and
    every shape is the state's component weights."""
    for name, graph in CORPUS:
        for i, level in enumerate(ChainComplex(graph).levels):
            assert level.masks == level_masks(graph.m, i)
            assert all(shape == state_profile(graph, mask).block_weights
                       for mask, shape in level.shapes.items()), name
            assert level.total_dim == sum(expected_dim(shape, graph.total_weight)
                                          for shape in level.shapes.values())
            for j in level.degrees():
                keys, runs = label_basis(level, j).labels, level.runs(j)
                labels = [lab for _, shape in runs
                          for lab in chain_labels(shape, graph.total_weight)[j]]
                assert labels == [lab for _, lab in keys], (name, i, j)
                assert level.dim(j) == len(keys)
                firsts = {}
                for k, (mask, _) in enumerate(keys):
                    firsts.setdefault(mask, k)
                assert [start for start, _ in runs] == list(firsts.values())
                assert level.offsets[j] == firsts, (name, i, j)


def test_d_squared_and_equivariance_whole_corpus():
    for name, graph in CORPUS:
        cx = ChainComplex(graph)  # constructor asserts both
        assert isinstance(cx, ChainComplex), name


def test_offset_assembly_matches_the_label_oracle():
    """Every stored differential of the corpus equals the one assembled
    label by label through the basis index, column key order included."""
    for name, graph in CORPUS:
        cx = ChainComplex(graph)
        oracle = label_differentials(cx)
        assert list(cx.diffs) == list(oracle), name
        for key, mat in cx.diffs.items():
            assert (mat.nrows, mat.ncols) == (oracle[key].nrows, oracle[key].ncols)
            assert ([list(col.items()) for col in mat.cols]
                    == [list(col.items()) for col in oracle[key].cols]), (name, key)


def test_edge_kernel_memo_is_bounded_by_the_signatures():
    """One kernel per (shape, split slot, slot of B, |A|): P4(1,2,2,1) has
    12 signatures; K3(2,2,2) has 6, the identity on (6,) among them."""
    repn.edge_kernel.cache_clear()
    ChainComplex(path_graph([1, 2, 2, 1]))
    assert repn.edge_kernel.cache_info().currsize == 12
    repn.edge_kernel.cache_clear()
    ChainComplex(complete_graph([2, 2, 2]))
    assert 0 < repn.edge_kernel.cache_info().currsize <= 6


def test_edgeless_complex_concentrated_at_zero():
    cx = ChainComplex(single_vertex(4))
    assert len(cx.levels) == 1
    assert cx.levels[0].total_dim == 8
    assert not cx.diffs


def test_per_level_character_identity():
    """Alternating j-sum of level characters equals the signed state sum
    of power sums at that level."""
    for name, g in FAST_CORPUS:
        n = g.total_weight
        for i in range(g.m + 1):
            acc = zero_func("p", n)
            cx = ChainComplex(g)
            for j in cx.levels[i].degrees():
                acc = acc + basis_convert(
                    chain_character_symfunc(g, i, j), "p"
                ).scale((-1) ** j)
            expected = zero_func("p", n)
            for mask in level_masks(g.m, i):
                expected = expected + p_func(state_profile(g, mask).partition)
            assert acc == expected, (name, i)


def test_matrix_dump():
    cx = ChainComplex(SEGMENT)
    lines = cx.differential(1, 0).dump_lines(cx.denominator)
    assert lines == ["0 0 1", "1 0 1", "2 0 1"]


def test_loop_state_is_case_one():
    looped = graph_from_weights([2, 1], [(0, 0), (0, 1)])
    pem = kernel_images(per_edge_map(looped, 0b01, 0))
    for j, images in pem.items():
        for p, image in enumerate(images):
            assert image == [(p, 2)]  # D_3 over D_3
