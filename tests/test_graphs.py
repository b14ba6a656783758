import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from chromhom.graphs import (
    build_graph,
    canonical_form,
    complete_graph,
    count_blocks,
    cycle_graph,
    disjoint_union,
    graph_from_weights,
    induced_subgraph,
    level_masks,
    modify_edge,
    path_graph,
    removal_sign,
    single_vertex,
    state_profile,
)

from corpus import CORPUS
from oracles import isomorphic, relabellings, tarjan_count_blocks


def test_build_weighted_segment():
    g = build_graph({
        "vertices": [{"id": "a", "weight": 1}, {"id": "b", "weight": 2}],
        "edges": [["a", "b"]],
    })
    assert g.ids == ("a", "b")
    assert g.weights == (1, 2)
    assert g.edges == ((0, 1),)
    assert g.total_weight == 3


def test_build_single_vertex():
    g = build_graph({"vertices": [{"id": "x", "weight": 4}], "edges": []})
    assert g.n == 1 and g.m == 0 and g.total_weight == 4


@pytest.mark.parametrize("doc,message", [
    ({"vertices": [], "edges": []}, "at least one vertex"),
    ({"vertices": [{"id": "a", "weight": 0}], "edges": []}, "weight"),
    ({"vertices": [{"id": "a", "weight": 1}], "edges": [["a", "c"]]}, "not a declared vertex"),
    ({"vertices": [{"id": "a", "weight": 1}, {"id": "a", "weight": 2}],
      "edges": []}, "duplicate"),
])
def test_build_rejects_invalid(doc, message):
    with pytest.raises(ValueError, match=message):
        build_graph(doc)


def test_serialize_round_trip_preserves_orders():
    g = graph_from_weights([2, 1, 3], [(2, 0), (0, 1), (1, 2)])
    doc = json.loads(g.serialize())
    again = build_graph(doc)
    assert again == g
    assert again.serialize() == g.serialize()


def test_contract_path_gives_weighted_segment():
    g = path_graph([1, 1, 1])
    c = modify_edge(g, 0, "contract")
    assert c.weights == (2, 1)
    assert c.edges == ((0, 1),)


def test_contract_triangle_gives_double_edge():
    g = complete_graph([1, 1, 1])
    c = modify_edge(g, 0, "contract")
    assert c.n == 2
    assert c.edges == ((0, 1), (0, 1))


def test_contract_loop_removes_it():
    g = graph_from_weights([3], [(0, 0)])
    c = modify_edge(g, 0, "contract")
    assert c.n == 1 and c.m == 0 and c.weights == (3,)


def test_contract_creates_loop_from_parallel():
    g = graph_from_weights([1, 1], [(0, 1), (0, 1)])
    c = modify_edge(g, 0, "contract")
    assert c.edges == ((0, 0),)


def test_delete_keeps_edge_order():
    g = complete_graph([1, 1, 1, 1])
    d = modify_edge(g, 2, "delete")
    assert d.edges == tuple(e for k, e in enumerate(g.edges) if k != 2)
    assert d.m == g.m - 1


def test_contract_counts():
    for name, g in CORPUS:
        for e in range(g.m):
            if g.is_loop(e):
                continue
            c = modify_edge(g, e, "contract")
            assert c.n == g.n - 1
            assert c.total_weight == g.total_weight


def test_modify_rejects_bad_index():
    with pytest.raises(ValueError):
        modify_edge(single_vertex(1), 0, "delete")


def test_state_profile_weighted_segment():
    g = graph_from_weights([1, 2], [(0, 1)])
    empty = state_profile(g, 0)
    assert empty.blocks == ((0,), (1,))
    assert empty.partition == (2, 1)
    full = state_profile(g, 1)
    assert full.blocks == ((0, 1),)
    assert full.partition == (3,)


def test_state_profile_path():
    g = path_graph([1, 1, 1])
    st_ = state_profile(g, 0b01)
    assert st_.blocks == ((0, 1), (2,))
    assert st_.partition == (2, 1)


def test_partition_sums_to_total_weight():
    for name, g in CORPUS:
        for mask in range(1 << g.m):
            assert sum(state_profile(g, mask).partition) == g.total_weight


def test_adding_edge_merges_at_most_one_block():
    for name, g in CORPUS:
        for mask in range(1 << g.m):
            r = len(state_profile(g, mask).blocks)
            for e in range(g.m):
                if mask >> e & 1:
                    continue
                r2 = len(state_profile(g, mask | 1 << e).blocks)
                assert r2 in (r, r - 1)


def test_removal_signs_small():
    # two edges in the state: earlier edge has sign +, later has sign -
    assert removal_sign(0b11, 0) == 1
    assert removal_sign(0b11, 1) == -1
    # F = {e0, e2}: removing e2 sees one earlier edge
    assert removal_sign(0b101, 2) == -1
    assert removal_sign(0b101, 0) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=10), st.data())
def test_double_removal_anticommutes(m, data):
    """The combinatorial core of d.d = 0."""
    mask = data.draw(st.integers(min_value=0, max_value=(1 << m) - 1))
    edges = [e for e in range(m) if mask >> e & 1]
    if len(edges) < 2:
        return
    e, f = random.Random(data.draw(st.integers(0, 999))).sample(edges, 2)
    lhs = removal_sign(mask, e) * removal_sign(mask & ~(1 << e), f)
    rhs = removal_sign(mask, f) * removal_sign(mask & ~(1 << f), e)
    assert lhs == -rhs


def test_level_masks_counts():
    assert len(level_masks(4, 2)) == 6
    assert level_masks(2, 1) == [1, 2]


def test_disjoint_union_relabels_collisions():
    a = single_vertex(1, vid="x")
    b = single_vertex(2, vid="x")
    u = disjoint_union(a, b)
    assert len(set(u.ids)) == 2
    assert u.total_weight == 3


def test_count_blocks():
    assert count_blocks(path_graph([1, 1, 1])) == 2
    assert count_blocks(complete_graph([1, 1, 1])) == 1
    assert count_blocks(single_vertex(1)) == 1
    paw = graph_from_weights([1, 1, 1, 1], [(0, 1), (0, 2), (1, 2), (2, 3)])
    assert count_blocks(paw) == 2
    k2k1 = disjoint_union(path_graph([1, 1]), single_vertex(1))
    assert count_blocks(k2k1) == 2


def test_count_blocks_matches_tarjan():
    """The block-cut-tree count agrees with the depth-first search on every
    corpus graph and on 2,000 seeded random multigraphs, among them graphs
    with loops, parallel edges and isolated vertices."""
    rng = random.Random(2211)
    graphs = [g for _, g in CORPUS]
    for _ in range(2000):
        n, m = rng.randint(1, 7), rng.randint(0, 10)
        graphs.append(graph_from_weights([rng.randint(1, 3) for _ in range(n)],
                                         [(rng.randrange(n), rng.randrange(n))
                                          for _ in range(m)]))
    for g in graphs:
        assert count_blocks(g) == tarjan_count_blocks(g), g
    assert any(g.has_loop() for g in graphs) and any(g.parallel_pairs() for g in graphs)
    assert any(all(x not in e for e in g.edges) for g in graphs for x in range(g.n))


def test_induced_subgraph_keeps_order_and_drops_leaving_edges():
    g = graph_from_weights([1, 2, 3, 4], [(2, 0), (1, 3), (0, 2), (3, 3), (2, 1), (0, 3)],
                           ids=("a", "b", "c", "d"))
    sub = induced_subgraph(g, (3, 0, 2))
    assert sub.ids == ("d", "a", "c")
    assert sub.weights == (4, 1, 3)
    # edges among {d, a, c} in g's order and orientation: (c, a), (a, c), (d, d), (a, d)
    assert sub.edges == ((2, 1), (1, 2), (0, 0), (1, 0))
    assert induced_subgraph(g, range(4)) == g
    assert induced_subgraph(g, (1,)) == (("b",), (2,), ())  # both its edges leave


def test_with_edge_order():
    g = path_graph([1, 1, 1])
    shuffled = g.with_edge_order((1, 0))
    assert shuffled.edges == (g.edges[1], g.edges[0])
    with pytest.raises(ValueError):
        g.with_edge_order((0, 0))


@pytest.mark.parametrize("name,graph", CORPUS, ids=[n for n, _ in CORPUS])
def test_canonical_form_ignores_relabelling(name, graph):
    """Permuted vertices, renamed ids, shuffled edges and flipped
    orientations, one at a time and all at once, keep the form."""
    form = canonical_form(graph)
    assert form is not None
    for seed in range(3):
        assert all(canonical_form(g) == form for g in relabellings(graph, seed))


def test_canonical_forms_of_the_corpus_are_distinct():
    assert len({canonical_form(g) for _, g in CORPUS}) == len(CORPUS)


@pytest.mark.parametrize("a,b", [
    (path_graph([1, 2, 1]), path_graph([2, 1, 1])),  # same weights, other places
    (graph_from_weights([1, 1, 1], [(0, 1), (2, 2)]),  # a loop ...
     path_graph([1, 1, 1])),  # ... against a pendant edge: degrees 1, 1, 2 both
    (graph_from_weights([1, 1, 1, 1], [(0, 1), (0, 1), (2, 3)]),  # a doubled edge ...
     path_graph([1, 1, 1, 1])),  # ... against a path: degrees 1, 1, 2, 2 both
    (cycle_graph([1] * 6),
     disjoint_union(complete_graph([1] * 3), complete_graph([1] * 3))),
], ids=["P3-weights", "loop-pendant", "double-path", "C6-2K3"])
def test_canonical_form_separates_look_alikes(a, b):
    assert canonical_form(a) != canonical_form(b)
    assert not isomorphic(a, b)


def test_canonical_form_decides_isomorphism():
    """On small random weighted multigraphs with loops and parallel edges,
    and a relabelling of each, two forms are equal exactly when a
    brute-force search finds an isomorphism."""
    rng = random.Random(5)
    graphs = []
    for seed in range(40):
        n = rng.randint(1, 4)
        g = graph_from_weights([rng.randint(1, 2) for _ in range(n)],
                               [(rng.randrange(n), rng.randrange(n))
                                for _ in range(rng.randint(0, 4))])
        graphs += [g, relabellings(g, seed)[-1]]
    pairs = [(canonical_form(a) == canonical_form(b), isomorphic(a, b))
             for k, a in enumerate(graphs) for b in graphs[k + 1:]]
    assert all(same == iso for same, iso in pairs)
    assert sum(iso for _, iso in pairs) > 40  # every copy, and some chance pairs


def test_canonical_form_is_none_above_7_factorial_relabellings():
    """7 interchangeable vertices fit (7! relabellings); 8 do not, unless
    their keys split them into cells."""
    assert canonical_form(graph_from_weights([1] * 7, [])) is not None
    assert canonical_form(graph_from_weights([1] * 8, [])) is None
    assert canonical_form(cycle_graph([1] * 8)) is None
    assert canonical_form(graph_from_weights([1] * 4 + [2] * 4, [])) is not None
    assert canonical_form(path_graph([1] * 8)) is not None  # cells of 2 and 6
