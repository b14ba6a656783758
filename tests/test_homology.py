import random
import re

import pytest

from chromhom import (
    ChainComplex,
    complete_graph,
    cycle_graph,
    frobenius_series,
    graph_from_weights,
    homology_table,
    path_graph,
    single_vertex,
    span_indices,
    span_zero,
)
from chromhom import homology, linalg
from chromhom._rat import QQ
from chromhom.lescheck import cached_table
from chromhom.symfunc import basis_convert, csf_state_sum

from corpus import CORPUS, FAST_CORPUS, UNIT_GRAPHS, WEIGHTED_VARIANTS
from oracles import categorification_check, frobenius_value, relabellings

SEGMENT = graph_from_weights([1, 2], [(0, 1)])

SEGMENT_TABLE = {
    (0, 0): {(2, 1): 1},
    (0, 1): {(1, 1, 1): 1},
    (1, 2): {(1, 1, 1): 1},
}

PATH_TABLE = {
    (0, 0): {(1, 1, 1): 1},
    (1, 1): {(2, 1): 1, (1, 1, 1): 2},
    (2, 2): {(1, 1, 1): 1},
}


def test_weighted_segment_golden():
    table = cached_table(SEGMENT)
    assert table.cells == SEGMENT_TABLE


def test_weighted_segment_frobenius():
    series = frobenius_series(cached_table(SEGMENT))
    assert series.text() == "s[2,1] - (q + q^2*t)*s[1,1,1]"
    at_one = frobenius_value(series, 1, 1)
    assert at_one.dict() == {(2, 1): 1, (1, 1, 1): -2}
    at_qt = frobenius_value(series, QQ(1, 2), 3)
    assert at_qt.dict()[(1, 1, 1)] == -(QQ(1, 2) + 3 * QQ(1, 4))


def test_path_golden():
    assert cached_table(path_graph([1, 1, 1])).cells == PATH_TABLE


def test_unweighted_segment():
    table = cached_table(graph_from_weights([1, 1], [(0, 1)]))
    assert table.cells == {(0, 0): {(1, 1): 1}, (1, 1): {(1, 1): 1}}


def test_edgeless_vertex_series():
    # single vertex of weight n: homology is the chain space, and the
    # series is sum_j (-q)^j s_(n-j,1^j)
    for n in (1, 3, 5):
        table = cached_table(single_vertex(n))
        assert table.cells == {
            (0, j): {(n - j,) + (1,) * j: 1} for j in range(n)
        }
        series = frobenius_series(table)
        val = frobenius_value(series, 2, 1)
        expected = {}
        for j in range(n):
            expected[(n - j,) + (1,) * j] = QQ((-2) ** j)
        assert val.dict() == expected


def test_general_weighted_segments_top_row():
    """For any weighted segment the degree-0 row is concentrated at 0."""
    for weights in [(2, 3), (1, 4), (3, 3), (2, 2)]:
        g = graph_from_weights(list(weights), [(0, 1)])
        table = cached_table(g)
        assert (1, 0) not in table.cells
        assert (0, 0) in table.cells


def test_loop_graph_zero_table():
    table = cached_table(graph_from_weights([2, 1], [(0, 1), (1, 1)]))
    assert table.cells == {}
    assert frobenius_series(table).text() == "0"
    assert span_indices(table, 0) is None
    assert span_zero(table) is None


@pytest.mark.parametrize("name,graph", CORPUS)
def test_categorification(name, graph):
    ok, frob_at_one, csf_schur = categorification_check(graph)
    assert ok, f"{name}: {frob_at_one.text()} != {csf_schur.text()}"


@pytest.mark.parametrize("name,graph", CORPUS)
def test_table_ranks_give_the_betti_numbers(name, graph):
    """`HomologyTable.ranks` holds the exact rank of each nonzero d_{i,j},
    and rank-nullity on it gives every Betti number, zeros included."""
    cx, table = ChainComplex(graph), cached_table(graph)
    assert set(table.ranks) == {key for key, d in cx.diffs.items() if d.nnz()}
    for i, level in enumerate(cx.levels):
        for j in level.degrees():
            betti = level.dim(j) - table.ranks.get((i, j), 0) - table.ranks.get((i + 1, j), 0)
            assert betti == table.betti.get((i, j), 0), (name, i, j)


def test_spans_weighted_segment():
    table = cached_table(SEGMENT)
    assert span_indices(table, 0) == (0, 0)
    assert span_zero(table) == 1
    assert span_indices(table, 2) == (1, 1)


def test_spans_path():
    table = cached_table(path_graph([1, 1, 1]))
    assert span_indices(table, 0) == (0, 0)
    assert span_indices(table, 1) == (1, 1)
    assert span_indices(table, 2) == (2, 2)


def test_edge_order_invariance():
    rng = random.Random(42)
    sample = [g for name, g in UNIT_GRAPHS if 1 <= g.m] + [
        g for name, g in WEIGHTED_VARIANTS
        if g.m >= 2 and g.total_weight <= 5
    ]
    for g in sample:
        base = cached_table(g)
        for _ in range(3):
            order = list(range(g.m))
            rng.shuffle(order)
            assert cached_table(g.with_edge_order(tuple(order))) == base


@pytest.mark.parametrize("name,graph", FAST_CORPUS, ids=[n for n, _ in FAST_CORPUS])
def test_table_depends_on_the_graph_up_to_isomorphism(name, graph):
    """What `chromhom homology` relies on to compute each isomorphism class
    of a batch once: three seeded relabellings (vertices permuted, ids
    renamed, edges shuffled, orientations flipped) give an equal table and
    identical JSON."""
    base = homology_table(ChainComplex(graph))
    for seed in range(3):
        table = homology_table(ChainComplex(relabellings(graph, seed)[-1]))
        assert table == base
        assert table.to_json_dict() == base.to_json_dict()


def test_frobenius_single_monomial_coefficients():
    table = cached_table(complete_graph([1, 1, 1]))
    text = frobenius_series(table).text()
    # coefficient polynomials render deterministically
    assert frobenius_series(table).text() == text
    value = frobenius_value(frobenius_series(table), 1, 1)
    assert value == basis_convert(csf_state_sum(complete_graph([1, 1, 1])), "s")


def test_betti_numbers_exposed():
    table = cached_table(SEGMENT)
    assert table.betti.get((0, 0), 0) == 2
    assert table.betti.get((0, 1), 0) == 1
    assert table.betti.get((5, 5), 0) == 0


def test_table_json_shape():
    doc = cached_table(SEGMENT).to_json_dict()
    assert doc["points"] == 3
    assert doc["homology"][0] == {
        "i": 0, "j": 0, "irreducibles": [[[2, 1], 1]], "betti": 2,
    }


def test_rank_mismatch_mod_p_retries_the_next_prime(monkeypatch):
    """A form short of the exact rank at the first prime is retried at the
    next one, with the same table; short at every prime, the error names
    the bidegree and the graph."""
    graph = cycle_graph([1, 1, 1, 1])
    cx = ChainComplex(graph)
    expected = homology_table(cx)
    mod_p, primes_tried = linalg.image_rref_mod_p, []

    def short_by_one_at(short_primes):
        def image_rref_mod_p(mat, p):
            primes_tried.append(p)
            pivots, cols = mod_p(mat, p)
            return (pivots[:-1], cols[:-1]) if p in short_primes else (pivots, cols)
        return image_rref_mod_p

    monkeypatch.setattr(linalg, "image_rref_mod_p", short_by_one_at(linalg.PRIMES[:1]))
    table = homology_table(cx)
    assert table == expected and table.betti == expected.betti
    assert set(primes_tried) == set(linalg.PRIMES[:2])
    monkeypatch.setattr(linalg, "image_rref_mod_p", short_by_one_at(linalg.PRIMES))
    with pytest.raises(AssertionError, match=(
            r"rank computations disagree at \(i=\d+, j=\d+\) of "
            + re.escape(graph.serialize()))):
        homology_table(cx)


def test_wrong_exact_rank_is_reported_with_its_bidegree(monkeypatch):
    cx = ChainComplex(cycle_graph([1, 1, 1, 1]))
    table = homology_table(cx)
    rank = linalg.rank_forward
    monkeypatch.setattr(homology, "rank_forward", lambda mat: rank(mat) + 1)
    with pytest.raises(AssertionError,
                       match=r"rank computations disagree at \(i=\d+, j=\d+\)"):
        homology_table(cx)
    # the message names the differential whose rank is wrong
    for (i, j), wrong in cx.diffs.items():
        if not wrong.nnz():
            continue
        monkeypatch.setattr(homology, "rank_forward",
                            lambda mat: rank(mat) + (mat is wrong))
        with pytest.raises(AssertionError,
                           match=rf"disagree at \(i={i}, j={j}\)"):
            homology_table(cx)
    # too high by the Betti number on both sides, so no cell next to d_{2,0}
    # needs its traces: only the rank comparison sees the error
    assert table.betti[(1, 0)] == table.betti[(2, 0)] == 3
    wrong = cx.diffs[(2, 0)]
    monkeypatch.setattr(homology, "rank_forward",
                        lambda mat: rank(mat) + 3 * (mat is wrong))
    with pytest.raises(AssertionError, match=r"disagree at \(i=2, j=0\)"):
        homology_table(cx)
