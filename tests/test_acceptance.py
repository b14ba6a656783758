"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line with its elapsed time so the suite
doubles as a checklist when run with ``pytest -s tests/test_acceptance.py``.
"""

import random
import time

from chromhom import (
    ChainComplex,
    check_csf_oracle,
    complete_graph,
    disjoint_union,
    frobenius_series,
    graph_from_weights,
    path_graph,
    single_vertex,
    span_indices,
    verify_les,
    verify_structure_theorems,
)
from chromhom.lescheck import (
    cached_table,
    induction_product_table,
    one_box_table,
    solve_quotient_from_row,
)
from chromhom.partitions import hook_dimension

from corpus import CORPUS, WEIGHTED_VARIANTS
from oracles import (
    categorification_check,
    chain_character_symfunc,
    check_deletion_contraction_csf,
    table_character,
    zero_func,
)

SEGMENT = graph_from_weights([1, 2], [(0, 1)])
SEGMENT_TABLE = {
    (0, 0): {(2, 1): 1},
    (0, 1): {(1, 1, 1): 1},
    (1, 2): {(1, 1, 1): 1},
}


def announce(number, elapsed, description):
    print(f"\n[criterion {number:2d}] PASS ({elapsed:6.2f}s) {description}")


def test_criterion_01_weighted_segment_golden():
    start = time.time()
    table = cached_table(SEGMENT)
    assert table.cells == SEGMENT_TABLE
    series = frobenius_series(table)
    assert series.text() == "s[2,1] - (q + q^2*t)*s[1,1,1]"
    elapsed = time.time() - start
    assert elapsed < 1.0
    announce(1, elapsed, "weighted segment homology table and Frobenius series")


def test_criterion_02_path_golden():
    start = time.time()
    table = cached_table(path_graph([1, 1, 1]))
    assert table.cells == {
        (0, 0): {(1, 1, 1): 1},
        (1, 1): {(2, 1): 1, (1, 1, 1): 2},
        (2, 2): {(1, 1, 1): 1},
    }
    elapsed = time.time() - start
    assert elapsed < 5.0
    announce(2, elapsed, "3-path homology table")


def test_criterion_03_les_reproduction():
    start = time.time()
    report = verify_les(path_graph([1, 1, 1]), 0)

    def row(j):
        return [
            (n.part, n.i, n.dim, dict(n.modules))
            for n in report.rows[j]
            if n.dim
        ]

    assert row(0) == [
        ("contracted", 0, 2, {(2, 1): 1}),
        ("deleted", 0, 3, {(2, 1): 1, (1, 1, 1): 1}),
        ("full", 0, 1, {(1, 1, 1): 1}),
    ]
    assert row(1) == [
        ("deleted", 1, 3, {(2, 1): 1, (1, 1, 1): 1}),
        ("full", 1, 4, {(2, 1): 1, (1, 1, 1): 2}),
        ("contracted", 0, 1, {(1, 1, 1): 1}),
    ]
    assert row(2) == [
        ("full", 2, 1, {(1, 1, 1): 1}),
        ("contracted", 1, 1, {(1, 1, 1): 1}),
    ]
    solved = {}
    for j, nodes in report.rows.items():
        for i, mults in solve_quotient_from_row(nodes).items():
            if mults:
                solved[(i, j)] = mults
    assert solved == SEGMENT_TABLE
    elapsed = time.time() - start
    assert elapsed < 10.0
    announce(3, elapsed, "deletion-contraction rows match and solve the segment")


def test_criterion_04_categorification():
    start = time.time()
    assert len(WEIGHTED_VARIANTS) >= 10
    assert all(g.total_weight <= 6 for _, g in WEIGHTED_VARIANTS)
    for name, graph in CORPUS:
        ok, frob, csf = categorification_check(graph, cached_table(graph))
        assert ok, f"{name}: {frob.text()} != {csf.text()}"
    elapsed = time.time() - start
    announce(4, elapsed,
             f"Frob(1,1) equals the state sum on {len(CORPUS)} graphs")


def test_criterion_05_deletion_contraction_csf():
    start = time.time()
    pairs = 0
    for name, graph in CORPUS:
        for e in range(graph.m):
            holds, *_ = check_deletion_contraction_csf(graph, e)
            assert holds, f"{name} edge {e}"
            pairs += 1
    elapsed = time.time() - start
    announce(5, elapsed, f"deletion-contraction identity on {pairs} (G, e) pairs")


def test_criterion_06_differential_and_equivariance():
    start = time.time()
    for name, graph in CORPUS:
        cx = ChainComplex(graph)
        cx.verify_d_squared()
        cx.verify_equivariance()
    elapsed = time.time() - start
    announce(6, elapsed, "d.d = 0 and generator equivariance on every complex")


def test_criterion_07_ses_les_everywhere():
    start = time.time()
    pairs = 0
    for name, graph in CORPUS:
        assert graph.n <= 4 and graph.total_weight <= 6
        for e in range(graph.m):
            verify_les(graph, e)  # raises at the first failed node
            pairs += 1
    elapsed = time.time() - start
    announce(7, elapsed, f"SES/LES exactness at every node for {pairs} pairs")


def test_criterion_08_structure_theorems():
    start = time.time()
    k2 = graph_from_weights([1, 1], [(0, 1)])
    specials = [
        graph_from_weights([1, 1], [(0, 1), (1, 1)]),          # loop
        graph_from_weights([2], [(0, 0)]),                     # single loop
        graph_from_weights([1, 1, 1],
                           [(0, 1), (0, 2), (1, 2), (0, 1)]),  # doubled triangle
        disjoint_union(k2, single_vertex(1)),                  # K2 + K1
        disjoint_union(k2, k2),                                # K2 + K2, w = 4
    ]
    report = verify_structure_theorems(specials + [g for _, g in CORPUS])
    assert report.ok

    # doubled-edge triangle has the triangle's homology
    doubled = specials[2]
    assert cached_table(doubled) == cached_table(complete_graph([1, 1, 1]))

    # disjoint-union formula against direct computation
    direct = cached_table(disjoint_union(k2, k2))
    assert direct.cells == induction_product_table(
        cached_table(k2).cells, cached_table(k2).cells
    )
    union1 = cached_table(disjoint_union(k2, single_vertex(1)))
    assert union1.cells == one_box_table(cached_table(k2).cells)
    assert union1.cells[(0, 0)] == {(2, 1): 1, (1, 1, 1): 1}

    # bounds and contiguity across the corpus
    for name, graph in CORPUS:
        table = cached_table(graph)
        degrees = sorted({j for (_, j) in table.cells})
        for j in degrees:
            k_min, k_max = span_indices(table, j)
            assert k_max <= graph.n - 1, (name, j)
            if j == 0 and graph.m >= 1:
                assert k_max <= graph.n - 2, name
            for i in range(k_min, k_max + 1):
                assert (i, j) in table.cells, (name, i, j)
    elapsed = time.time() - start
    announce(8, elapsed, "loop/parallel/union/box rules, span bounds, contiguity")


def test_criterion_09_coloring_oracle():
    start = time.time()
    for name, graph in CORPUS:
        for k in (1, 2, 3):
            assert check_csf_oracle(graph, k), f"{name} at {k} colors"
    elapsed = time.time() - start
    announce(9, elapsed, "state sum matches the proper-coloring oracle, k <= 3")


def test_criterion_10_property_suite():
    start = time.time()
    rng = random.Random(2024)

    shuffle_sample = [
        g for _, g in CORPUS if g.m >= 2 and g.total_weight <= 5
    ] + [path_graph([2, 2, 2])]
    for graph in shuffle_sample:
        base = cached_table(graph)
        for _ in range(5):
            order = list(range(graph.m))
            rng.shuffle(order)
            shuffled = graph.with_edge_order(tuple(order))
            assert cached_table(shuffled) == base

    # Betti double computation: dimension-weighted multiplicities agree
    # with the rank-nullity Betti numbers stored in the table
    for name, graph in CORPUS:
        table = cached_table(graph)
        for key, mults in table.cells.items():
            total = sum(hook_dimension(lam) * m for lam, m in mults.items())
            assert total == table.betti[key], (name, key)

    # Euler characteristic: alternating homology characters equal the
    # alternating chain characters, combinatorially computed
    for name, graph in CORPUS:
        if graph.total_weight > 5:
            continue
        cx = ChainComplex(graph)
        chain_alt = zero_func("s", graph.total_weight)
        for i in range(len(cx.levels)):
            for j in cx.levels[i].degrees():
                chain_alt = chain_alt + chain_character_symfunc(
                    graph, i, j
                ).scale((-1) ** (i + j))
        assert chain_alt == table_character(cached_table(graph)), name
    elapsed = time.time() - start
    announce(10, elapsed, "shuffle invariance, Betti cross-check, Euler identity")
