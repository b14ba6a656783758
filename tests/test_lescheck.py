import hashlib
import json
import re
from pathlib import Path

import pytest

from chromhom import (
    HomologyTable,
    build_ses_maps,
    complete_graph,
    cycle_graph,
    disjoint_union,
    graph_from_weights,
    modify_edge,
    path_graph,
    single_vertex,
    verify_les,
    verify_structure_theorems,
)
from chromhom._rat import QQ
from chromhom.complexes import ChainComplex
from chromhom.lescheck import (
    ChainMap,
    HomologyBasis,
    cached_table,
    induction_product_table,
    one_box_table,
    solve_quotient_from_row,
)
from chromhom.linalg import SparseMat, _integer

from corpus import CORPUS, FAST_CORPUS
from oracles import (
    fraction_kernel_basis,
    fraction_rank_forward,
    fraction_zigzag,
    label_ses_maps,
    mod_p,
    scale_kernel,
)

P3 = path_graph([1, 1, 1])


def test_ses_dimension_split():
    """Levelwise dims of the path split as deleted + shifted contracted."""
    cx = ChainComplex(P3)
    cx_del = ChainComplex(modify_edge(P3, 0, "delete"))
    cx_con = ChainComplex(modify_edge(P3, 0, "contract"))
    for i in range(3):
        for j in cx.levels[i].degrees():
            left = cx_del.dim(i, j)
            right = cx_con.dim(i - 1, j) if i else 0
            assert cx.dim(i, j) == left + right
    # the specific count: C_{1,0}(path) = 3 + 3
    assert cx.dim(1, 0) == 6
    assert cx_del.dim(1, 0) == 3 and cx_con.dim(0, 0) == 3


def test_ses_maps_verify():
    inc, proj = build_ses_maps(P3, 0)
    # level 0: projection is zero, inclusion is an isomorphism
    assert proj.mat(0, 0).is_zero()
    assert inc.mat(0, 0).nrows == inc.mat(0, 0).ncols == 6


@pytest.mark.parametrize("name,graph", [c for c in CORPUS if c[1].m])
def test_ses_maps_match_the_label_oracle(name, graph):
    """On every edge of the corpus, the identity blocks at state offsets
    are the inclusion and projection built through the label index."""
    for e in range(graph.m):
        inclusion, projection = build_ses_maps(graph, e)
        inc, proj = label_ses_maps(graph, e)
        assert inclusion.mats == inc, (name, e)
        assert projection.mats == proj, (name, e)


def test_projection_twist_trivial_for_last_edge():
    _, proj = build_ses_maps(P3, 1)  # last edge in the order
    for (i, j), mat in proj.mats.items():
        for col in mat.cols:
            for v in col.values():
                assert v == QQ(1)


def test_projection_twist_signs_for_first_edge():
    _, proj = build_ses_maps(P3, 0)
    seen = set()
    for (i, j), mat in proj.mats.items():
        for col in mat.cols:
            seen.update(col.values())
    assert QQ(-1) in seen  # states containing both edges get twisted


def test_les_path_rows_match_reference():
    """The three degree rows of the deletion-contraction sequence for the
    3-path, node for node."""
    report = verify_les(P3, 0)

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


def test_les_rows_solve_to_contracted_table():
    report = verify_les(P3, 0)
    solved = {}
    for j, nodes in report.rows.items():
        for i, mults in solve_quotient_from_row(nodes).items():
            if mults:
                solved[(i, j)] = mults
    assert solved == {
        (0, 0): {(2, 1): 1},
        (0, 1): {(1, 1, 1): 1},
        (1, 2): {(1, 1, 1): 1},
    }
    # and directly: the contracted graph is the weighted segment
    contracted = modify_edge(P3, 0, "contract")
    assert contracted.weights == (2, 1)
    assert cached_table(contracted).cells == solved


def test_solve_quotient_from_row_reads_the_row_sums():
    """The one contracted node of nonzero dimension (rank in + rank out) is
    -(-1)^k times the row sums of the known nodes, and the others are 0.
    A row with two such nodes, a negative solution or one of the wrong
    dimension raises."""
    from chromhom.lescheck import LESNode

    def row(*known):
        return [LESNode("contracted", 1, 0, 1, {}, 0, 1), LESNode("contracted", 0, 0, 0, {}, 0, 0),
                *(LESNode("deleted", 0, 0, 0, modules, 0, 0) for modules in known)]

    assert solve_quotient_from_row(row({}, {(2,): 1})) == {1: {(2,): 1}, 0: {}}
    for nodes, message in (
            (row({}, {(2,): 1})[:1] * 2, "row has more than one undetermined node"),
            (row({(2,): 1}), "row cannot be solved consistently"),
            (row({}, {(2,): 1, (1, 1): 1}), "solved node contradicts its forced dimension")):
        with pytest.raises(ValueError, match=message):
            solve_quotient_from_row(nodes)


@pytest.mark.parametrize("name,graph", [c for c in FAST_CORPUS if c[1].m])
def test_les_fast_corpus_every_edge(name, graph):
    for e in range(graph.m):
        report = verify_les(graph, e)
        for j, nodes in report.rows.items():
            where = f"{name} edge {e} row {j}"
            assert nodes[0].rank_in == 0, where
            assert nodes[-1].rank_out == 0, where
            for a, b in zip(nodes, nodes[1:]):
                assert a.rank_out == b.rank_in, where


def test_les_weighted_triangle_edge():
    verify_les(complete_graph([1, 1, 2]), 0)


def test_loop_kills_homology():
    looped = graph_from_weights([1, 1], [(0, 1), (1, 1)])
    assert cached_table(looped).cells == {}
    single_loop = graph_from_weights([2], [(0, 0)])
    assert cached_table(single_loop).cells == {}


def test_loop_connecting_is_iso():
    """At a loop the connecting map is an isomorphism at every bidegree:
    the mechanism that kills the homology of a graph with a loop."""
    looped = graph_from_weights([1, 1], [(0, 1), (1, 1)])
    contracted = [
        nd for nodes in verify_les(looped, 1).rows.values() for nd in nodes
        if nd.part == "contracted" and nd.dim
    ]
    assert contracted
    assert all(nd.rank_out == nd.dim for nd in contracted)


def test_parallel_edge_invariance():
    doubled = graph_from_weights([1, 1, 1], [(0, 1), (0, 2), (1, 2), (0, 1)])
    plain = complete_graph([1, 1, 1])
    assert cached_table(doubled) == cached_table(plain)


def test_disjoint_union_segment_plus_point():
    k2 = graph_from_weights([1, 1], [(0, 1)])
    union = disjoint_union(k2, single_vertex(1))
    expected = induction_product_table(
        cached_table(k2).cells, cached_table(single_vertex(1)).cells
    )
    assert expected == cached_table(union).cells
    # adding one box to the sign representation of two points
    assert expected[(0, 0)] == {(2, 1): 1, (1, 1, 1): 1}


def test_disjoint_union_two_segments():
    k2 = graph_from_weights([1, 1], [(0, 1)])
    union = disjoint_union(k2, k2)
    expected = induction_product_table(cached_table(k2).cells, cached_table(k2).cells)
    assert expected == cached_table(union).cells
    assert expected[(0, 0)] == {(2, 2): 1, (2, 1, 1): 1, (1, 1, 1, 1): 1}
    assert expected[(1, 1)][(2, 2)] == 2


@pytest.mark.parametrize("coeff", [QQ(1, 2), QQ(-1)], ids=["fraction", "negative"])
def test_disjoint_union_refuses_a_bad_littlewood_richardson_coefficient(monkeypatch, coeff):
    """A Schur product term that is not a nonnegative integer cannot be an
    induction multiplicity: it raises instead of entering the table."""
    from chromhom import symfunc

    monkeypatch.setattr(symfunc, "schur_multiply",
                        lambda a, b: symfunc.SymFunc.make("s", 3, {(2, 1): coeff}))
    cells = cached_table(graph_from_weights([1, 1], [(0, 1)])).cells
    with pytest.raises(ValueError, match=re.escape(
            f"Littlewood-Richardson coefficient {coeff} at (2, 1) is not a nonnegative integer")):
        induction_product_table(cells, cached_table(single_vertex(1)).cells)


def test_one_box_rule_matches_union_formula():
    k2 = graph_from_weights([1, 1], [(0, 1)])
    union = disjoint_union(k2, single_vertex(1))
    assert one_box_table(cached_table(k2).cells) == cached_table(union).cells


def test_structure_suite_passes():
    graphs = [
        graph_from_weights([1, 1], [(0, 1), (1, 1)]),     # loop
        graph_from_weights([1, 1], [(0, 1), (0, 1)]),     # parallel
        disjoint_union(graph_from_weights([1, 1], [(0, 1)]), single_vertex(1)),
        disjoint_union(
            graph_from_weights([1, 1], [(0, 1)]),
            graph_from_weights([1, 1], [(0, 1)]),
        ),
        complete_graph([1, 1, 1]),
        P3,
    ]
    report = verify_structure_theorems(graphs)
    assert report.ok
    checks = {(r.graph, r.check): r.status for r in report.results}
    triangle_key = complete_graph([1, 1, 1]).serialize()
    assert checks[(triangle_key, "kmax-bounds")] == "PASS"
    assert any(f["lower_bound_holds"] for f in report.c6_findings)


def test_structure_suite_catches_planted_failure(monkeypatch):
    """A table with homology above i = n - 1 must read FAIL, not pass."""
    from chromhom import lescheck

    triangle = complete_graph([1, 1, 1])
    good = cached_table(triangle)
    tampered = dict(good.cells)
    tampered[(3, 3)] = {(1, 1, 1): 1}
    bad_table = HomologyTable(3, tampered, {**good.betti, (3, 3): 1}, good.ranks)
    monkeypatch.setattr(
        lescheck, "cached_table",
        lambda g: bad_table if g == triangle else cached_table(g),
    )
    report = verify_structure_theorems([triangle])
    checks = {r.check: r.status for r in report.results}
    assert checks["kmax-bounds"] == "FAIL"
    assert not report.ok


def test_snake_check_reads_per_edge_maps_once_per_state(monkeypatch):
    """The connecting matrix Z = (-1)^i E is built from per_edge_map, once
    per state of G/e; doubled per-edge maps fail the Lift identity at the
    first contracted node with a nonzero Z."""
    from chromhom import lescheck

    original = lescheck.per_edge_map
    calls = []

    def counted(graph, mask, e):
        calls.append(mask)
        return original(graph, mask, e)

    def doubled(graph, mask, e):
        return scale_kernel(counted(graph, mask, e), 2)

    monkeypatch.setattr(lescheck, "per_edge_map", counted)
    verify_les(P3, 0)
    assert 0 < len(calls) <= 2 ** (P3.m - 1)

    monkeypatch.setattr(lescheck, "per_edge_map", doubled)
    with pytest.raises(AssertionError, match=r"edge 0 at \(contracted, i=1, "
                       r"j=0\): boundary of a lift touches e-states"):
        verify_les(P3, 0)


@pytest.mark.parametrize("mask,i", [(0b01, 0), (0b11, 1)],
                         ids=["edge-0-alone", "both-edges"])
def test_snake_check_fixes_the_sign_per_state(monkeypatch, mask, i):
    """Z_i = (-1)^i E_i with no free sign: the per-edge map of one state of
    P3 edge 0 planted with the opposite sign must fail the Lift identity at
    the contracted node of that state, naming the graph, the edge and the
    node."""
    from chromhom import lescheck

    original = lescheck.per_edge_map

    def flipped(graph, state, e):
        pem = original(graph, state, e)
        return scale_kernel(pem, -1) if state == mask else pem

    monkeypatch.setattr(lescheck, "per_edge_map", flipped)
    with pytest.raises(AssertionError, match=re.escape(
            f"LES of {P3.serialize()} edge 0 at (contracted, i={i}, j=0): "
            "boundary of a lift touches e-states")):
        verify_les(P3, 0)


def test_snake_check_divides_out_the_scale(monkeypatch):
    """The per-edge maps of C4(1,1,1,2) and its differentials share the
    denominator D_5 = 12, so Z_i = (-1)^i E_i, the per-edge maps as stored,
    is 12 times the zig-zag.  Per-edge maps planted at exactly 12 times
    their value at (i=2, j=1) of edge 0, what a second scaling would give,
    must fail the Lift identity at that node."""
    from chromhom import lescheck

    graph, e, i, j = cycle_graph([1, 1, 1, 2]), 0, 2, 1
    scale = ChainComplex(graph).denominator
    assert scale == 12
    original = lescheck.per_edge_map

    def planted(g, mask, edge):
        pem = original(g, mask, edge)
        if mask.bit_count() != i + 1:
            return pem
        return scale_kernel(pem, scale, degree=j)

    monkeypatch.setattr(lescheck, "per_edge_map", planted)
    with pytest.raises(AssertionError, match=re.escape(
            f"edge 0 at (contracted, i={i}, j={j}): boundary of a lift "
            "touches e-states")):
        verify_les(graph, e)


@pytest.mark.parametrize("key,node,problem", [
    ((1, 1), "contracted, i=1, j=1", "boundary of a lift touches e-states"),
    ((1, 0), "contracted, i=1, j=0", "boundary of a lift touches e-states"),
    ((0, 0), "contracted, i=0, j=0", "inclusion does not commute"),
], ids=["lift-j1", "lift-j0", "zig-zag"])
def test_les_names_the_node_of_a_planted_inclusion_fault(monkeypatch, key,
                                                        node, problem):
    """One inclusion column zeroed after `build_ses_maps`: the contracted
    node of its own level must catch it, naming the graph, the edge and the
    node.  At i=1 no differential of G\\e leaves level 2, so Lift, which
    reads I_1 Z_1, catches it; a zeroed I_0 column is hit by d_{G\\e,1}, so
    the Inclusion identity, checked first at that node, catches it."""
    from chromhom import lescheck

    original = lescheck.build_ses_maps

    def faulty(graph, e):
        inclusion, projection = original(graph, e)
        inclusion.mats[key].cols[0] = {}
        return inclusion, projection

    monkeypatch.setattr(lescheck, "build_ses_maps", faulty)
    where = re.escape(f"LES of {P3.serialize()} edge 0 at ({node}): ")
    with pytest.raises(AssertionError, match=where + problem):
        verify_les(P3, 0)


@pytest.mark.parametrize("key,node,problem", [
    ((1, 1), "contracted, i=1, j=1", "boundary of a lift touches e-states"),
    ((1, 0), "contracted, i=1, j=0", "boundary of a lift touches e-states"),
    ((2, 2), "full, i=2, j=2", "levelwise exactness fails"),
], ids=["lift", "lift-j0", "inexact-node"])
def test_les_names_the_node_of_a_planted_projection_fault(monkeypatch, key,
                                                         node, problem):
    """One projection column zeroed after `build_ses_maps`: the Lift
    identity, which reads P_i^T d_{G/e,i}, must catch it, or, for P_2 at
    j = 2, which no differential of G/e reaches, the Split identity
    S_2^T S_2 = Id at the full node (i=2, j=2), before any rank is read;
    either names the graph, the edge and the node."""
    from chromhom import lescheck

    original = lescheck.build_ses_maps

    def faulty(graph, e):
        inclusion, projection = original(graph, e)
        projection.mats[key].cols[0] = {}
        return inclusion, projection

    monkeypatch.setattr(lescheck, "build_ses_maps", faulty)
    where = re.escape(f"LES of {P3.serialize()} edge 0 at ({node}): ")
    with pytest.raises(AssertionError, match=where + problem):
        verify_les(P3, 0)


def test_les_catches_a_projection_fault_off_every_cycle(monkeypatch):
    """A projection column of (i=2, j=0) zeroed after `build_ses_maps` lies
    off the support of every cycle the LES check lifts, so only the
    whole-matrix Split identity S_2^T S_2 = Id catches it, at the full node
    of its own level, naming the graph, the edge and the node."""
    from chromhom import lescheck

    original = lescheck.build_ses_maps

    def faulty(graph, e):
        inclusion, projection = original(graph, e)
        projection.mats[(2, 0)].cols[0] = {}
        return inclusion, projection

    monkeypatch.setattr(lescheck, "build_ses_maps", faulty)
    where = re.escape(f"LES of {P3.serialize()} edge 0 at (full, i=2, j=0): ")
    with pytest.raises(AssertionError, match=where + "levelwise exactness fails"):
        verify_les(P3, 0)


def test_les_certificate_catches_a_boundary_between_states_without_e(monkeypatch):
    """An entry of d_{G,1} between states without e, planted in a copy of
    C(G) after `build_ses_maps`, leaves Z and Lift as they were (P^T never
    reaches that column).  It breaks the certificate
    Z_0 P_1 + d_{G\\e,1} I_1^T = I_0^T d_{G,1}, which follows from the
    Inclusion identity d_{G,1} I_1 = I_0 d_{G\\e,1}, and that identity
    catches it, naming the node.  The exact identities run before any
    table, so none is built from the planted complex: its table would read
    a negative multiplicity."""
    from chromhom import lescheck

    original = lescheck.build_ses_maps

    def faulty(graph, e):
        inclusion, projection = original(graph, e)
        planted = ChainComplex(graph)
        col = next(c for c, v in enumerate(projection.mats[(1, 0)].cols) if not v)
        planted.diffs[(1, 0)].add_entry(0, col, 1)
        projection.source = planted
        return inclusion, projection

    monkeypatch.setattr(lescheck, "build_ses_maps", faulty)
    monkeypatch.setattr(lescheck, "homology_table", None)
    where = re.escape(f"LES of {P3.serialize()} edge 0 at (contracted, i=0, j=0): ")
    with pytest.raises(AssertionError, match=where + "inclusion does not commute"):
        verify_les(P3, 0)


def test_les_full_node_catches_a_projection_onto_a_cocycle(monkeypatch):
    """A projection column of a state without e set, after `build_ses_maps`,
    to a cocycle u of G/e (u^T d_{G/e,1} = 0) changes neither P^T d_{G/e}
    nor any contracted-node identity; only the Split identity catches it,
    through P I = 0, at the full node, naming the graph, the edge and the
    node."""
    from chromhom import lescheck

    original = lescheck.build_ses_maps

    def faulty(graph, e):
        inclusion, projection = original(graph, e)
        d_con = projection.target.differential(1, 0)
        cocycle = _integer(fraction_kernel_basis(d_con.transpose())[0])
        mat = projection.mats[(1, 0)]
        mat.cols[next(c for c, v in enumerate(mat.cols) if not v)] = cocycle
        return inclusion, projection

    monkeypatch.setattr(lescheck, "build_ses_maps", faulty)
    where = re.escape(f"LES of {P3.serialize()} edge 0 at (full, i=1, j=0): ")
    with pytest.raises(AssertionError, match=where + "levelwise exactness fails"):
        verify_les(P3, 0)


SWEPT = [P3, complete_graph([1, 1, 1]), path_graph([1, 2, 1])]


def les_failure(graph, e):
    """The message of `verify_les`' failure on edge e, None if it passes."""
    try:
        verify_les(graph, e)
    except AssertionError as exc:
        return str(exc)
    return None


def column_faults(mat):
    """(column, fault, faulty column) for each column of `mat` zeroed,
    negated or given +1 at row 0, where that changes it."""
    for c, col in enumerate(mat.cols):
        faults = {"zero": {}, "negate": {r: -v for r, v in col.items()}}
        if mat.nrows:
            faults["plus"] = {r: v for r, v in {**col, 0: col.get(0, 0) + 1}.items() if v}
        yield from ((c, fault, new) for fault, new in faults.items() if new != col)


def test_les_catches_single_column_faults_of_the_ses_maps(monkeypatch):
    """Each column of I or P zeroed, negated or given +1 at row 0 after
    `build_ses_maps`, on every edge of P3, K3(1,1,1) and P3(1,2,1):
    968 faults change a matrix, and `verify_les` raises on all but 4.  Those
    negate the 1 x 1 block of P at the state with both edges, (2, 2) of P3
    and (2, 3) of P3(1,2,1), on either edge: no differential reaches that
    degree on either side, so -P splits the sequence as P does."""
    from chromhom import lescheck

    survivors, faults = [], 0
    for graph in SWEPT:
        for e in range(graph.m):
            maps = build_ses_maps(graph, e)
            for which, chain_map in enumerate(maps):
                for key, mat in chain_map.mats.items():
                    for c, fault, new in column_faults(mat):
                        cols = list(mat.cols)
                        cols[c] = new
                        planted = list(maps)
                        planted[which] = ChainMap(
                            chain_map.source, chain_map.target, chain_map.shift,
                            {**chain_map.mats, key: SparseMat(mat.nrows, mat.ncols, cols)})
                        monkeypatch.setattr(lescheck, "build_ses_maps",
                                            lambda g, edge: tuple(planted))
                        faults += 1
                        if les_failure(graph, e) is None:
                            survivors.append((graph.weights, e, "IP"[which], key, c, fault))
    assert faults == 968
    assert survivors == [((1, 1, 1), 0, "P", (2, 2), 0, "negate"),
                         ((1, 1, 1), 1, "P", (2, 2), 0, "negate"),
                         ((1, 2, 1), 0, "P", (2, 3), 0, "negate"),
                         ((1, 2, 1), 1, "P", (2, 3), 0, "negate")]


def test_les_catches_single_column_faults_of_the_differentials(monkeypatch):
    """Each column of a differential of G, G\\e or G/e zeroed, negated or
    given +1 at row 0 after `build_ses_maps`, on every edge of P3, K3(1,1,1)
    and P3(1,2,1): all 759 faults raise an `AssertionError` naming a node.
    The exact identities say d_G S_{i+1} = S_i M_i with S_i invertible, so
    they read every column of d_G, of d_{G\\e} (through I_i) and of d_{G/e}
    (through P_i^T), and they run before a table is built from the faulty
    complex."""
    from chromhom import lescheck

    faults = 0
    for graph in SWEPT:
        for e in range(graph.m):
            maps = build_ses_maps(graph, e)
            monkeypatch.setattr(lescheck, "build_ses_maps", lambda g, edge: maps)
            node = re.compile(re.escape(f"LES of {graph.serialize()} edge {e} at (")
                              + r"(contracted|deleted|full), i=\d+, j=\d+\): ")
            for cx in (maps[1].source, maps[0].source, maps[1].target):
                for key, mat in list(cx.diffs.items()):
                    for c, fault, new in column_faults(mat):
                        cols = list(mat.cols)
                        cols[c] = new
                        cx.diffs[key] = SparseMat(mat.nrows, mat.ncols, cols)
                        faults += 1
                        assert node.match(les_failure(graph, e) or ""), (
                            graph.weights, e, cx.graph.m, key, c, fault)
                    cx.diffs[key] = mat
    assert faults == 759


def test_les_names_the_state_of_a_per_edge_map_fault(monkeypatch):
    """One state's per-edge map at e with its coefficients negated, doubled
    or +1 on the first entry, on every edge of P3, K3(1,1,1) and P3(1,2,1):
    all 60 faults fail at (contracted, i) for i the state's level in G/e,
    naming the graph and the edge."""
    from chromhom import lescheck

    original, faults = lescheck.per_edge_map, 0
    for graph in SWEPT:
        for e in range(graph.m):
            maps = build_ses_maps(graph, e)
            monkeypatch.setattr(lescheck, "build_ses_maps", lambda g, edge: maps)
            for level in maps[1].target.levels:
                for mask in level.masks:
                    state = lescheck._push_mask(mask, e) | 1 << e
                    kernel = original(graph, state, e)
                    j0 = next(j for j, (_, _, coeffs) in kernel.items() if coeffs)
                    plus = scale_kernel(kernel, 1)
                    plus[j0][2][0] += 1
                    for bad in (scale_kernel(kernel, -1), scale_kernel(kernel, 2), plus):
                        monkeypatch.setattr(
                            lescheck, "per_edge_map",
                            lambda g, m, edge: bad if m == state else original(g, m, edge))
                        faults += 1
                        assert (les_failure(graph, e) or "").startswith(
                            f"LES of {graph.serialize()} edge {e} at (contracted, "
                            f"i={mask.bit_count()}, j="), (graph.weights, e, mask)
    assert faults == 60


LES_DIGESTS = json.loads((Path(__file__).parent / "les_digests.json").read_text())


@pytest.mark.parametrize("name,graph", [c for c in CORPUS if c[1].m])
def test_connecting_images_are_scaled_fraction_zigzags(monkeypatch, name, graph):
    """On every edge of the corpus, the connecting map Z that `verify_les`
    builds sends each reduced `Fraction` kernel vector q of G/e at every
    (i, j) to D_N times the `Fraction` zig-zag of q: D_N is the complexes'
    shared denominator.  `HomologyBasis`, which no engine path builds, holds
    each q reduced mod the first prime.  The report keeps the sha256 it had
    with the `Fraction` zig-zag."""
    from chromhom import lescheck, linalg

    chain_map, p = lescheck.ChainMap, linalg.PRIMES[0]
    for e in range(graph.m):
        maps = []  # I and P by `build_ses_maps`, then Z
        monkeypatch.setattr(lescheck, "ChainMap",
                            lambda *args: maps.append(chain_map(*args)) or maps[-1])
        report = verify_les(graph, e)
        text = json.dumps(report.to_dict(), sort_keys=True)
        assert (hashlib.sha256(text.encode()).hexdigest()
                == LES_DIGESTS[f"{name} edge {e}"])
        inclusion, projection, connecting = maps
        cx_con, scale = projection.target, projection.source.denominator
        assert (connecting.source, connecting.target) == (cx_con, inclusion.source)
        cycles = HomologyBasis(cx_con, p)
        for i, level in enumerate(cx_con.levels):
            for j in level.degrees():
                kernel = fraction_kernel_basis(cx_con.differential(i, j))
                assert cycles[(i, j)] == [{k: mod_p(x, p) for k, x in q.items()}
                                          for q in kernel]
                z = connecting.mat(i, j)
                assert all(type(v) is int for col in z.cols for v in col.values())
                for q in kernel:
                    x = fraction_zigzag(inclusion, projection, i, j, q)
                    assert z.apply(q) == {r: scale * v for r, v in x.items()}


LES_GRAPHS = [c for c in FAST_CORPUS if c[1].m] + [
    ("P3(1,2,1) loop", graph_from_weights([1, 2, 1], [(0, 1), (1, 2), (1, 1)])),
    ("P3(1,2,1) doubled", graph_from_weights([1, 2, 1], [(0, 1), (1, 2), (0, 1)])),
    ("K2 + K2(1,2)", disjoint_union(path_graph([1, 1]), path_graph([1, 2]))),
    ("K3 + point", disjoint_union(complete_graph([1, 1, 1]), single_vertex(1))),
]


@pytest.mark.parametrize("name,graph", LES_GRAPHS, ids=[name for name, _ in LES_GRAPHS])
def test_les_ranks_are_the_induced_ranks_over_q(name, graph):
    """Each node's `rank_out` is the rank over Q of the map f_*: H_i(A) ->
    H_k(B) that it reads off the mapping cone: f applied to the `Fraction`
    kernel basis of d^A_i, spanned with im d^B_{k+1}, less rank d^B_{k+1},
    all by `Fraction` forward elimination.  I and P are built through the
    label index and Z is the `Fraction` zig-zag, so no engine map, rank or
    node sum enters the expected rank."""
    cx = ChainComplex(graph)
    for e in range(graph.m):
        cx_del = ChainComplex(modify_edge(graph, e, "delete"))
        cx_con = ChainComplex(modify_edge(graph, e, "contract"))
        inc, proj = label_ses_maps(graph, e)
        inclusion, projection = ChainMap(cx_del, cx, 0, inc), ChainMap(cx, cx_con, 1, proj)
        maps = {
            "contracted": (cx_con, cx_del, 0,
                           lambda i, j, q: fraction_zigzag(inclusion, projection, i, j, q)),
            "deleted": (cx_del, cx, 0, lambda i, j, q: inclusion.mat(i, j).apply(q)),
            "full": (cx, cx_con, 1, lambda i, j, q: projection.mat(i, j).apply(q)),
        }
        for node in (nd for row in verify_les(graph, e).rows.values() for nd in row):
            source, target, shift, f = maps[node.part]
            i, j = node.i, node.j
            d_in = target.differential(i - shift + 1, j)
            images = [f(i, j, q) for q in fraction_kernel_basis(source.differential(i, j))]
            span = SparseMat(d_in.nrows, len(images) + d_in.ncols, images + d_in.cols)
            rank = fraction_rank_forward(span) - fraction_rank_forward(d_in)
            assert node.rank_out == rank, (name, e, node)


@pytest.mark.parametrize("name,graph", [c for c in FAST_CORPUS if c[1].m])
def test_les_rank_pass_eliminates_nothing(monkeypatch, name, graph):
    """`verify_les` runs exactly the eliminations of `homology_table` on
    C(G/e), C(G\\e) and C(G), in that order: the same `rank_forward` and
    `image_rref_mod_p` calls on the same matrices, and the same number of
    elimination steps (`_eliminate`, `_add_scaled_mod_p`).  Every map rank
    is read off the tables, so the rank pass adds none."""
    from chromhom import homology, linalg
    from chromhom.homology import homology_table

    calls, steps = [], {"_eliminate": 0, "_add_scaled_mod_p": 0}

    def recorded(fn):
        def run(mat, *args):
            calls.append((fn.__name__, [dict(col) for col in mat.cols], *args))
            return fn(mat, *args)
        return run

    def counted(fn):
        def run(*args):
            steps[fn.__name__] += 1
            return fn(*args)
        return run

    rank_forward = recorded(linalg.rank_forward)
    for module in (linalg, homology):
        monkeypatch.setattr(module, "rank_forward", rank_forward)
    monkeypatch.setattr(linalg, "image_rref_mod_p", recorded(linalg.image_rref_mod_p))
    for step in steps:
        monkeypatch.setattr(linalg, step, counted(getattr(linalg, step)))
    for e in range(graph.m):
        calls.clear()
        steps.update(dict.fromkeys(steps, 0))
        for kind in ("contract", "delete"):
            homology_table(ChainComplex(modify_edge(graph, e, kind)))
        homology_table(ChainComplex(graph))
        tables, table_steps = calls[:], dict(steps)
        calls.clear()
        steps.update(dict.fromkeys(steps, 0))
        verify_les(graph, e)
        assert calls == tables, (name, e)
        assert steps == table_steps, (name, e)


@pytest.mark.parametrize("kind,key,message", [
    ("delete", (1, 0), "(contracted, i=0, j=0): inclusion does not commute"),
    ("contract", (1, 1), "(contracted, i=1, j=1): boundary of a lift touches e-states"),
], ids=["deleted", "contracted"])
def test_ses_maps_catch_a_planted_fraction(monkeypatch, kind, key, message):
    """1, that is 1/D_3 = 1/2 of the map over Q, added to one entry of
    d_key of G\\e or G/e after their own checks: the Inclusion identity
    (for d_{G\\e,1}) or Lift (for d_{G/e,1}) must name the graph, the edge
    and the node."""
    from chromhom import lescheck

    planted = ChainComplex(modify_edge(P3, 0, kind))
    planted.diffs[key].add_entry(0, 0, 1)
    monkeypatch.setattr(
        lescheck, "ChainComplex",
        lambda g: planted if g == planted.graph else ChainComplex(g),
    )
    with pytest.raises(AssertionError, match=re.escape(
            f"LES of {P3.serialize()} edge 0 at {message}")):
        verify_les(P3, 0)


def test_ses_maps_check_the_splitting(monkeypatch):
    """A projection entry lost to a zero twist at the state with both edges
    breaks P P^T = Id: levelwise exactness fails at the full node of the
    first bidegree of that state, naming the graph, the edge and the
    node."""
    from chromhom import lescheck

    twist = lescheck._twist
    monkeypatch.setattr(lescheck, "_twist",
                        lambda mask, e: 0 if mask == 0b11 else twist(mask, e))
    with pytest.raises(AssertionError, match=re.escape(
            f"LES of {P3.serialize()} edge 0 at (full, i=2, j=0): "
            "levelwise exactness fails")):
        verify_les(P3, 0)


def test_les_cross_checks_cycles_against_betti_numbers(monkeypatch):
    """Two faults in the table of G\\e, each named at its node.  A Betti
    number raised by one breaks the node sum there; an exact rank of
    d_{G\\e,1} raised by one lowers the rank out of the connecting map at
    (contracted, i=0, j=0), the first node of nonzero dimension that reads
    it, and breaks the node sum there."""
    from chromhom import lescheck

    deleted = modify_edge(P3, 0, "delete")
    table = lescheck.homology_table
    good = cached_table(deleted)
    bad_betti = HomologyTable(good.n_points, good.cells, good.betti, good.ranks)
    bad_betti.betti[(0, 0)] += 1  # after the constructor's multiplicity check
    bad_rank = HomologyTable(good.n_points, good.cells, good.betti,
                             {**good.ranks, (1, 0): good.ranks[(1, 0)] + 1})
    for bad, message in (
            (bad_betti, r"\(deleted, i=0, j=0\): dim 4 is not rank in 2 \+ rank out 1"),
            (bad_rank, r"\(contracted, i=0, j=0\): dim 2 is not rank in 0 \+ rank out 1")):
        with monkeypatch.context() as patch:
            patch.setattr(lescheck, "homology_table",
                          lambda cx: bad if cx.graph == deleted else table(cx))
            with pytest.raises(AssertionError, match=f"edge 0 at {message}$"):
                verify_les(P3, 0)


@pytest.mark.parametrize("graph,swap", [
    (path_graph([1, 2, 2, 1]), ((3, 3), (2, 2, 2))),
    (cycle_graph([1, 1, 1, 2]), ((2, 1, 1, 1), (4, 1))),
    (complete_graph([2, 2, 2]), ((4, 1, 1), (3, 1, 1, 1))),
], ids=["P4(1,2,2,1)", "C4(1,1,1,2)", "K3(2,2,2)"])
def test_les_row_sums_catch_a_conjugate_swap(monkeypatch, graph, swap):
    """One irreducible of H_{0,0}(G) swapped for its conjugate keeps every
    dimension, so every rank and node sum holds; the per-irreducible row
    sum of row 0 is not 0, and the exact check names the graph, the edge,
    the row and one of the two irreducibles."""
    from chromhom import lescheck

    old, new = swap
    table, good = lescheck.homology_table, cached_table(graph)
    cell = good.multiplicities(0, 0)
    cell[new] = cell.get(new, 0) + cell.pop(old)
    bad = HomologyTable(good.n_points, {**good.cells, (0, 0): cell}, good.betti, good.ranks)
    monkeypatch.setattr(lescheck, "homology_table",
                        lambda cx: bad if cx.graph == graph else table(cx))
    with pytest.raises(AssertionError, match=re.escape(
            f"LES of {graph.serialize()} edge 0 at row j=0: the multiplicities of ")
            + f"({re.escape(str(old))}|{re.escape(str(new))}) sum to -?1 along the row"):
        verify_les(graph, 0)


def test_les_retries_a_prime_that_falls_short(monkeypatch):
    """D_5 = lcm(1, .., 4) = 12 is a multiple of 3, so with 3 the first of
    `PRIMES` some image of C4(1,1,1,2)'s tables falls short mod 3, and
    `certified_image` moves to the next prime.  The rank pass reads no
    prime: each report keeps its sha256, and the exact identities make as
    many `SparseMat.matmul` calls as with the default primes."""
    from chromhom import linalg

    graph = cycle_graph([1, 1, 1, 2])
    assert ChainComplex(graph).denominator % 3 == 0
    matmul, products = SparseMat.matmul, []
    monkeypatch.setattr(SparseMat, "matmul", lambda a, b: products.append(1) or matmul(a, b))
    single = []
    for e in range(graph.m):
        products.clear()
        verify_les(graph, e)
        single.append(len(products))
    echelon, primes = linalg.image_rref_mod_p, []
    monkeypatch.setattr(linalg, "image_rref_mod_p",
                        lambda mat, p: primes.append(p) or echelon(mat, p))
    monkeypatch.setattr(linalg, "PRIMES", (3, linalg.PRIMES[0]))
    for e in range(graph.m):
        primes.clear()
        products.clear()
        text = json.dumps(verify_les(graph, e).to_dict(), sort_keys=True)
        assert (hashlib.sha256(text.encode()).hexdigest()
                == LES_DIGESTS[f"C4(1,1,1,2) edge {e}"])
        assert (3, linalg.PRIMES[1]) in zip(primes, primes[1:])  # a retry
        assert len(products) == single[e]


def test_ses_rejects_bad_edge():
    with pytest.raises(ValueError):
        build_ses_maps(P3, 5)
