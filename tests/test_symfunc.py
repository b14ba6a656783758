import pytest
from hypothesis import given, settings, strategies as st

from chromhom import (
    basis_convert,
    check_csf_oracle,
    csf_colorings_oracle,
    csf_state_sum,
    graph_from_weights,
    path_graph,
    single_vertex,
)
from chromhom._rat import QQ
from chromhom.partitions import hook_dimension, partitions_of
from chromhom.symfunc import (
    SymFunc,
    s_func,
    specialize_p,
)

from corpus import CORPUS
from oracles import (
    check_deletion_contraction_csf,
    frobenius_of_hooks,
    inner_product,
    p_func,
    zero_func,
)


def test_power_sum_to_schur_degree_three():
    assert basis_convert(p_func((3,)), "s").dict() == {
        (3,): 1, (2, 1): -1, (1, 1, 1): 1,
    }
    assert basis_convert(p_func((1,)), "s").dict() == {(1,): 1}
    assert basis_convert(p_func((2, 1)), "s").dict() == {(3,): 1, (1, 1, 1): -1}


def test_alternating_hooks_give_power_sum():
    # sum_j (-1)^j s_(n-j,1^j) = p_n
    for n in range(1, 7):
        total = zero_func("s", n)
        for j in range(n):
            total = total + s_func((n - j,) + (1,) * j, (-1) ** j)
        assert basis_convert(total, "p").dict() == {(n,): 1}


@pytest.mark.parametrize("n", range(1, 7))
def test_round_trip_on_power_sums(n):
    for mu in partitions_of(n):
        x = p_func(mu)
        assert basis_convert(basis_convert(x, "s"), "p") == x


def test_regular_representation_coefficients():
    # p_1^n expands with coefficient f^lam on every Schur function
    for n in range(1, 6):
        x = basis_convert(p_func((1,) * n), "s")
        for lam in partitions_of(n):
            assert x.dict()[lam] == hook_dimension(lam)


def test_product_concatenates_power_sums():
    assert (p_func((2,)) * p_func((1,))).dict() == {(2, 1): 1}
    x = p_func((2, 1)) + p_func((3,)).scale(2)
    y = p_func((1,))
    assert (x * y).dict() == {(2, 1, 1): 1, (3, 1): 2}


def test_inner_product_schur_orthonormal():
    assert inner_product(s_func((2, 1)), s_func((2, 1))) == 1
    assert inner_product(s_func((3,)), s_func((2, 1))) == 0
    assert inner_product(p_func((1, 1)), p_func((2,))) == 0
    assert inner_product(p_func((2,)), p_func((2,))) == 2


def test_csf_weighted_segment():
    g = graph_from_weights([1, 2], [(0, 1)])
    assert csf_state_sum(g).dict() == {(2, 1): 1, (3,): -1}


def test_csf_single_vertex():
    assert csf_state_sum(single_vertex(5)).dict() == {(5,): 1}


def test_csf_loop_vanishes():
    g = graph_from_weights([2, 1], [(0, 1), (0, 0)])
    assert csf_state_sum(g).is_zero()
    assert csf_colorings_oracle(g, 3) == {}


def test_colorings_oracle_weighted_segment():
    g = graph_from_weights([1, 2], [(0, 1)])
    assert csf_colorings_oracle(g, 2) == {(1, 2): 1, (2, 1): 1}


def test_edgeless_oracle():
    g = single_vertex(3)
    assert csf_colorings_oracle(g, 2) == {(3, 0): 1, (0, 3): 1}


@pytest.mark.parametrize("name,graph", CORPUS)
def test_oracle_agreement(name, graph):
    for k in (1, 2, 3):
        assert check_csf_oracle(graph, k), f"{name} with {k} colors"


@pytest.mark.parametrize("name,graph", [c for c in CORPUS if c[1].m])
def test_deletion_contraction(name, graph):
    for e in range(graph.m):
        holds, *_ = check_deletion_contraction_csf(graph, e)
        assert holds, f"{name} at edge {e}"


def test_deletion_contraction_rejects_bad_edge():
    with pytest.raises(ValueError):
        check_deletion_contraction_csf(single_vertex(1), 0)


def test_multiplicativity_over_disjoint_union():
    from chromhom import disjoint_union

    a = graph_from_weights([1, 2], [(0, 1)])
    b = path_graph([1, 1])
    assert csf_state_sum(disjoint_union(a, b)) == csf_state_sum(a) * csf_state_sum(b)


def test_text_rendering():
    g = graph_from_weights([1, 2], [(0, 1)])
    assert csf_state_sum(g).text() == "-p[3] + p[2,1]"
    assert basis_convert(csf_state_sum(g), "s").text() == "s[2,1] - 2 * s[1,1,1]"
    assert zero_func("p", 4).text() == "0"
    assert p_func((2, 1), QQ(3, 2)).text() == "3/2 * p[2,1]"


def test_make_rejects_mixed_degrees():
    with pytest.raises(ValueError):
        SymFunc.make("p", 3, {(3,): QQ(1), (2,): QQ(1)})
    with pytest.raises(ValueError):
        SymFunc.make("q", 3, {(3,): QQ(1)})


def test_specialize_matches_hand_value():
    # p_2 * p_1 at two variables
    x = p_func((2, 1))
    vals = specialize_p(x, 2)
    # (x1^2+x2^2)(x1+x2) = x1^3 + x1^2 x2 + x1 x2^2 + x2^3
    assert vals == {
        (3, 0): QQ(1), (2, 1): QQ(1), (1, 2): QQ(1), (0, 3): QQ(1),
    }


def test_frobenius_of_hooks_is_exact():
    assert frobenius_of_hooks(2, 0).dict() == {(2,): QQ(1, 2), (1, 1): QQ(1, 2)}


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=3))
def test_schur_product_degree(a, b):
    from chromhom.symfunc import schur_multiply

    lam = (a,)
    mu = (b,)
    prod = schur_multiply(s_func(lam), s_func(mu))
    assert prod.degree == a + b
    # row Pieri: s_(a) * s_(b) expands with all coefficients equal to one
    assert all(c == 1 for _, c in prod.coeffs)
