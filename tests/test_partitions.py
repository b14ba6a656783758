from math import factorial

import pytest
from hypothesis import given, strategies as st

from chromhom.partitions import (
    add_one_box,
    centralizer_order,
    conjugate,
    hook_dimension,
    is_partition,
    partitions_of,
)

from oracles import hooks_of, standard_tableaux_count


def test_partitions_of_small():
    assert partitions_of(1) == ((1,),)
    assert partitions_of(3) == ((3,), (2, 1), (1, 1, 1))
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def test_partition_counts():
    # p(n) for n = 0..8
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22]
    for n, count in enumerate(expected):
        assert len(partitions_of(n)) == count


@given(st.integers(min_value=1, max_value=9))
def test_partitions_valid_and_reverse_lex(n):
    parts = partitions_of(n)
    assert all(is_partition(lam) and sum(lam) == n for lam in parts)
    # reverse lexicographic: every partition is lex-greater than the next
    assert all(parts[k] > parts[k + 1] for k in range(len(parts) - 1))


def test_conjugate_involution():
    for n in range(1, 8):
        for lam in partitions_of(n):
            assert conjugate(conjugate(lam)) == lam
    assert conjugate((3, 1)) == (2, 1, 1)


def test_hook_dimension_known_values():
    assert hook_dimension((4,)) == 1
    assert hook_dimension((2, 2)) == 2  # hooks 3,2,2,1 -> 24/12
    assert hook_dimension((2, 1)) == 2
    assert hook_dimension((3, 2, 1)) == 16


def test_hook_dimension_matches_tableau_enumeration():
    for n in range(1, 7):
        for lam in partitions_of(n):
            assert standard_tableaux_count(lam) == hook_dimension(lam)


def test_dimension_squares_sum_to_factorial():
    for n in range(1, 8):
        assert sum(hook_dimension(lam) ** 2 for lam in partitions_of(n)) == factorial(n)


def test_centralizer_orders():
    assert centralizer_order((1, 1, 1)) == 6
    assert centralizer_order((2, 1)) == 2
    assert centralizer_order((3,)) == 3
    # class sizes sum to n!
    for n in range(1, 8):
        assert sum(
            factorial(n) // centralizer_order(mu) for mu in partitions_of(n)
        ) == factorial(n)


def test_add_one_box():
    assert set(add_one_box((1,))) == {(2,), (1, 1)}
    assert set(add_one_box((2, 1))) == {(3, 1), (2, 2), (2, 1, 1)}


def test_hooks_of():
    assert hooks_of(3) == [(3,), (2, 1), (1, 1, 1)]
    assert hooks_of(1) == [(1,)]


def test_invalid_partition_rejected():
    assert not is_partition((1, 2))
    assert not is_partition((2, 0))
    with pytest.raises(ValueError):
        partitions_of(-1)
