from math import factorial

import pytest

from chromhom.characters import character_table
from chromhom.partitions import hook_dimension, partitions_of


def test_degree_three_table():
    """Frozen values, hand-checked from the three irreducibles of S3."""
    t = character_table(3)
    assert t.partitions == ((3,), (2, 1), (1, 1, 1))
    assert [t.chi((3,), mu) for mu in t.partitions] == [1, 1, 1]
    assert [t.chi((2, 1), mu) for mu in t.partitions] == [-1, 0, 2]
    assert [t.chi((1, 1, 1), mu) for mu in t.partitions] == [1, -1, 1]
    assert t.z == {(3,): 3, (2, 1): 2, (1, 1, 1): 6}


def test_degree_one():
    t = character_table(1)
    assert t.chi((1,), (1,)) == 1


def test_degree_four_dimensions():
    t = character_table(4)
    assert t.dim((2, 2)) == 2  # 4!/(3*2*2*1)
    for lam in t.partitions:
        assert t.dim(lam) == hook_dimension(lam)


def test_column_orthogonality_degree_six():
    t = character_table(6)
    for mu in t.partitions:
        for nu in t.partitions:
            s = sum(t.chi(lam, mu) * t.chi(lam, nu) for lam in t.partitions)
            assert s == (t.z[mu] if mu == nu else 0)


def test_row_orthogonality_degree_five():
    t = character_table(5)
    for lam in t.partitions:
        for rho in t.partitions:
            s = sum(
                t.chi(lam, mu) * t.chi(rho, mu) * (factorial(5) // t.z[mu])
                for mu in t.partitions
            )
            assert s == (factorial(5) if lam == rho else 0)


def test_sign_character():
    t = character_table(5)
    sign = (1, 1, 1, 1, 1)
    for mu in t.partitions:
        parity = (-1) ** (5 - len(mu))
        assert t.chi(sign, mu) == parity


def test_bound_enforced():
    with pytest.raises(ValueError):
        character_table(0)


def test_all_partitions_present():
    t = character_table(6)
    assert t.partitions == partitions_of(6)
