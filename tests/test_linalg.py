import random

import pytest
import sympy

from chromhom._rat import QQ
from chromhom.linalg import (
    P,
    SparseMat,
    certified_image,
    image_rref,
    image_rref_mod_p,
    kernel_basis,
    rank_forward,
)

from oracles import from_entries, identity_mat


def random_matrix(rng, nrows, ncols, density=0.4):
    entries = []
    for r in range(nrows):
        for c in range(ncols):
            if rng.random() < density:
                entries.append((r, c, QQ(rng.randint(-3, 3), rng.randint(1, 3))))
    return from_entries(nrows, ncols, entries)


def to_sympy(mat: SparseMat) -> sympy.Matrix:
    m = sympy.zeros(mat.nrows, mat.ncols)
    for c, col in enumerate(mat.cols):
        for r, v in col.items():
            m[r, c] = sympy.Rational(int(v.numerator), int(v.denominator))
    return m


@pytest.mark.parametrize("seed", range(12))
def test_rank_against_sympy(seed):
    rng = random.Random(seed)
    mat = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
    expected = to_sympy(mat).rank()
    assert len(image_rref(mat)[0]) == expected
    assert rank_forward(mat) == expected


@pytest.mark.parametrize("seed", range(8))
def test_kernel_is_kernel(seed):
    rng = random.Random(100 + seed)
    mat = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
    kern = kernel_basis(mat)
    assert len(kern) == mat.ncols - len(image_rref(mat)[0])
    for v in kern:
        assert mat.apply(v) == {}
    # reduced: each vector's free coordinate is 1 and unique
    frees = [min(k for k in v if v[k] == 1) for v in kern] if kern else []
    assert len(set(frees)) == len(kern)


@pytest.mark.parametrize("seed", range(8))
def test_image_rref_reduced(seed):
    rng = random.Random(200 + seed)
    mat = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
    pivots, cols = image_rref(mat)
    assert sorted(pivots) == pivots
    for k, col in enumerate(cols):
        for l, p in enumerate(pivots):
            assert col.get(p, QQ(0)) == (QQ(1) if l == k else QQ(0))
    # basis spans the column space: every original column reduces to zero
    for col in mat.cols:
        v = dict(col)
        for p, b in zip(pivots, cols):
            c = v.get(p)
            if c is not None:
                for key, val in b.items():
                    nv = v.get(key, QQ(0)) - c * val
                    if nv == 0:
                        v.pop(key, None)
                    else:
                        v[key] = nv
        assert v == {}


def mod_p(x) -> int:
    return x.numerator * pow(x.denominator, -1, P) % P


@pytest.mark.parametrize("seed", range(12))
def test_rref_mod_p_is_rref_reduced_mod_p(seed):
    rng = random.Random(300 + seed)
    mat = random_matrix(rng, rng.randint(1, 9), rng.randint(1, 9), density=0.5)
    pivots, cols = image_rref(mat)
    assert image_rref_mod_p(mat) == (
        pivots, [{r: mod_p(v) for r, v in col.items()} for col in cols]
    )


def test_rank_mod_p_can_fall_short():
    # the columns differ by p * e_1: independent over Q, equal mod p
    mat = SparseMat(2, 2, [{0: QQ(1), 1: QQ(1)}, {0: QQ(1), 1: QQ(1 + P)}])
    assert rank_forward(mat) == 2
    assert len(image_rref_mod_p(mat)[0]) == 1
    pivots, cols, modulus = certified_image(mat, 2)
    assert (pivots, modulus) == ([0, 1], None)
    with pytest.raises(AssertionError, match="rank"):
        certified_image(mat, 3)


def test_denominator_divisible_by_p_has_no_reduction():
    mat = SparseMat(1, 1, [{0: QQ(1, P)}])
    assert image_rref_mod_p(mat) is None
    assert certified_image(mat, 1) == ([0], [{0: QQ(1)}], None)


def test_matmul_and_identity():
    rng = random.Random(7)
    a = random_matrix(rng, 4, 5)
    assert a.matmul(identity_mat(5)) == a
    assert identity_mat(4).matmul(a) == a


def test_matmul_against_sympy():
    rng = random.Random(8)
    a = random_matrix(rng, 3, 4)
    b = random_matrix(rng, 4, 5)
    assert to_sympy(a.matmul(b)) == to_sympy(a) * to_sympy(b)


def test_add_entry_cancels():
    m = SparseMat(2, 2)
    m.add_entry(0, 0, QQ(1, 2))
    m.add_entry(0, 0, QQ(-1, 2))
    assert m.is_zero()


def test_dump_lines():
    m = from_entries(2, 2, [(1, 0, QQ(1, 2)), (0, 1, QQ(-2))])
    assert m.dump_lines() == ["0 1 -2", "1 0 1/2"]


def test_transpose():
    m = from_entries(2, 3, [(0, 2, QQ(5)), (1, 0, QQ(-1))])
    t = m.transpose()
    assert t.nrows == 3 and t.ncols == 2
    assert t.cols[0][2] == QQ(5)
    assert t.cols[1][0] == QQ(-1)
