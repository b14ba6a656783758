import random
from math import lcm, prod

import pytest
import sympy

from chromhom._rat import QQ
from chromhom.complexes import ChainComplex
from chromhom.linalg import (
    PRIMES,
    SparseMat,
    certified_image,
    image_rref,
    image_rref_mod_p,
    kernel_basis,
    rank_forward,
    rank_mod_p,
)

from corpus import FAST_CORPUS
from oracles import (
    fraction_kernel_basis,
    fraction_rank_forward,
    fraction_rref_vectors,
    from_entries,
    identity_mat,
    mod_p,
)


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
    mat = rows_integral(random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7)))
    p = PRIMES[0]
    kern = kernel_basis(mat, p)
    assert len(kern) == mat.ncols - len(image_rref(mat)[0])
    for v in kern:
        assert all(x in range(1, p) for x in v.values())
        assert all(x % p == 0 for x in mat.apply(v).values())
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


def integral(mat: SparseMat) -> SparseMat:
    """`mat` times the lcm of its denominators, with `int` entries: the form
    in which the differentials are stored."""
    scale = lcm(*(x.denominator for col in mat.cols for x in col.values()))
    return SparseMat(mat.nrows, mat.ncols, [{r: int(scale * x) for r, x in col.items()}
                                            for col in mat.cols])


def rows_integral(mat: SparseMat) -> SparseMat:
    """`mat` with each row times the lcm of its own denominators, with `int`
    entries: scaling rows keeps the kernel, and scaling columns would not."""
    scale: dict = {}
    for col in mat.cols:
        for r, x in col.items():
            scale[r] = lcm(scale.get(r, 1), x.denominator)
    return SparseMat(mat.nrows, mat.ncols, [{r: int(scale[r] * x) for r, x in col.items()}
                                            for col in mat.cols])


def test_primes_are_distinct_decreasing_word_size_primes():
    """`certified_image` walks `PRIMES` in order; each residue fits one
    30-bit CPython digit."""
    assert type(PRIMES) is tuple and len(PRIMES) > 1
    assert all(sympy.isprime(p) and p < 1 << 30 for p in PRIMES)
    assert all(a > b for a, b in zip(PRIMES, PRIMES[1:]))


@pytest.mark.parametrize("seed", range(12))
def test_rref_mod_p_is_rref_reduced_mod_p(seed):
    rng = random.Random(300 + seed)
    mat = integral(random_matrix(rng, rng.randint(1, 9), rng.randint(1, 9), density=0.5))
    pivots, cols = image_rref(mat)
    for p in PRIMES:
        assert image_rref_mod_p(mat, p) == (
            pivots, [{r: mod_p(v, p) for r, v in col.items()} for col in cols]
        )


def test_rank_mod_p_can_fall_short():
    # the columns differ by PRIMES[0] * e_1: independent over Q, equal mod
    # the first prime, so the next one certifies the rank
    first, second = PRIMES[:2]
    mat = SparseMat(2, 2, [{0: 1, 1: 1}, {0: 1, 1: 1 + first}])
    assert rank_forward(mat) == 2
    assert len(image_rref_mod_p(mat, first)[0]) == 1
    pivots, cols, modulus = certified_image(mat, 2)
    assert (pivots, modulus) == ([0, 1], second)
    assert cols == [{0: 1}, {1: 1}]
    with pytest.raises(AssertionError, match="rank 3 by forward elimination, 2 by"):
        certified_image(mat, 3)
    # by the product of every prime: short at each, so nothing certifies
    product = prod(PRIMES)
    mat = SparseMat(2, 2, [{0: 1, 1: 1}, {0: 1, 1: 1 + product}])
    assert rank_forward(mat) == 2
    with pytest.raises(AssertionError, match="rank 2 by forward elimination, 1 by"):
        certified_image(mat, 2)
    assert [rank_mod_p(mat.cols, p) for p in PRIMES] == [1] * len(PRIMES)


def test_rank_mod_p_reports_a_drop_at_a_small_prime():
    """Planted: the last two columns have the 2 x 2 minor 15 and are equal
    mod 3, so the rank is 3 over Q and mod 7 but 2 mod 3 and mod 5, and the
    kernel mod 3 or 5 is a line, keyed free index first."""
    mat = SparseMat(3, 3, [{0: 1}, {1: 1, 2: 2}, {1: 4, 2: 23}])
    assert rank_forward(mat) == to_sympy(mat).rank() == 3
    assert [rank_mod_p(mat.cols, p) for p in (3, 5, 7, PRIMES[0])] == [2, 2, 3, 3]
    assert rank_mod_p(mat.cols[1:], 3) == rank_mod_p(mat.cols[1:], 5) == 1
    assert [list(v.items()) for v in kernel_basis(mat, 3)] == [[(2, 1), (1, 2)]]
    assert [list(v.items()) for v in kernel_basis(mat, 5)] == [[(2, 1), (1, 1)]]
    assert kernel_basis(mat, 7) == []


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
    m = SparseMat(2, 2, [{1: 3}, {0: -12}])
    assert m.dump_lines(6) == ["0 1 -2", "1 0 1/2"]


def test_transpose():
    m = from_entries(2, 3, [(0, 2, QQ(5)), (1, 0, QQ(-1))])
    t = m.transpose()
    assert t.nrows == 3 and t.ncols == 2
    assert t.cols[0][2] == QQ(5)
    assert t.cols[1][0] == QQ(-1)


DENOMINATORS = (1, 1, 2, 3, 4, 5, 6, 7, 9, 10, 12, 35)


def combine(terms) -> dict:
    """Sum of factor * column over (factor, column) pairs, zeros dropped."""
    out: dict = {}
    for factor, col in terms:
        for r, x in col.items():
            out[r] = out.get(r, QQ(0)) + factor * x
    return {r: x for r, x in out.items() if x}


def mixed_matrix(rng) -> SparseMat:
    """Sparse rational matrix with mixed denominators, zero rows and
    columns, repeated columns and combinations of earlier columns."""
    nrows, ncols = rng.randint(0, 9), rng.randint(0, 9)
    live_rows = [r for r in range(nrows) if rng.random() < 0.8]
    cols: list[dict] = []
    for _ in range(ncols):
        roll = rng.random()
        if roll < 0.15:
            cols.append({})
        elif roll < 0.3 and cols:
            cols.append(combine([(QQ(rng.randint(-3, 3), rng.randint(1, 4)),
                                  rng.choice(cols))]))
        elif roll < 0.45 and cols:
            cols.append(combine([(QQ(rng.randint(-5, 5), rng.choice(DENOMINATORS)),
                                  rng.choice(cols)) for _ in range(2)]))
        else:
            cols.append({r: x for r in live_rows if rng.random() < 0.5
                         and (x := QQ(rng.randint(-20, 20), rng.choice(DENOMINATORS)))})
    return SparseMat(nrows, ncols, cols)


def assert_matches_oracles(mat: SparseMat) -> None:
    """The integer kernels give the `Fraction` eliminations' results exactly:
    the same pivots, the same vectors with the same key order, all
    `Fraction`.  Mod `PRIMES[0]`, `kernel_basis` and `rank_mod_p` of the
    matrix with its rows scaled to `int` give the `Fraction` kernel reduced
    mod p, key order included, and the rank over Q."""
    pivots, cols = image_rref(mat)
    want_pivots, want_cols = fraction_rref_vectors(mat.cols)
    assert pivots == want_pivots
    assert cols == want_cols
    assert [list(v) for v in cols] == [list(v) for v in want_cols]
    assert all(type(x) is QQ for v in cols for x in v.values())
    rank = fraction_rank_forward(mat)
    assert rank_forward(mat) == rank
    p, scaled = PRIMES[0], rows_integral(mat)
    kernel = kernel_basis(scaled, p)
    want = [{k: mod_p(x, p) for k, x in v.items()} for v in fraction_kernel_basis(mat)]
    assert kernel == want
    assert [list(v) for v in kernel] == [list(v) for v in want]
    assert all(type(x) is int for v in kernel for x in v.values())
    assert rank_mod_p(scaled.cols, p) == rank_mod_p(scaled.transpose().cols, p) == rank


@pytest.mark.parametrize("seed", range(20))
def test_integer_kernels_match_fraction_oracles(seed):
    rng = random.Random(1000 + seed)
    for _ in range(40):
        mat = mixed_matrix(rng)
        assert_matches_oracles(mat)
        assert_matches_oracles(mat.transpose())


@pytest.mark.parametrize("seed", range(10))
def test_eliminations_do_not_depend_on_the_feed_order(seed):
    """The reduced echelon form of a span is unique: permuting the rows
    leaves `kernel_basis` as it was, key order included, and permuting the
    columns leaves `image_rref_mod_p` as it was."""
    rng = random.Random(2000 + seed)
    for _ in range(40):
        mat = rows_integral(mixed_matrix(rng))
        rows, cols = list(range(mat.nrows)), mat.cols[:]
        rng.shuffle(rows)
        rng.shuffle(cols)
        by_rows = SparseMat(mat.nrows, mat.ncols, [
            {rows[r]: x for r, x in col.items()} for col in mat.cols])
        kernel = kernel_basis(mat, PRIMES[0])
        assert kernel_basis(by_rows, PRIMES[0]) == kernel
        assert ([list(v) for v in kernel_basis(by_rows, PRIMES[0])]
                == [list(v) for v in kernel])
        by_cols = SparseMat(mat.nrows, mat.ncols, cols)
        assert image_rref_mod_p(by_cols, PRIMES[0]) == image_rref_mod_p(mat, PRIMES[0])


def hilbert(n: int) -> SparseMat:
    return from_entries(n, n, [(r, c, QQ(1, r + c + 1))
                               for r in range(n) for c in range(n)])


def test_hilbert_matrix_coefficient_growth():
    h = hilbert(7)
    assert rank_forward(h) == 7
    assert image_rref(h) == (list(range(7)), identity_mat(7).cols)
    assert kernel_basis(rows_integral(h), PRIMES[0]) == []
    assert_matches_oracles(h)
    # rank 5: five Hilbert columns, two combinations of them, stacked twice
    c = h.cols
    cols = c[:5] + [combine([(QQ(1), c[0]), (QQ(1), c[1])]),
                    combine([(QQ(2), c[2]), (QQ(-1, 3), c[4])])]
    deficient = SparseMat(14, 7, [col | {r + 7: x for r, x in col.items()}
                                  for col in cols])
    assert rank_forward(deficient) == to_sympy(deficient).rank() == 5
    assert len(kernel_basis(rows_integral(deficient), PRIMES[0])) == 2
    assert_matches_oracles(deficient)
    assert_matches_oracles(deficient.transpose())


@pytest.mark.parametrize("name,graph", FAST_CORPUS, ids=[n for n, _ in FAST_CORPUS])
def test_corpus_differentials_match_fraction_oracles(name, graph):
    for mat in ChainComplex(graph).diffs.values():
        assert_matches_oracles(mat)


def assert_input_unchanged(mat: SparseMat) -> None:
    """`rank_forward`, `image_rref_mod_p` and `rank_mod_p` eliminate their
    working vectors in place; the matrix they read keeps its entries and key
    order."""
    before = [list(col.items()) for col in mat.cols]
    rank_forward(mat)
    image_rref_mod_p(mat, PRIMES[0])
    rank_mod_p(mat.cols, PRIMES[0])
    assert [list(col.items()) for col in mat.cols] == before


@pytest.mark.parametrize("seed", range(10))
def test_eliminations_leave_random_matrices_unchanged(seed):
    rng = random.Random(3000 + seed)
    for _ in range(40):
        mat = integral(mixed_matrix(rng))
        assert_input_unchanged(mat)
        assert_input_unchanged(mat.transpose())


@pytest.mark.parametrize("name,graph", FAST_CORPUS, ids=[n for n, _ in FAST_CORPUS])
def test_eliminations_leave_corpus_differentials_unchanged(name, graph):
    for mat in ChainComplex(graph).diffs.values():
        assert_input_unchanged(mat)
