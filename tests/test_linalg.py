import math
import operator
import random
from enum import IntEnum
from fractions import Fraction

import pytest

from diobox import (
    DimensionMismatchError,
    IntMat,
    NotSquareError,
    RankDeficientError,
    SingularError,
    det_exact,
    gcd_max_minors,
    partition,
    solve_rational,
    xgcd,
)
from oracles import det_cofactor, hnf_column, hnf_shape_ok, inverse_rational, minors_gcd


def test_xgcd_basics():
    g, s, t = xgcd(0, 0)
    assert g == 0 and s * 0 + t * 0 == 0
    for a, b in [(2, 3), (-4, 6), (0, 5), (5, 0), (12, 18), (-7, -7)]:
        g, s, t = xgcd(a, b)
        assert g == math.gcd(a, b)
        assert s * a + t * b == g


def test_xgcd_random():
    rng = random.Random(1)
    for _ in range(500):
        a = rng.randint(-10**6, 10**6)
        b = rng.randint(-10**6, 10**6)
        g, s, t = xgcd(a, b)
        assert g == math.gcd(a, b) and s * a + t * b == g


def test_intmat_shape_and_access():
    m = IntMat([[1, 2, 3], [4, 5, 6]])
    assert m.rows == 2 and m.cols == 3
    assert m[1] == (4, 5, 6)
    assert m.col(2) == (3, 6)
    assert m.transpose() == IntMat([[1, 4], [2, 5], [3, 6]])
    assert m.select_cols([2, 0]) == IntMat([[3, 1], [6, 4]])
    assert m.mul_vec((1, 1, 1)) == (6, 15)
    assert IntMat.identity(2) @ m == m
    assert IntMat(zip(*[(1, 4), (2, 5), (3, 6)])) == m


def test_intmat_rejects_bad_input():
    with pytest.raises(DimensionMismatchError):
        IntMat([[1, 2], [3]])
    with pytest.raises(DimensionMismatchError):
        IntMat([])
    with pytest.raises(TypeError):
        IntMat([[1, Fraction(1, 2)]])
    with pytest.raises(TypeError):
        IntMat([[True, 1]])
    with pytest.raises(DimensionMismatchError):
        IntMat([[1, 2]]).mul_vec((1, 2, 3))


def test_intmat_entry_check():
    # exact ints pass in one pass; anything else takes the entry loop, which
    # keeps the messages, lets int subclasses other than bool through and
    # checks row lengths and entries in row order
    class Small(IntEnum):
        ONE = 1

    mixed = IntMat([[Small.ONE, 2], [3, Small.ONE]])
    assert mixed == IntMat([[1, 2], [3, 1]]) and hash(mixed) == hash(IntMat([[1, 2], [3, 1]]))
    for bad, name in [(True, "bool"), (1.0, "float"), ("1", "str"), (Fraction(1), "Fraction")]:
        with pytest.raises(TypeError) as exc:
            IntMat([[1, 2], [3, bad]])
        assert str(exc.value) == f"entry (1,1) is {name}, expected int"
    with pytest.raises(TypeError, match=r"^entry \(0,0\) is bool, expected int$"):
        IntMat([[False], [1, 2]])
    with pytest.raises(DimensionMismatchError, match="^row 1 has length 2, expected 1$"):
        IntMat([[1], [1, 2], [True]])


def test_derived_matrices_equal_checked_ones():
    # identity, select_cols, transpose and @ skip the entry check; what they
    # build equals the matrix the public constructor builds from the same rows
    rng = random.Random(5)
    for _ in range(100):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        rows = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(m)]
        a = IntMat(rows)
        idx = [rng.randrange(n) for _ in range(rng.randint(0, n))]
        pairs = [
            (IntMat.identity(m), IntMat([[int(i == j) for j in range(m)] for i in range(m)])),
            (a.select_cols(idx), IntMat([[row[j] for j in idx] for row in rows])),
            (a.transpose(), IntMat([list(col) for col in zip(*rows)])),
            (a @ a.transpose(), IntMat([[sum(map(operator.mul, r, s)) for s in rows] for r in rows])),
        ]
        for got, want in pairs:
            assert got == want and hash(got) == hash(want)
            assert (got.rows, got.cols) == (want.rows, want.cols)
            assert all(type(e) is int for row in got for e in row)
    # a matrix with no rows is not representable, so the transpose of a
    # column-free matrix keeps raising while its product is m x 0
    with pytest.raises(DimensionMismatchError, match="^matrix needs at least one row$"):
        IntMat([[], []]).transpose()
    with pytest.raises(DimensionMismatchError, match="^matrix needs at least one row$"):
        IntMat.identity(0)


def test_intmat_without_columns():
    # the N block of a square A: rows but no columns
    empty = IntMat([[], []])
    assert (empty.rows, empty.cols) == (2, 0)
    assert IntMat([[1, 2], [3, 4]]).select_cols([]) == empty
    assert empty.mul_vec(()) == (0, 0)
    # a column-free right factor gives the m x 0 product, through no transpose
    prod = IntMat([[1, 2], [3, 4]]) @ empty
    assert prod == empty and (prod.rows, prod.cols) == (2, 0)
    assert IntMat([[5, 6]]) @ empty == IntMat([[]])
    with pytest.raises(DimensionMismatchError, match=r"^cannot multiply 1x3 by 2x0$"):
        IntMat([[1, 2, 3]]) @ empty
    assert [list(r) for r in empty] == [[], []] and list(empty) == [(), ()]
    with pytest.raises(DimensionMismatchError):
        IntMat([[], [1]])
    with pytest.raises(DimensionMismatchError):
        IntMat([])


def test_hnf_identity_fixed_point():
    res = hnf_column(IntMat.identity(2))
    assert res.h == IntMat.identity(2)
    assert res.u == IntMat.identity(2)


def test_hnf_single_row():
    mat = IntMat([[2, 3]])
    res = hnf_column(mat)
    assert res.h == IntMat([[1, 0]])
    # U is only canonical up to kernel action: check the defining properties
    assert mat @ res.u == res.h
    assert det_exact(res.u) in (1, -1)


def test_hnf_already_reduced():
    mat = IntMat([[2, 0], [0, 3]])
    res = hnf_column(mat)
    assert res.h == mat
    assert res.u == IntMat.identity(2)


def test_hnf_rank_deficient():
    with pytest.raises(RankDeficientError):
        hnf_column(IntMat([[1, 2, 3], [2, 4, 6]]))
    with pytest.raises(RankDeficientError):
        hnf_column(IntMat([[0, 0], [1, 1]]))
    with pytest.raises(RankDeficientError):
        hnf_column(IntMat([[1, 0], [0, 1], [1, 1]]))  # more rows than cols


def test_hnf_random_reverification():
    rng = random.Random(42)
    done = 0
    while done < 300:
        m = rng.randint(1, 4)
        n = rng.randint(m, 7)
        mat = IntMat([[rng.randint(-30, 30) for _ in range(n)] for _ in range(m)])
        try:
            res = hnf_column(mat)
        except RankDeficientError:
            continue
        assert mat @ res.u == res.h
        assert det_exact(res.u) in (1, -1)
        assert hnf_shape_ok(res.h, m)
        done += 1


def test_hnf_canonical_invariance():
    # right-multiplying by a unimodular matrix must not change H
    rng = random.Random(9)
    for _ in range(50):
        mat = IntMat([[rng.randint(-9, 9) for _ in range(4)] for _ in range(2)])
        try:
            h1 = hnf_column(mat).h
        except RankDeficientError:
            continue
        shuffle = list(range(4))
        rng.shuffle(shuffle)
        perm = IntMat([[int(shuffle[j] == i) for j in range(4)] for i in range(4)])
        h2 = hnf_column(mat @ perm).h
        assert h1 == h2


@pytest.mark.parametrize(
    "rows,want",
    [
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 1),
        ([[2, 1], [1, 2]], 3),
        ([[5]], 5),
        ([[1, 2], [2, 4]], 0),
    ],
)
def test_det_examples(rows, want):
    assert det_exact(IntMat(rows)) == want


def test_det_not_square():
    with pytest.raises(NotSquareError):
        det_exact(IntMat([[1, 2, 3], [4, 5, 6]]))


def test_det_against_cofactor_oracle():
    rng = random.Random(3)
    for _ in range(400):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
        assert det_exact(IntMat(rows)) == det_cofactor(rows)


def test_det_singular_and_row_swaps_against_cofactor_oracle():
    # det_exact is the forward elimination alone: a short rank gives 0, and
    # each row swap for a zero pivot flips the sign of the last pivot
    assert det_exact(IntMat([[0]])) == 0
    assert det_exact(IntMat([[-7]])) == -7
    assert det_exact(IntMat([[0, 1], [1, 0]])) == -1
    assert det_exact(IntMat([[0, 0, 1], [0, 1, 0], [1, 0, 0]])) == -1
    assert det_exact(IntMat([[0, 2, 1], [0, 1, 1], [3, 1, 1]])) == 3
    rng = random.Random(6)
    singular = swapped = 0
    for _ in range(400):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.4:  # a row that is a multiple of another
            rows[rng.randrange(1, n)] = [-3 * e for e in rows[0]]
        if rng.random() < 0.5:  # a zero leading column entry: row 0 cannot be the first pivot
            rows[0][0] = 0
        want = det_cofactor(rows)
        singular += want == 0
        swapped += rows[0][0] == 0 and want != 0
        assert det_exact(IntMat(rows)) == want
    assert singular > 100 and swapped > 100


def test_det_multiplicative():
    rng = random.Random(4)
    for _ in range(100):
        a = IntMat([[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)])
        b = IntMat([[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)])
        assert det_exact(a @ b) == det_exact(a) * det_exact(b)


@pytest.mark.parametrize(
    "rows,want",
    [
        ([[2, 0, 1], [0, 2, 1]], 2),
        ([[5, 2, 3]], 1),
        ([[1, 0, 4], [0, 1, 4]], 1),
        ([[6, 10, 15]], 1),
        ([[4, 6]], 2),
    ],
)
def test_gcd_max_minors_examples(rows, want):
    # frozen from the minor-enumeration oracle
    assert minors_gcd(rows) == want
    assert gcd_max_minors(IntMat(rows)) == want


def test_gcd_max_minors_oracle_sweep():
    rng = random.Random(5)
    done = 0
    while done < 300:
        m = rng.randint(1, 3)
        n = rng.randint(m + 1, 8)
        rows = [[rng.randint(-15, 15) for _ in range(n)] for _ in range(m)]
        mat = IntMat(rows)
        try:
            got = gcd_max_minors(mat)
        except RankDeficientError:
            assert minors_gcd(rows) == 0
            continue
        assert got == minors_gcd(rows)
        done += 1


def test_gcd_max_minors_rank_deficient():
    with pytest.raises(RankDeficientError):
        gcd_max_minors(IntMat([[2, 4], [1, 2]]))


def test_solve_rational_examples():
    assert solve_rational(IntMat.identity(3), (4, 5, 6)) == (4, 5, 6)
    assert solve_rational(IntMat([[2, 0], [0, 4]]), (1, 2)) == (
        Fraction(1, 2),
        Fraction(1, 2),
    )
    assert solve_rational(IntMat([[1, 1], [0, 1]]), (3, 1)) == (2, 1)


def test_solve_rational_errors():
    with pytest.raises(SingularError):
        solve_rational(IntMat([[1, 2], [2, 4]]), (1, 1))
    with pytest.raises(NotSquareError):
        solve_rational(IntMat([[1, 2, 3]]), (1,))
    with pytest.raises(DimensionMismatchError):
        solve_rational(IntMat.identity(2), (1, 2, 3))
    # rhs entries are checked first, and a bad one is named, a bool included
    for rhs, i, kind in (((True, 1), 0, "bool"), ((1.0, 1), 0, "float"), ((1, 2.5), 1, "float")):
        with pytest.raises(TypeError, match=f"^rhs entry {i} is {kind}, expected int$"):
            solve_rational(IntMat([[2, 0], [0, 1]]), rhs)
    with pytest.raises(TypeError, match=r"^rhs entry 0 is bool, expected int$"):
        solve_rational(IntMat([[1, 2, 3]]), (False,))
    assert solve_rational(IntMat([[2, 0], [0, 1]]), iter([1, 1])) == (Fraction(1, 2), 1)


def test_solve_rational_roundtrip():
    rng = random.Random(6)
    done = 0
    while done < 200:
        n = rng.randint(1, 5)
        mat = IntMat([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        if det_exact(mat) == 0:
            continue
        x = tuple(rng.randint(-50, 50) for _ in range(n))
        sol = solve_rational(mat, mat.mul_vec(x))
        assert sol == x
        done += 1


def test_inverse_rational():
    # the Fraction reference inverse, and the partition's adj(B) of a square
    # B as det times it
    rng = random.Random(7)
    done = 0
    while done < 100:
        n = rng.randint(1, 4)
        mat = IntMat([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        if det_exact(mat) == 0:
            assert inverse_rational([list(r) for r in mat]) is None
            with pytest.raises(SingularError):
                partition(mat, range(n))
            continue
        inv = inverse_rational([list(r) for r in mat])
        for i in range(n):
            for j in range(n):
                acc = sum(inv[i][k] * mat[k][j] for k in range(n))
                assert acc == (1 if i == j else 0)
        part = partition(mat, range(n))
        det, adj = part.det, part.adj
        assert det == det_exact(mat) == det_cofactor([list(r) for r in mat])
        assert adj == tuple(tuple(det * e for e in row) for row in inv)
        done += 1
