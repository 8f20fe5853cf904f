import math
import random
from fractions import Fraction

import pytest

from diobox import (
    DimensionMismatchError,
    IntMat,
    NotSquareError,
    SingularError,
    WrongRowCountError,
    aliev_henk_p,
    aliev_henk_t_bound,
    deep_cone_condition,
    det_exact,
    gcd_max_minors,
    shifted_cone_report,
)

from oracles import adj_products, in_cone


def _random_nonsingular(rng, m, bound=9):
    while True:
        mat = IntMat([[rng.randint(-bound, bound) for _ in range(m)] for _ in range(m)])
        if det_exact(mat) != 0:
            return mat


def test_in_cone_basics():
    eye = IntMat.identity(2)
    assert in_cone(eye, (0, 0))
    assert in_cone(eye, (3, 1))
    assert not in_cone(eye, (-1, 0))
    assert in_cone(IntMat([[2, 1], [1, 2]]), (3, 3))
    assert not in_cone(IntMat([[2, 1], [1, 2]]), (1, -1))


def test_in_cone_singular():
    with pytest.raises(SingularError):
        in_cone(IntMat([[1, 2], [2, 4]]), (1, 1))


def test_deep_cone_worked_example():
    # B = 3*I, one extra column (1,1), gcd 3: threshold t^2 = 2*(3-1)^2/9 per
    # facet after scaling by the row norms 1/9
    b_mat = IntMat([[3, 0], [0, 3]])
    n_mat = IntMat([[1], [1]])
    rep = deep_cone_condition(b_mat, n_mat, 3, (3, 3))
    assert rep.holds
    assert rep.threshold_squared == 8
    for f in rep.facets:
        assert f.lhs_squared == 1
        assert f.rhs_squared == Fraction(8, 9)
        assert f.lhs_nonnegative and f.satisfied

    rep = deep_cone_condition(b_mat, n_mat, 3, (2, 3))
    assert not rep.holds
    assert rep.facets[0].lhs_squared == Fraction(4, 9)
    assert not rep.facets[0].satisfied
    assert rep.facets[1].satisfied


def test_deep_cone_unit_ratio_is_membership():
    # with |det B| == gcd the threshold collapses to zero
    rng = random.Random(21)
    for _ in range(1000):
        m = rng.randint(1, 3)
        b_mat = _random_nonsingular(rng, m)
        n_mat = IntMat([[rng.randint(-9, 9)] for _ in range(m)])
        point = tuple(rng.randint(-20, 20) for _ in range(m))
        rep = deep_cone_condition(b_mat, n_mat, abs(det_exact(b_mat)), point)
        assert rep.threshold_squared == 0
        assert rep.holds == in_cone(b_mat, point)


def test_deep_cone_without_n_columns_is_membership():
    # a square A leaves N with no columns: l_N = 0, so the depth is zero
    rng = random.Random(23)
    for _ in range(200):
        m = rng.randint(1, 3)
        b_mat = _random_nonsingular(rng, m)
        point = tuple(rng.randint(-20, 20) for _ in range(m))
        rep = deep_cone_condition(b_mat, b_mat.select_cols([]), 1, point)
        assert rep.threshold_squared == 0
        assert rep.holds == in_cone(b_mat, point)


def test_deep_cone_monotone_along_basis():
    # adding a basis column can only push the point deeper
    rng = random.Random(22)
    done = 0
    while done < 300:
        m = rng.randint(1, 3)
        b_mat = _random_nonsingular(rng, m)
        n_mat = IntMat([[rng.randint(-9, 9)] for _ in range(m)])
        gcd_a = rng.choice([1, 1, 2])
        if abs(det_exact(b_mat)) % gcd_a:
            gcd_a = 1
        point = tuple(rng.randint(-30, 30) for _ in range(m))
        rep = deep_cone_condition(b_mat, n_mat, gcd_a, point)
        if not rep.holds:
            continue
        j = rng.randrange(m)
        pushed = tuple(p + c for p, c in zip(point, b_mat.col(j)))
        assert deep_cone_condition(b_mat, n_mat, gcd_a, pushed).holds
        done += 1


def test_deep_cone_errors():
    with pytest.raises(SingularError):
        deep_cone_condition(IntMat([[1, 2], [2, 4]]), IntMat([[1], [1]]), 1, (1, 1))
    with pytest.raises(ValueError):
        deep_cone_condition(IntMat.identity(2), IntMat([[1], [1]]), 0, (1, 1))
    with pytest.raises(NotSquareError):
        deep_cone_condition(IntMat([[1, 0, 2], [0, 1, 3]]), IntMat([[1], [1]]), 1, (1, 1))
    with pytest.raises(DimensionMismatchError):
        deep_cone_condition(IntMat.identity(2), IntMat([[1], [1], [1]]), 1, (1, 1))
    # the checks run in this order: entries of rhs, gcd, shape of B,
    # singular B, rows of N; a bad rhs entry is named, a bool included
    for rhs, kind in (((True,), "bool"), ((10.5,), "float")):
        with pytest.raises(TypeError, match=f"^rhs entry 0 is {kind}, expected int$"):
            deep_cone_condition(IntMat([[2]]), IntMat([[3]]), 1, rhs)
    with pytest.raises(TypeError, match=r"^rhs entry 1 is float, expected int$"):
        deep_cone_condition(IntMat([[1, 2]]), IntMat([[1], [1]]), 0, (1, 1.0))
    with pytest.raises(ValueError):
        deep_cone_condition(IntMat([[1, 2]]), IntMat([[1], [1]]), 0, (1,))
    with pytest.raises(NotSquareError):
        deep_cone_condition(IntMat([[1, 2]]), IntMat([[1], [1]]), 1, (1,))
    with pytest.raises(SingularError):
        deep_cone_condition(IntMat([[1, 2], [2, 4]]), IntMat([[1]]), 1, (1, 1))


def _inputs(b_mat, n_mat, point):
    # shifted_cone_report's arguments: det B, adj(B) N, B, N and adj(B) point
    det, adj_n, adj_b = adj_products(b_mat, n_mat, point)
    return det, adj_n, b_mat, n_mat, adj_b


def test_shifted_cone_worked_example():
    # A = (B | N) = [[2, 0, 1], [0, 2, 1]]
    b_mat = IntMat([[2, 0], [0, 2]])
    n_mat = IntMat([[1], [1]])
    rep = shifted_cone_report(*_inputs(b_mat, n_mat, (7, 7)))
    assert rep is not None and rep.holds
    assert rep.threshold_squared == Fraction(9, 2)  # s^2 = 4 * 2 * (3/4)^2
    rep = shifted_cone_report(*_inputs(b_mat, n_mat, (6, 6)))
    assert rep is not None and not rep.holds


def test_shifted_cone_not_applicable():
    # a column outside the basis cone disables the test
    b_mat = IntMat([[1, 0], [0, 1]])
    n_mat = IntMat([[-1], [2]])
    assert shifted_cone_report(*_inputs(b_mat, n_mat, (5, 5))) is None


def test_shifted_cone_wrong_row_count():
    a = IntMat([[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]])
    b_mat = a.select_cols([0, 1, 2])
    with pytest.raises(WrongRowCountError):
        shifted_cone_report(*_inputs(b_mat, a.select_cols([3]), (1, 1, 1)))


def test_shifted_cone_unimodular_is_membership():
    # |det B| = 1 makes the shift vanish: the test is plain cone membership
    rng = random.Random(23)
    done = 0
    while done < 200:
        b_mat = _random_nonsingular(rng, 2)
        if abs(det_exact(b_mat)) != 1:
            continue
        y = (rng.randint(0, 5), rng.randint(0, 5))
        col = b_mat.mul_vec(y)
        n_mat = IntMat([[col[0]], [col[1]]])
        point = tuple(rng.randint(-20, 20) for _ in range(2))
        rep = shifted_cone_report(*_inputs(b_mat, n_mat, point))
        assert rep is not None
        assert rep.threshold_squared == 0
        assert rep.holds == in_cone(b_mat, point)
        done += 1


def test_shifted_implies_deep_smoke():
    # cone-equal, coprime instances: the two-row shifted test is at least as
    # strong as the general deep-cone test (the acceptance battery runs the
    # full 200-instance version)
    rng = random.Random(24)
    done = 0
    while done < 30:
        b_mat = _random_nonsingular(rng, 2)
        cols = []
        for _ in range(rng.randint(1, 3)):
            y = (rng.randint(0, 4), rng.randint(0, 4))
            if y == (0, 0):
                y = (1, 1)
            cols.append(b_mat.mul_vec(y))
        n_mat = IntMat(zip(*cols))
        a = IntMat(
            [list(b_mat[i]) + [c[i] for c in cols] for i in range(2)]
        )
        if gcd_max_minors(a) != 1:
            continue
        x = [rng.randint(0, 3) for _ in range(a.cols)]
        base = a.mul_vec(x)
        shift = b_mat.mul_vec((1, 1))
        point = base
        for _ in range(200):
            rep = shifted_cone_report(*_inputs(b_mat, n_mat, point))
            assert rep is not None
            if rep.holds:
                break
            point = tuple(p + s for p, s in zip(point, shift))
        else:
            continue
        deep = deep_cone_condition(b_mat, n_mat, 1, point)
        assert deep.holds, ([list(r) for r in a], point)
        done += 1


def test_aliev_henk_p_values():
    assert aliev_henk_p(2, 4) == pytest.approx(2.0, abs=1e-12)
    for m in range(1, 8):
        assert aliev_henk_p(m, m + 1) == pytest.approx(math.sqrt((m + 1) / 2), abs=1e-12)


def test_aliev_henk_t_bound_single_row():
    # 2^(-1/2) * p(1,2) * sqrt(13) for the row (2 3)
    got = aliev_henk_t_bound(IntMat([[2, 3]]))
    assert got == pytest.approx(math.sqrt(13 / 2), rel=1e-12)


def test_aliev_henk_t_bound_rank_deficient():
    from diobox import RankDeficientError

    with pytest.raises(RankDeficientError):
        aliev_henk_t_bound(IntMat([[1, 2, 3], [2, 4, 6]]))


def test_approx_sqrt_takes_the_root_first():
    from diobox.commands import approx_sqrt

    rng = random.Random(5)
    for _ in range(200):
        num = rng.randrange(1, 2 ** rng.randrange(1, 1000))
        den = rng.randrange(1, 2 ** rng.randrange(1, 60))
        assert approx_sqrt(num, den) == math.sqrt(num / den)  # below 2^1000: unscaled
        assert approx_sqrt(num) == math.sqrt(num)
    for bits in (1100, 1500, 2040):
        num = rng.randrange(2 ** (bits - 1), 2**bits)
        assert approx_sqrt(num) == pytest.approx(math.isqrt(num), rel=1e-14)
        assert approx_sqrt(num * 7, 7) == pytest.approx(math.isqrt(num), rel=1e-14)
    assert approx_sqrt(0) == 0.0
    assert approx_sqrt(2**2048) is None  # the root, 2^1024, is beyond a double
    assert approx_sqrt(2**2048, 4) == 2.0**1023


def test_aliev_henk_t_bound_beyond_double():
    # sqrt(det(A A^T)) beyond a double, and 2^((n-m)/2 - 1) beyond one on
    # its own (n - m = 2051); both are None rather than an OverflowError
    assert aliev_henk_t_bound(IntMat([[10**400, 3, 5]])) is None
    assert aliev_henk_t_bound(IntMat([[1] * 2052])) is None
    got = aliev_henk_t_bound(IntMat([[10**209, 3, 5]]))
    assert got == pytest.approx(math.sqrt(3) * 1e209, rel=1e-12)
