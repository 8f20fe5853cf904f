"""The fraction-free elimination core against the Fraction eliminations it
replaced (kept in ``oracles.py``), on random square and wide matrices that
include singular and rank-deficient ones."""

import pytest

from diobox import (
    DimensionMismatchError,
    IntMat,
    NotSquareError,
    RankDeficientError,
    SingularError,
    adjugate,
    deep_cone_condition,
    det_exact,
    gcd_max_minors,
    select_basis_columns,
    shifted_cone_condition_m2,
    solve_rational,
)
from diobox.gen import push_into_deep_cone
from diobox.linalg import pivot_columns
from oracles import (
    deep_cone_reference,
    det_cofactor,
    echelon_pivots,
    inverse_rational,
    shifted_cone_reference,
    solve_fraction,
)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)
ENTRIES = st.one_of(st.integers(-3, 3), st.integers(-10**6, 10**6))


@st.composite
def matrices(draw, rows=None, square=False):
    """Small integer matrices. Small entries give zero columns and
    dependent columns often; with probability one half, one row is also
    replaced by an integer combination of the others."""
    m = draw(st.integers(1, 5)) if rows is None else rows
    n = m if square else draw(st.integers(m, m + 4))
    a = draw(st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=m, max_size=m))
    if m > 1 and draw(st.booleans()):
        k = draw(st.integers(0, m - 1))
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
        a[k] = [sum(c * a[i][j] for i, c in enumerate(coeffs) if i != k) for j in range(n)]
    return a


def _vector(n):
    return st.lists(ENTRIES, min_size=n, max_size=n)


@SETTINGS
@given(matrices(square=True))
def test_adjugate_identity(rows):
    mat = IntMat(rows)
    n = mat.rows
    det = det_cofactor(rows)
    assert det_exact(mat) == det
    if det == 0:
        with pytest.raises(SingularError):
            adjugate(mat)
        return
    got_det, adj = adjugate(mat)
    assert got_det == det
    scaled = IntMat([[det * int(i == j) for j in range(n)] for i in range(n)])
    assert mat @ IntMat(adj) == scaled
    assert IntMat(adj) @ mat == scaled
    inv = inverse_rational(rows)
    assert adj == tuple(tuple(det * e for e in row) for row in inv)


@SETTINGS
@given(matrices())
def test_pivot_columns_match_fraction_echelon(rows):
    mat = IntMat(rows)
    want = echelon_pivots(rows)
    assert pivot_columns(mat) == want
    if len(want) < mat.rows:
        with pytest.raises(RankDeficientError):
            select_basis_columns(mat)
    else:
        assert select_basis_columns(mat)[0] == want


@SETTINGS
@given(st.data())
def test_solve_rational_matches_gauss_jordan(data):
    rows = data.draw(matrices(square=data.draw(st.booleans())))
    # mostly the right length, sometimes not
    length = data.draw(st.sampled_from([len(rows), len(rows), len(rows), len(rows) + 1]))
    rhs = data.draw(_vector(length))
    try:
        want = solve_fraction(rows, rhs)
    except (NotSquareError, DimensionMismatchError, SingularError) as exc:
        with pytest.raises(type(exc)):
            solve_rational(IntMat(rows), rhs)
        return
    assert solve_rational(IntMat(rows), rhs) == want


def _report_tuple(rep):
    return rep.holds, rep.threshold_squared, [
        (f.lhs_squared, f.rhs_squared, f.lhs_nonnegative) for f in rep.facets
    ]


@SETTINGS
@given(st.data())
def test_deep_cone_report_matches_fraction_inverse(data):
    b_rows = data.draw(matrices(square=True))
    m = len(b_rows)
    n_rows = data.draw(matrices(rows=m))
    gcd_a = data.draw(st.integers(1, 12))
    rhs = data.draw(_vector(m))
    want = deep_cone_reference(b_rows, n_rows, gcd_a, rhs)
    if want is None:
        with pytest.raises(SingularError):
            deep_cone_condition(IntMat(b_rows), IntMat(n_rows), gcd_a, rhs)
        return
    rep = deep_cone_condition(IntMat(b_rows), IntMat(n_rows), gcd_a, rhs)
    assert _report_tuple(rep) == want
    assert rep.holds == all(f.satisfied for f in rep.facets)


@SETTINGS
@given(st.data())
def test_shifted_cone_report_matches_fraction_inverse(data):
    # nonnegative entries make the cone equality hold often enough
    b_rows = data.draw(matrices(rows=2, square=True))
    nonneg = st.lists(st.integers(0, 9), min_size=2, max_size=2)
    n_rows = data.draw(st.one_of(matrices(rows=2), st.lists(nonneg, min_size=2, max_size=2)))
    if data.draw(st.booleans()):
        b_rows = [[abs(e) for e in row] for row in b_rows]
    rhs = data.draw(_vector(2))
    a_rows = [rb + rn for rb, rn in zip(b_rows, n_rows)]
    args = (IntMat(a_rows), IntMat(b_rows), IntMat(n_rows), rhs)
    want = shifted_cone_reference(a_rows, b_rows, n_rows, rhs)
    if want is None:
        with pytest.raises(SingularError):
            shifted_cone_condition_m2(*args)
        return
    rep = shifted_cone_condition_m2(*args)
    assert (rep is None) if want == "n/a" else _report_tuple(rep) == want


@SETTINGS
@given(st.data())
def test_push_into_deep_cone_is_minimal(data):
    # every facet margin grows by exactly k_i, so k is minimal iff taking one
    # step back along any used basis column breaks the deep-cone test
    rows = data.draw(matrices(square=True))
    if det_cofactor(rows) == 0:
        return
    m = len(rows)
    n_rows = data.draw(matrices(rows=m))
    a_mat = IntMat([rb + rn for rb, rn in zip(rows, n_rows)])
    try:
        gcd_a = gcd_max_minors(a_mat)
    except RankDeficientError:
        return
    b = tuple(data.draw(_vector(m)))
    out = push_into_deep_cone(a_mat, b)
    b_mat, n_mat = IntMat(rows), IntMat(n_rows)
    assert deep_cone_condition(b_mat, n_mat, gcd_a, out).holds
    k = solve_rational(b_mat, [o - e for o, e in zip(out, b)])
    assert all(c.denominator == 1 and c >= 0 for c in k)
    for i, ki in enumerate(k):
        if ki:
            back = tuple(o - row[i] for o, row in zip(out, rows))
            assert not deep_cone_condition(b_mat, n_mat, gcd_a, back).facets[i].satisfied
