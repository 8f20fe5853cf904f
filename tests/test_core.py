"""The fraction-free elimination core against the Fraction eliminations it
replaced (kept in ``oracles.py``), on random square and wide matrices that
include singular and rank-deficient ones; and the lattice work modulo
|det B| against the integer ``hnf_column`` route it replaced (kept there
too)."""

import math
import random
from fractions import Fraction

import pytest

from diobox import (
    DimensionMismatchError,
    IntMat,
    NotSquareError,
    ProblemInstance,
    RankDeficientError,
    SingularError,
    SolveStatus,
    basis_partition,
    box_reduce,
    deep_cone_condition,
    det_exact,
    gcd_max_minors,
    integer_solution_set,
    partition,
    project_drop_m,
    shifted_cone_report,
    solve,
    solve_rational,
    special_basis,
)
from diobox import linalg, solver
from diobox.cone import deep_cone_report
from diobox.errors import InternalError
from diobox.gen import push_into_deep_cone
from diobox.lattice import kernel_coset, lift
from diobox.linalg import _adj_mul, _box_sweep, dot, echelon_mod, kernel_echelon
from diobox.reference import hnf_mod
from diobox.solver import conditions
from brute_force import brute_force_solve
from oracles import (
    coset_basis,
    deep_cone_reference,
    det_cofactor,
    echelon_pivots,
    hnf_column,
    integer_feasible_minor_test,
    integer_solution_set_hnf,
    inverse_rational,
    kernel_coset_z0,
    kernel_echelon_product,
    lift_residual,
    minors_gcd,
    shifted_cone_reference,
    solve_fraction,
    special_basis_hnf,
    triangular_sweep,
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
    # det B and adj(B) of a square B from the partition with B's own columns,
    # against cofactor expansion and det times the Fraction inverse
    mat = IntMat(rows)
    n = mat.rows
    det = det_cofactor(rows)
    assert det_exact(mat) == det
    if det == 0:
        with pytest.raises(SingularError):
            partition(mat, range(n))
        return
    part = partition(mat, range(n))
    adj = part.adj
    assert part.det == det and part.adj_n == ((),) * n
    scaled = IntMat([[det * int(i == j) for j in range(n)] for i in range(n)])
    assert mat @ IntMat(adj) == scaled
    assert IntMat(adj) @ mat == scaled
    inv = inverse_rational(rows)
    assert adj == tuple(tuple(det * e for e in row) for row in inv)


@SETTINGS
@given(matrices())
def test_pivot_columns_match_fraction_echelon(rows):
    # the leftmost basis, det B and adj(B) from one elimination of [A | I]
    # against the Fraction echelon's pivots and the Fraction inverse
    mat = IntMat(rows)
    want = echelon_pivots(rows)
    if len(want) < mat.rows:
        with pytest.raises(RankDeficientError):
            partition(mat)
        return
    part = partition(mat)
    cols, det, adj = part.basis_cols, part.det, part.adj
    assert cols == want
    b_rows = [[row[j] for j in cols] for row in rows]
    assert det == det_cofactor(b_rows) != 0
    assert adj == tuple(tuple(det * e for e in row) for row in inverse_rational(b_rows))
    assert partition(mat)[2:] == partition(mat, cols)[2:]


@st.composite
def partitioned(draw):
    """``(rows, cols, dependent)``: a matrix, explicit basis columns or None,
    and None or the index p < m of an inserted column that the leftmost
    basis must skip: a multiple of column p - 1, or zero when p = 0. The
    default-column draws include square matrices, whose N has no columns."""
    kind = draw(st.sampled_from(["default", "dependent", "square", "explicit"]))
    rows = draw(matrices(square=kind == "square"))
    m, n = len(rows), len(rows[0])
    cols = dependent = None
    if kind == "dependent":
        dependent = draw(st.integers(0, m - 1))
        c = draw(st.integers(-3, 3))
        rows = [
            row[:dependent] + [c * row[dependent - 1] if dependent else 0] + row[dependent:]
            for row in rows
        ]
    elif kind == "explicit":
        cols = tuple(draw(st.permutations(range(n)))[:m])
    return rows, cols, dependent


@SETTINGS
@given(partitioned())
def test_partition_adj_n_is_adj_times_n(case):
    # adj(B) N from the partition's one elimination is exactly the product
    # the old route built, for the leftmost basis (pivots that skip a
    # dependent leading column, and k = 0 for a square A) and for explicit
    # columns; both routes give the same gcd, and the echelon reduces to the
    # old route's
    rows, cols, dependent = case
    mat = IntMat(rows)
    try:
        part = partition(mat, cols)
    except (RankDeficientError, SingularError):
        return
    if dependent is not None:
        assert dependent not in part.basis_cols
    b_rows = [list(row) for row in part.b_mat]
    det = det_cofactor(b_rows)
    adj = tuple(tuple(det * e for e in row) for row in inverse_rational(b_rows))
    assert (part.det, part.adj) == (det, adj)
    n_cols = [part.n_mat.col(j) for j in range(part.n_mat.cols)]
    assert part.adj_n == tuple(tuple(dot(row, col) for col in n_cols) for row in adj)
    got = kernel_echelon(part.det, part.adj_n)
    want = kernel_echelon_product(det, adj, part.n_mat)
    _assert_folded(got[0], abs(det), want[0])
    assert got[1] == want[1] == minors_gcd(rows)


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
    # the report's (numerator, denominator) pairs as the oracles' Fractions;
    # a pair must already be in lowest terms with a positive denominator
    def frac(pair):
        assert Fraction(*pair).as_integer_ratio() == pair
        return Fraction(*pair)

    return rep.holds, frac(rep.threshold_squared), [
        (frac(f.lhs_squared), frac(f.rhs_squared), f.lhs_nonnegative) for f in rep.facets
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
    # the report the solver prints, from the partition of (B | N) and adj(B) b
    part = partition(IntMat([rb + rn for rb, rn in zip(b_rows, n_rows)]), range(m))
    got = deep_cone_report(part.det, part.adj, part.n_mat, gcd_a, _adj_mul(part.adj, rhs))
    assert _report_tuple(got) == want


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
    want = shifted_cone_reference(a_rows, b_rows, n_rows, rhs)
    if want is None:
        with pytest.raises(SingularError):
            partition(IntMat(a_rows), (0, 1))
        return
    # the report the command line prints: from the partition and adj(B) b
    part = partition(IntMat(a_rows), (0, 1))
    adj_b = _adj_mul(part.adj, rhs)
    rep = shifted_cone_report(part.det, part.adj_n, part.b_mat, part.n_mat, adj_b)
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
    out = push_into_deep_cone(partition(a_mat, range(m)), b)
    b_mat, n_mat = IntMat(rows), IntMat(n_rows)
    assert deep_cone_condition(b_mat, n_mat, gcd_a, out).holds
    k = solve_rational(b_mat, [o - e for o, e in zip(out, b)])
    assert all(c.denominator == 1 and c >= 0 for c in k)
    for i, ki in enumerate(k):
        if ki:
            back = tuple(o - row[i] for o, row in zip(out, rows))
            assert not deep_cone_condition(b_mat, n_mat, gcd_a, back).facets[i].satisfied


def _assert_folded(basis, mod, want=None):
    # the contract of an echelon_mod basis: lower triangular, a positive
    # diagonal that divides mod, every entry left of it in [0, mod). With
    # want, the unique reduced basis of the same lattice (an oracle's): the
    # same diagonal, and want itself once reduced
    for i, v in enumerate(basis):
        assert len(v) == len(basis) and not any(v[i + 1 :])
        assert v[i] > 0 and mod % v[i] == 0 and all(0 <= e < mod for e in v[:i])
    if want is not None:
        assert [v[i] for i, v in enumerate(basis)] == [v[i] for i, v in enumerate(want)]
        assert hnf_mod(basis, len(basis), mod) == tuple(want)


def _hnf_mod_reference(gens, width, mod):
    # the same lattice through hnf_column over the integers, the way
    # special_basis reads a lower-triangular basis off it
    vecs = [list(g) for g in gens] + [[mod * (i == j) for j in range(width)] for i in range(width)]
    h = hnf_column(IntMat([v[::-1] for v in vecs]).transpose()).h
    return tuple(tuple(h.col(width - 1 - i)[::-1]) for i in range(width))


@SETTINGS
@given(st.data())
def test_hnf_mod_matches_integer_hnf(data):
    width = data.draw(st.integers(1, 6))
    mod = data.draw(st.one_of(st.integers(1, 12), st.integers(1, 10**9)))
    gens = data.draw(st.lists(_vector(width), max_size=7))
    got = hnf_mod(gens, width, mod)
    assert got == _hnf_mod_reference(gens, width, mod)
    for i, v in enumerate(got):
        assert mod % v[i] == 0 and not any(v[i + 1 :])
        assert all(0 <= v[j] < got[j][j] for j in range(i))
    # the folding pass alone meets its contract and reduces to the same basis
    _assert_folded(echelon_mod(gens, width, mod), mod, got)


def _record_xgcd(monkeypatch):
    # the arguments of every extended gcd that hnf_mod runs from here on
    calls = []

    def recorded(a, b, xgcd=linalg.xgcd):
        calls.append((a, b))
        return xgcd(a, b)

    monkeypatch.setattr(linalg, "xgcd", recorded)
    return calls


@pytest.mark.parametrize(
    "gens, width, mod, want_calls",
    [
        # the second entry equals the pivot 2 that xgcd(8, 2) leaves
        (((2,), (2,)), 1, 8, [(8, 2)]),
        (((1, 2), (3, 2)), 2, 8, [(8, 2), (8, 4), (4, 2)]),
        # the second entry is 3 times that pivot
        (((2,), (6,)), 1, 8, [(8, 2)]),
        (((1, 2), (3, 6)), 2, 8, [(8, 2), (8, 4)]),
        # xgcd(8, 3) leaves the pivot 1, which divides every later entry
        (((3,), (5,), (7,)), 1, 8, [(8, 3)]),
        (((1, 3), (3, 5), (2, 7)), 2, 8, [(8, 3), (8, 4), (4, 5)]),
        # generators that are zero modulo 8 are dropped before any fold
        (((8, 16), (1, 2), (0, -8), (3, 6)), 2, 8, [(8, 2), (8, 4)]),
        # (3, 0) is zero at the last coordinate: it passes on to the first
        (((3, 0), (1, 2), (3, 6)), 2, 8, [(8, 2), (8, 3)]),
        # modulo 1 every generator is zero: the basis is the identity
        (((1, 2), (3, 6)), 2, 1, []),
    ],
)
def test_hnf_mod_dividing_pivot_runs_no_xgcd(monkeypatch, gens, width, mod, want_calls):
    calls = _record_xgcd(monkeypatch)
    got = hnf_mod(gens, width, mod)
    monkeypatch.undo()
    assert calls == want_calls
    assert got == _hnf_mod_reference(gens, width, mod)


def test_hnf_mod_runs_xgcd_only_where_the_pivot_does_not_divide(monkeypatch):
    # moduli with many divisors make dividing pivots common; the basis is
    # still the integer route's, and no xgcd runs on a pivot that divides
    rng = random.Random(31)
    calls = _record_xgcd(monkeypatch)
    for _ in range(300):
        width = rng.randint(1, 5)
        mod = rng.choice((1, 2, 4, 6, 8, 12, 24, 36, 720))
        gens = [[rng.randint(-50, 50) for _ in range(width)] for _ in range(rng.randint(0, 6))]
        assert hnf_mod(gens, width, mod) == _hnf_mod_reference(gens, width, mod)
    monkeypatch.undo()
    assert calls and all(b % a for a, b in calls)


def _routes_agree(inst, oracle_gcd=True):
    """Compare the modular route with the hnf_column route on one instance;
    return the box-reduced free part w of the hnf_column route, None when
    the instance has no integer solution."""
    part = basis_partition(inst)
    m, d = inst.a.rows, abs(part.det)
    coset = kernel_coset(part.det, part.adj_n, _adj_mul(part.adj, inst.b))
    rep = integer_solution_set_hnf(inst.a.select_cols(part.order), inst.b)
    assert (coset.point is None) == (rep is None)
    # the gcd, for infeasible instances too
    assert coset.gcd == math.prod(hnf_column(inst.a).h[i][i] for i in range(m))
    if oracle_gcd:
        assert coset.gcd == minors_gcd([list(r) for r in inst.a])
    basis = coset_basis(coset.echelon, inst.a.cols - m)
    assert math.prod(v[i] for i, v in enumerate(basis)) * coset.gcd == d
    _assert_folded(basis, d)
    if rep is None:
        return None
    assert all(0 <= e < d for e in coset.point)
    want = special_basis_hnf(project_drop_m(rep.kernel_basis, m))
    _assert_folded(basis, d, want.vectors)
    w = box_reduce(want.vectors, rep.particular[m:]).w
    assert coset.point == w
    assert box_reduce(basis, coset.point).w == w
    return tuple(int(f) for f in w)


@SETTINGS
@given(st.data())
def test_special_basis_matches_integer_hnf(data):
    d = data.draw(st.integers(1, 6))
    vecs = data.draw(st.lists(_vector(d), min_size=d, max_size=d))
    # negating one vector keeps the lattice and flips the sign of det V
    flipped = [[-e for e in vecs[0]]] + vecs[1:]
    if det_cofactor(vecs) == 0:
        for fn in (special_basis, special_basis_hnf):
            with pytest.raises(SingularError):
                fn(vecs)
        return
    want = special_basis_hnf(vecs)
    assert special_basis(vecs) == want == special_basis(flipped)


@SETTINGS
@given(st.data())
def test_integer_solution_set_matches_integer_hnf(data):
    # square and dependent systems included; b is A x for an integer x half
    # of the time, and sometimes of the wrong length
    rows = data.draw(matrices())
    m, n = len(rows), len(rows[0])
    mat = IntMat(rows)
    if data.draw(st.booleans()):
        b = mat.mul_vec(data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n)))
    else:
        b = tuple(data.draw(_vector(data.draw(st.sampled_from([m, m, m, m + 1])))))
    try:
        want = integer_solution_set_hnf(mat, b)
    except (RankDeficientError, DimensionMismatchError) as exc:
        with pytest.raises(type(exc)):
            integer_solution_set(mat, b)
        return
    got = integer_solution_set(mat, b)
    assert (got is None) == (want is None)
    if got is None:
        return
    assert mat.mul_vec(got.particular) == b
    assert len(got.kernel_basis) == n - m
    assert all(mat.mul_vec(v) == (0,) * m for v in got.kernel_basis)
    diff = tuple(p - q for p, q in zip(got.particular, want.particular))
    assert mat.mul_vec(diff) == (0,) * m
    if m == n:
        assert diff == (0,) * n
        return
    # dropping the basis coordinates maps the kernel lattice one to one onto
    # L', so equal special bases mean both kernel bases span the same
    # lattice; and the difference of the particulars lies in it
    order = partition(mat).order
    lattice = special_basis(project_drop_m([[v[j] for j in order] for v in got.kernel_basis], m))
    ref = project_drop_m([[v[j] for j in order] for v in want.kernel_basis], m)
    assert lattice == special_basis_hnf(ref)
    assert not any(box_reduce(lattice.vectors, [diff[j] for j in order[m:]]).w)


@SETTINGS
@given(st.data())
def test_square_system_takes_general_path(data):
    # N of a square A has no columns: L' is Z^0, the gcd of the maximal
    # minors is |det A|, and the coset point is () exactly when A x = b has
    # an integer solution, which lift then returns
    rows = data.draw(matrices(square=True))
    det = det_cofactor(rows)
    if det == 0:
        return
    mat, m = IntMat(rows), len(rows)
    if data.draw(st.booleans()):
        b = mat.mul_vec(data.draw(st.lists(st.integers(-5, 5), min_size=m, max_size=m)))
    else:
        b = tuple(data.draw(_vector(m)))
    part = partition(mat)
    assert (part.n_mat.rows, part.n_mat.cols) == (m, 0)
    coset = kernel_coset(part.det, part.adj_n, _adj_mul(part.adj, b))
    assert coset_basis(coset.echelon, 0) == () and coset.gcd == abs(det)
    want = solve_fraction(rows, b)
    if any(f.denominator != 1 for f in want):
        assert coset.point is None and integer_solution_set(mat, b) is None
        return
    x = tuple(int(f) for f in want)
    assert coset.point == ()
    assert lift(part, _adj_mul(part.adj, b), ()) == x
    assert integer_solution_set(mat, b) == (x, ()) == integer_solution_set_hnf(mat, b)


@st.composite
def lift_cases(draw):
    """``(rows, cols, x, coeffs, shift)``: a ``partitioned`` matrix, an x
    for ``b = A x``, the coefficients of a lattice vector added to the coset
    point, and a shift that moves the point off the coset when not zero."""
    rows, cols, _ = draw(partitioned())
    n, k = len(rows[0]), len(rows[0]) - len(rows)
    x = draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
    small = st.lists(st.integers(-2, 2), min_size=k, max_size=k)
    shift = draw(st.one_of(st.just([0] * k), small))
    return rows, cols, x, coeffs, shift


@SETTINGS
@given(lift_cases())
@hypothesis.example(([[2, 1], [1, 3]], None, [1, 2], [], []))  # square A: k = 0
@hypothesis.example(([[-6, 4, 9, 15]], None, [1, 0, 2, 1], [1, -1, 2], [0, 1, 0]))  # det B < 0
@hypothesis.example(([[3, 1, 4, 1], [5, 9, 2, 6]], (1, 0), [2, 0, 1, 3], [1, 2], [0, 0]))
def test_lift_matches_residual_lift(case):
    # the lift from adj(B) b and adj(B) N against the residual lift it
    # replaced: both raise, or both give the same solution of A x = b. The
    # pinned examples are a square A, a negative det B off the coset, and
    # explicit columns with det B = -22
    rows, cols, x, coeffs, shift = case
    mat = IntMat(rows)
    try:
        part = partition(mat, cols)
    except (RankDeficientError, SingularError):
        return
    b = mat.mul_vec(x)
    adj_b = _adj_mul(part.adj, b)
    coset = kernel_coset(part.det, part.adj_n, adj_b)
    basis = coset_basis(coset.echelon, len(rows[0]) - len(rows))
    w = [
        p + s + sum(c * v[j] for c, v in zip(coeffs, basis))
        for j, (p, s) in enumerate(zip(coset.point, shift))
    ]
    try:
        want = lift_residual(part, b, w)
    except InternalError:
        assert any(shift)
        with pytest.raises(InternalError):
            lift(part, adj_b, w)
        return
    assert lift(part, adj_b, w) == want
    assert mat.mul_vec(want) == b


@st.composite
def instances(draw, explicit=None):
    """Systems with ``b`` either ``A x`` or arbitrary, and with ``explicit``
    (drawn when None) a random ``basis_cols``. The rows may be dependent and
    the chosen basis singular."""
    if explicit is None:
        explicit = draw(st.booleans())
    rows = draw(matrices())
    m, n = len(rows), len(rows[0])
    if n == m:
        rows = [row + [draw(ENTRIES)] for row in rows]
        n += 1
    if draw(st.booleans()):
        x = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
        b = tuple(sum(a * e for a, e in zip(row, x)) for row in rows)
    else:
        b = tuple(draw(_vector(m)))
    cols = None
    if explicit:
        cols = tuple(draw(st.permutations(range(n)))[:m])
    return ProblemInstance(a=IntMat(rows), b=b, basis_cols=cols)


@SETTINGS
@given(instances())
def test_modular_route_matches_hnf_route(inst):
    try:
        basis_partition(inst)
    except (RankDeficientError, SingularError):
        return
    _routes_agree(inst)


@SETTINGS
@given(instances(), st.data())
def test_box_reduce_is_the_triangular_sweep(inst, data):
    # on the lower-triangular kernel_coset basis, box_reduce gives the
    # oracle's integer sweep, and it depends only on the coset
    try:
        part = basis_partition(inst)
    except (RankDeficientError, SingularError):
        return
    coset = kernel_coset(part.det, part.adj_n, _adj_mul(part.adj, inst.b))
    if coset.point is None:
        return
    k = len(coset.point)
    basis = coset_basis(coset.echelon, k)
    w = triangular_sweep(basis, coset.point)
    assert all(0 <= e < v[i] for i, (e, v) in enumerate(zip(w, basis)))
    assert box_reduce(basis, coset.point).w == w
    coeffs = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=k, max_size=k))
    moved = [p + sum(c * v[j] for c, v in zip(coeffs, basis)) for j, p in enumerate(coset.point)]
    assert triangular_sweep(basis, moved) == w
    assert box_reduce(basis, moved).w == w


@st.composite
def coset_cases(draw):
    """``(rows, cols, b)``: a ``partitioned`` matrix, square ones included,
    and ``b`` either ``A x`` or arbitrary, so mostly infeasible when
    ``|det B| > 1``."""
    rows, cols, _ = draw(partitioned())
    n = len(rows[0])
    if draw(st.booleans()):
        x = draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
        return rows, cols, tuple(dot(row, x) for row in rows)
    return rows, cols, tuple(draw(_vector(len(rows))))


@SETTINGS
@given(coset_cases())
@hypothesis.example(([[2, 1], [1, 3]], None, (4, 7)))  # square A, feasible
@hypothesis.example(([[2, 1], [1, 3]], None, (3, 5)))  # square A, infeasible
@hypothesis.example(([[-6, 4, 9, 15]], None, (7,)))  # det B < 0
@hypothesis.example(([[3, 1, 4, 1], [5, 9, 2, 6]], (1, 0), (7, 8)))  # explicit, det B = -22
@hypothesis.example(([[2, 4, 6, -8], [4, 2, 8, 10]], None, (3, 5)))  # infeasible
@hypothesis.example(([[4, -2, -3], [2, 0, 0]], None, (-3, 7)))  # infeasible, last t entry 0
@hypothesis.example(([[2, 4, 6, -8], [4, 2, 8, 10]], (2, 3), (4, 6)))  # explicit, D = 124
def test_kernel_coset_matches_z0_search(case):
    # one sweep of (0 ; -adj_b) along the whole echelon against the route it
    # replaced: the search for z0 in [0, D) along the last m echelon vectors,
    # then the triangular sweep of z0 along L'. Both give the same gcd, say
    # infeasible together, and give the same box point (the old route builds
    # no infeasibility certificate); the echelon reduces to the old route's
    rows, cols, b = case
    mat = IntMat(rows)
    try:
        part = partition(mat, cols)
    except (RankDeficientError, SingularError):
        return
    adj_b = _adj_mul(part.adj, b)
    coset = kernel_coset(part.det, part.adj_n, adj_b)
    old = kernel_coset_z0(part.det, part.adj, part.n_mat, adj_b)
    assert (coset.gcd, coset.point) == (old.gcd, old.point)
    _assert_folded(coset.echelon, abs(part.det), old.echelon)
    assert (coset.point is None) == (not integer_feasible_minor_test(rows, b))


@SETTINGS
@given(st.data())
def test_modular_route_unimodular_basis(data):
    # B = L U with unit diagonals: |det B| = 1, so L' is all of Z^(n-m),
    # the coset point is 0, and every b is feasible
    m = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(1, 4))
    small = st.integers(-4, 4)
    lo = [[1 if i == j else data.draw(small) if j < i else 0 for j in range(m)] for i in range(m)]
    up = [[1 if i == j else data.draw(small) if j > i else 0 for j in range(m)] for i in range(m)]
    b_rows = [list(r) for r in IntMat(lo) @ IntMat(up)]
    rows = [rb + data.draw(_vector(k)) for rb in b_rows]
    inst = ProblemInstance(a=IntMat(rows), b=tuple(data.draw(_vector(m))), basis_cols=tuple(range(m)))
    part = basis_partition(inst)
    assert part.det == 1
    assert _routes_agree(inst) is not None
    coset = kernel_coset(part.det, part.adj_n, _adj_mul(part.adj, inst.b))
    assert coset.point == (0,) * k and coset.gcd == 1


@pytest.mark.parametrize(
    "rows,b,cols",
    [
        ([[5, 2, 3]], (1,), None),  # m = 1
        ([[-6, 4, 9, 15]], (7,), None),  # m = 1, det B < 0
        ([[0, 1, 2], [1, 0, 3]], (4, 5), None),  # det B = -1
        ([[3, 1, 4, 1], [5, 9, 2, 6]], (7, 8), (1, 0)),  # explicit basis, det B < 0
        ([[2, 4, 6, -8], [4, 2, 8, 10]], (3, 5), None),  # infeasible
        ([[2, 4, 6, -8], [4, 2, 8, 10]], (4, 6), (2, 3)),  # explicit basis
    ],
)
def test_modular_route_examples(rows, b, cols):
    _routes_agree(ProblemInstance(a=IntMat(rows), b=b, basis_cols=cols))


@pytest.mark.parametrize("seed,feasible", [(11, True), (12, False)])
def test_modular_route_large_system(seed, feasible):
    # shaped like the hnf_growth benchmark: m = 10, 11, 12, n = 2m, entries
    # +-1000; the infeasible ones have A even and b[0] odd. solve's status
    # and box-reduced free part match the hnf_column route
    rng = random.Random(seed)
    for m in (10, 11, 12):
        n = 2 * m
        rows = [[rng.randint(-1000, 1000) for _ in range(n)] for _ in range(m)]
        if not feasible:
            rows = [[2 * e for e in row] for row in rows]
        a = IntMat(rows)
        b = a.mul_vec([rng.randint(0, 5) for _ in range(n)])
        if not feasible:
            b = (b[0] + 1,) + b[1:]
        inst = ProblemInstance(a=a, b=b)
        part = basis_partition(inst)
        assert abs(part.det).bit_length() > 100
        want = _routes_agree(inst, oracle_gcd=False)
        assert (want is not None) == feasible
        out = solve(inst)
        assert (out.status == SolveStatus.INFEASIBLE) != feasible
        got = None if out.x is None else tuple(out.x[j] for j in part.order[m:])
        assert got == want


@SETTINGS
@given(instances(explicit=False))
def test_one_gcd_source(inst):
    want = minors_gcd([list(r) for r in inst.a])
    if want == 0:  # dependent rows
        with pytest.raises(RankDeficientError):
            conditions(inst)
        with pytest.raises(RankDeficientError):
            gcd_max_minors(inst.a)
        return
    assert want == conditions(inst).gcd == gcd_max_minors(inst.a)


@SETTINGS
@given(partitioned())
def test_partition_blocks_are_read_off_a(case):
    # the record keeps A; B and N are its basis columns and the rest, in order
    rows, cols, _ = case
    mat = IntMat(rows)
    try:
        part = partition(mat, cols)
    except (RankDeficientError, SingularError):
        return
    m = mat.rows
    assert part.a is mat
    assert part.b_mat == mat.select_cols(part.basis_cols)
    assert part.n_mat == mat.select_cols(part.order[m:])
    assert part._fields == ("basis_cols", "order", "a", "det", "adj", "adj_n")


def _certifies(rows, b, part, y) -> bool:
    # u = y adj(B) / det B, checked in Fractions from A and b alone: u A is
    # integral and u b is not, so no integer x solves A x = b
    u = [Fraction(dot(y, col), part.det) for col in zip(*part.adj)]
    return all(dot(u, col).denominator == 1 for col in zip(*rows)) and dot(u, b).denominator > 1


@SETTINGS
@given(coset_cases())
@hypothesis.example(([[2, 1], [1, 3]], None, (3, 5)))  # square A, infeasible
@hypothesis.example(([[2, 4, 6, -8], [4, 2, 8, 10]], None, (3, 5)))  # infeasible
@hypothesis.example(([[4, -2, -3], [2, 0, 0]], None, (-3, 7)))  # infeasible, last t entry 0
@hypothesis.example(([[2, 4, 6, -8], [4, 2, 8, 10]], (2, 3), (3, 5)))  # explicit, infeasible
def test_every_infeasible_outcome_carries_a_certificate(case):
    # kernel_coset gives a certificate exactly when the minor test says
    # infeasible, and each one verifies; solve says infeasible exactly then
    rows, cols, b = case
    mat = IntMat(rows)
    try:
        part = partition(mat, cols)
    except (RankDeficientError, SingularError):
        return
    coset = kernel_coset(part.det, part.adj_n, _adj_mul(part.adj, b))
    feasible = integer_feasible_minor_test(rows, b)
    assert (coset.certificate is None) == feasible == (coset.point is not None)
    if not feasible:
        assert len(coset.certificate) == mat.rows
        assert _certifies(rows, b, part, coset.certificate)
    if mat.rows < mat.cols:
        out = solve(ProblemInstance(a=mat, b=b, basis_cols=cols))
        assert (out.status == SolveStatus.INFEASIBLE) == (not feasible)


@SETTINGS
@given(coset_cases())
@hypothesis.example(([[-6, 4, 9, 15]], None, (7,)))  # feasible, L' basis not reduced
@hypothesis.example(([[3, 1, 4, 1], [5, 9, 2, 6]], (1, 0), (7, 8)))  # explicit, feasible
@hypothesis.example(([[2, 4, 6, -8], [4, 2, 8, 10]], None, (3, 5)))  # infeasible, not reduced
@hypothesis.example(([[2, 4, 6, -8], [4, 2, 8, 10]], (2, 3), (3, 5)))  # only T not reduced
def test_box_point_reads_only_the_diagonal(case):
    # the sweep of (0 ; -adj_b mod D) over the folded echelon kernel_coset
    # holds and over its reduced form: the same verdict and the same box
    # point, since the box depends only on the diagonal; and every
    # certificate, a column of D T^-1 for the folded T, still verifies
    rows, cols, b = case
    mat = IntMat(rows)
    try:
        part = partition(mat, cols)
    except (RankDeficientError, SingularError):
        return
    adj_b = _adj_mul(part.adj, b)
    coset = kernel_coset(part.det, part.adj_n, adj_b)
    d, k = abs(part.det), mat.cols - mat.rows
    start = [0] * k + [-x % d for x in adj_b]
    w = _box_sweep(coset.echelon, start, d)
    assert _box_sweep(hnf_mod(coset.echelon, len(start), d), start, d) == w
    if any(w[k:]):
        assert coset.point is None
        assert _certifies(rows, b, part, coset.certificate)
    else:
        assert coset.point == tuple(w[:k]) and coset.certificate is None


def test_certificates_agree_with_brute_force():
    # on small nonnegative systems, where brute force decides nonnegative
    # feasibility: a certified instance has no solution to find, and an
    # instance with a found solution gets no certificate
    rng = random.Random(41)
    certified = found = 0
    for _ in range(300):
        m = rng.choice([1, 2])
        n = rng.randint(m + 1, 4)
        g = rng.choice([1, 2, 3])  # a common row factor makes infeasible b common
        rows = [[g * rng.randint(1, 6) for _ in range(n)]] + [
            [rng.randint(1, 6) for _ in range(n)] for _ in range(m - 1)
        ]
        b = tuple(rng.randint(0, 25) for _ in range(m))
        mat = IntMat(rows)
        try:
            part = partition(mat)
        except RankDeficientError:
            continue
        coset = kernel_coset(part.det, part.adj_n, _adj_mul(part.adj, b))
        res = brute_force_solve(mat, b)
        assert res.conclusive or res.status == "found"
        if coset.certificate is not None:
            certified += 1
            assert res.status != "found" and _certifies(rows, b, part, coset.certificate)
        if res.status == "found":
            found += 1
            assert coset.certificate is None
    assert certified > 50 and found > 50


@pytest.mark.parametrize(
    "rows,b,corrupt",
    [
        ([[2, 4]], (3,), lambda y, d: (0,) * len(y)),
        ([[6, 5, 3, 1], [6, 5, 1, -3]], (-2, -3), lambda y, d: (0,) * len(y)),
        ([[6, 5, 3, 1], [6, 5, 1, -3]], (-2, -3), lambda y, d: tuple(d * e for e in y)),
        ([[5, 2, 3]], (4,), lambda y, d: (1,)),  # feasible, wrongly called infeasible
        ([[0, 3, 1, -1], [3, -1, -2, -1]], (4, 4), lambda y, d: (1, 0)),
        ([[0, 3, 1, -1], [3, -1, -2, -1]], (4, 4), lambda y, d: (0, 1)),
    ],
)
def test_corrupt_certificate_raises(rows, b, corrupt, monkeypatch):
    # kernel_coset is replaced by one that says infeasible with a corrupted
    # certificate; solve's require, on A and b alone, refuses it
    def bad_coset(det, adj_n, adj_b):
        coset = kernel_coset(det, adj_n, adj_b)
        y = coset.certificate or (0,) * len(adj_b)
        return coset._replace(point=None, certificate=corrupt(y, abs(det)))

    monkeypatch.setattr(solver, "kernel_coset", bad_coset)
    with pytest.raises(InternalError, match="infeasibility certificate"):
        solve(ProblemInstance(a=IntMat(rows), b=b))
