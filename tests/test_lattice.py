import math
import random
from fractions import Fraction

import pytest

from diobox import (
    DimensionMismatchError,
    IntMat,
    RankDeficientError,
    SingularError,
    box_reduce,
    det_exact,
    gcd_max_minors,
    integer_solution_set,
    project_drop_m,
    special_basis,
    solve_rational,
)
from diobox import lattice
from diobox.lattice import KernelCoset, kernel_coset, partition
from diobox.linalg import _adj_mul, dot, kernel_echelon

from oracles import (
    coset_basis,
    gram_schmidt,
    gram_schmidt_box_reduce,
    integer_solution_set_hnf,
    solve_fraction,
    special_basis_hnf,
    triangular_sweep,
)


def _random_full_rank(rng, m, n, bound=9):
    while True:
        mat = IntMat([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)])
        try:
            gcd_max_minors(mat)
        except RankDeficientError:
            continue
        return mat


def _in_lattice(vecs, point):
    # point is an integer combination of the basis vectors
    coeffs = solve_fraction(list(zip(*vecs)), point)
    return all(c.denominator == 1 for c in coeffs)


def _spans_same_lattice(vecs_a, vecs_b):
    # each side must be an integer combination of the other
    d = len(vecs_a)
    mat_a = IntMat(vecs_a).transpose()
    mat_b = IntMat(vecs_b).transpose()
    for mat, vecs in ((mat_a, vecs_b), (mat_b, vecs_a)):
        for v in vecs:
            coeffs = solve_rational(mat, v)
            if any(c.denominator != 1 for c in coeffs):
                return False
    return True


def test_integer_solution_set_single_row():
    a = IntMat([[2, 3]])
    rep = integer_solution_set(a, (1,))
    assert rep is not None
    assert a.mul_vec(rep.particular) == (1,)
    assert len(rep.kernel_basis) == 1
    assert rep.kernel_basis[0] in ((3, -2), (-3, 2))


def test_integer_solution_set_infeasible():
    assert integer_solution_set(IntMat([[2, 4]]), (3,)) is None
    rep = integer_solution_set(IntMat([[2, 4]]), (6,))
    assert rep is not None and IntMat([[2, 4]]).mul_vec(rep.particular) == (6,)


def test_integer_solution_set_two_rows():
    a = IntMat([[1, 0, 1], [0, 1, 1]])
    rep = integer_solution_set(a, (2, 2))
    assert rep is not None
    assert a.mul_vec(rep.particular) == (2, 2)
    assert len(rep.kernel_basis) == 1
    assert rep.kernel_basis[0] in ((-1, -1, 1), (1, 1, -1))


def test_integer_solution_set_square():
    # m == n: no kernel, and at most one solution, adj(B) b / det B
    a = IntMat([[1, 2], [1, 1]])  # det -1
    rep = integer_solution_set(a, (5, 3))
    assert rep == ((1, 2), ()) == integer_solution_set_hnf(a, (5, 3))
    assert integer_solution_set(IntMat([[2, 0], [0, 2]]), (1, 0)) is None
    assert integer_solution_set(IntMat([[2, 0], [0, 2]]), (4, -2)) == ((2, -1), ())


def test_integer_solution_set_errors():
    with pytest.raises(RankDeficientError):
        integer_solution_set(IntMat([[1, 2, 3], [2, 4, 6]]), (1, 2))
    with pytest.raises(DimensionMismatchError):
        integer_solution_set(IntMat([[1, 2]]), (1, 2))
    # a float right-hand side would give the "integer" solution (0.0, 2.0, 0.0)
    with pytest.raises(TypeError, match=r"^rhs entry 0 is float, expected int$"):
        integer_solution_set(IntMat([[5, 2, 3]]), (4.0,))
    assert integer_solution_set(IntMat([[5, 2, 3]]), iter([4])).particular == (0, 2, 0)


def test_integer_solution_set_random_consistency():
    # every kernel vector annihilates A; particular solves exactly
    rng = random.Random(11)
    for _ in range(150):
        m = rng.randint(1, 3)
        n = rng.randint(m + 1, 6)
        a = _random_full_rank(rng, m, n)
        x = tuple(rng.randint(-6, 6) for _ in range(n))
        b = a.mul_vec(x)
        rep = integer_solution_set(a, b)
        assert rep is not None  # b was built from an integer point
        assert a.mul_vec(rep.particular) == b
        assert len(rep.kernel_basis) == n - m
        for g in rep.kernel_basis:
            assert a.mul_vec(g) == (0,) * m


def test_kernel_coset_returns_the_kernel_echelon():
    # the record holds the echelon kernel_echelon builds, feasible,
    # infeasible and square alike, and its first k z parts are the basis of
    # L' that integer_solution_set lifts; lattice defines the solve path only
    assert KernelCoset._fields == ("echelon", "gcd", "point", "certificate")
    for rows, b in [
        ([[5, 2, 3]], (1,)),
        ([[2, 4, 6, -8], [4, 2, 8, 10]], (3, 5)),
        ([[3, 1, 4, 1], [5, 9, 2, 6]], (7, 8)),
        ([[2, 0], [0, 2]], (4, -2)),
    ]:
        a = IntMat(rows)
        part = partition(a)
        coset = kernel_coset(part.det, part.adj_n, _adj_mul(part.adj, b))
        assert coset.echelon == kernel_echelon(part.det, part.adj_n)[0]
        rep = integer_solution_set(a, b)
        assert (rep is None) == (coset.point is None)
        if rep is not None:
            k = a.cols - a.rows
            assert [g[a.rows :] for g in rep.kernel_basis] == list(coset_basis(coset.echelon, k))
    defined = {
        name for name, obj in vars(lattice).items()
        if getattr(obj, "__module__", None) == "diobox.lattice"
    }
    assert defined == {"BasisPartition", "partition", "lift", "KernelCoset", "kernel_coset"}


def test_project_drop_m():
    assert project_drop_m([(5, 2, 3)], 1) == ((2, 3),)
    assert project_drop_m([(1, 1, -3)], 2) == ((-3,),)
    assert project_drop_m([(1, 2, 3, 4), (5, 6, 7, 8)], 2) == ((3, 4), (7, 8))
    with pytest.raises(DimensionMismatchError):
        project_drop_m([(1, 2)], 2)


def test_projected_kernel_example():
    # kernel of [[3,0,1],[0,3,1]] is spanned by (1,1,-3); dropping m=2 gives (-3)
    a = IntMat([[3, 0, 1], [0, 3, 1]])
    rep = integer_solution_set(a, (0, 0))
    proj = project_drop_m(rep.kernel_basis, 2)
    assert proj in (((-3,),), ((3,),))


def test_special_basis_identity():
    sb = special_basis([(1, 0), (0, 1)])
    assert sb.vectors == ((1, 0), (0, 1))
    assert sb.diagonal == (1, 1)


def test_special_basis_examples():
    sb = special_basis([(5, 0), (-4, 1)])
    assert sb.vectors == ((5, 0), (1, 1))
    # order of the input vectors is irrelevant
    sb = special_basis([(1, 1), (2, 0)])
    assert sb.vectors == ((2, 0), (1, 1))


def test_special_basis_singular():
    with pytest.raises(SingularError):
        special_basis([(1, 2), (2, 4)])
    with pytest.raises(DimensionMismatchError):
        special_basis([(1, 2, 3), (4, 5, 6)])


def test_special_basis_properties():
    rng = random.Random(12)
    done = 0
    while done < 200:
        d = rng.randint(1, 5)
        vecs = [tuple(rng.randint(-9, 9) for _ in range(d)) for _ in range(d)]
        if det_exact(IntMat(vecs)) == 0:
            continue
        sb = special_basis(vecs)
        out = sb.vectors
        # triangular shape with reduced subdiagonal entries
        for i in range(d):
            assert out[i][i] > 0
            assert all(out[i][j] == 0 for j in range(i + 1, d))
            assert all(0 <= out[i][j] < out[j][j] for j in range(i))
        assert _spans_same_lattice(list(vecs), list(out))
        # uniqueness: reapplying is a fixed point
        assert special_basis(out).vectors == out
        assert abs(det_exact(IntMat(vecs))) == math.prod(sb.diagonal)
        done += 1


def test_lattice_determinant_examples():
    # the determinant of the lattice is the product of the diagonal
    assert math.prod(special_basis([(5, 0), (1, 1)]).diagonal) == 5
    assert math.prod(special_basis([(1, 0), (0, 1)]).diagonal) == 1


def test_gram_schmidt_orthogonal_input():
    gs = gram_schmidt([(3, 0), (0, 2)])
    assert gs.ortho == ((3, 0), (0, 2))
    assert gs.mu == ((), (Fraction(0),))


def test_gram_schmidt_examples():
    gs = gram_schmidt([(5, 0), (1, 1)])
    assert gs.ortho[0] == (5, 0)
    assert gs.ortho[1] == (0, 1)
    assert gs.mu[1] == (Fraction(1, 5),)

    gs = gram_schmidt([(1, 1), (0, 1)])
    assert gs.ortho[1] == (Fraction(-1, 2), Fraction(1, 2))
    assert gs.mu[1] == (Fraction(1, 2),)


def test_gram_schmidt_dependent():
    with pytest.raises(SingularError):
        gram_schmidt([(1, 2), (2, 4)])


def test_gram_schmidt_reconstruction():
    rng = random.Random(13)
    done = 0
    while done < 150:
        d = rng.randint(1, 5)
        vecs = [tuple(rng.randint(-9, 9) for _ in range(d)) for _ in range(d)]
        if det_exact(IntMat(vecs)) == 0:
            continue
        gs = gram_schmidt(vecs)
        for i in range(d):
            rebuilt = list(gs.ortho[i])
            for j in range(i):
                rebuilt = [r + gs.mu[i][j] * g for r, g in zip(rebuilt, gs.ortho[j])]
            assert tuple(rebuilt) == tuple(Fraction(e) for e in vecs[i])
        for i in range(d):
            for j in range(i):
                assert dot(gs.ortho[i], gs.ortho[j]) == 0
        done += 1


def _random_triangular(rng, d, bound=9):
    # a lower-triangular basis with a positive diagonal whose entries below
    # it are not reduced: of either sign, and often larger than the diagonal
    diag = [rng.choice((1, 1, rng.randint(1, bound))) for _ in range(d)]
    return [
        tuple(rng.randint(-3 * bound, 3 * bound) for _ in range(i)) + (diag[i],) + (0,) * (d - 1 - i)
        for i in range(d)
    ]


def _random_bases(rng, count, max_d=4):
    # alternately a special basis of a random full-rank lattice and a
    # triangular basis with unreduced entries below the diagonal
    done = 0
    while done < count:
        d = rng.randint(1, max_d)
        if done % 2:
            yield _random_triangular(rng, d)
        else:
            vecs = [tuple(rng.randint(-9, 9) for _ in range(d)) for _ in range(d)]
            if det_exact(IntMat(vecs)) == 0:
                continue
            yield special_basis(vecs).vectors
        done += 1


def _assert_box_reduction(vecs, x):
    # box_reduce against both oracle routes, in the integer box and in the
    # coset of x; returns w
    w = box_reduce(vecs, x).w
    assert w == triangular_sweep(vecs, x) == gram_schmidt_box_reduce(vecs, x)
    assert all(type(e) is int and 0 <= e < v[i] for i, (e, v) in enumerate(zip(w, vecs)))
    assert _in_lattice(vecs, [a - b for a, b in zip(x, w)])
    return w


def _not_triangular(i):
    # the message for basis vector i when it is not lower triangular with a
    # positive diagonal entry
    return f"^basis vector {i} needs a positive entry {i} and zeros after it$"


def _count_fraction_ops(monkeypatch):
    # counts every Fraction product and quotient from here on, int operands
    # on the left included: int * Fraction ends in Fraction.__rmul__
    counts = {"mul": 0, "div": 0}
    for name, kind in (("__mul__", "mul"), ("__rmul__", "mul"), ("__truediv__", "div"), ("__rtruediv__", "div")):

        def counted(a, b, op=getattr(Fraction, name), kind=kind):
            counts[kind] += 1
            return op(a, b)

        monkeypatch.setattr(Fraction, name, counted)
    return counts


def test_gram_schmidt_pass_on_kernel_coset_bases():
    # the triangular bases the solver reduces against: hnf-like systems with
    rng = random.Random(22)
    # m = 10..12, n = 2m and entries up to 1000, and one m = 20, n = 40
    # system, the top of the size ladder
    for m in (10, 11, 12, 10, 20):
        while True:
            a = IntMat([[rng.randint(-1000, 1000) for _ in range(2 * m)] for _ in range(m)])
            if det_exact(a.select_cols(range(m))):
                break
        part = partition(a)
        b = a.mul_vec([rng.randint(0, 5) for _ in range(2 * m)])
        coset = kernel_coset(part.det, part.adj_n, _adj_mul(part.adj, b))
        basis = coset_basis(coset.echelon, m)
        w = box_reduce(basis, coset.point).w
        assert w == gram_schmidt_box_reduce(basis, coset.point)
        assert w == triangular_sweep(basis, coset.point)
        assert all(type(e) is int for e in w)


def test_box_reduce_work_grows_with_k_on_a_triangular_basis(monkeypatch):
    # a k = 20 lower-triangular basis with unit diagonal except d = 7 at
    # coordinate 3, where 13 vectors below it are nonzero: the sweep runs
    # on the integers, so it forms no Fraction product or quotient at all
    k, p, d = 20, 3, 7

    def entry(i, t):
        if t == i:
            return d if i == p else 1
        return (5 * i + 1) % d if t == p < i else 0  # 0 for i = 4, 11, 18

    vecs = [tuple(entry(i, t) for t in range(k)) for i in range(k)]
    point = tuple((3 * t + 11) % d if t == p else t - 5 for t in range(k))
    want = triangular_sweep(vecs, point)
    assert sum(1 for v in vecs[p + 1 :] if v[p]) == 13
    counts = _count_fraction_ops(monkeypatch)
    w = box_reduce(vecs, point).w
    monkeypatch.undo()
    assert counts == {"mul": 0, "div": 0}
    assert w == want == gram_schmidt_box_reduce(vecs, point)


def test_box_reduce_exact_above_2_64():
    # basis and point entries above 2**64, where a quotient through a float
    # would be rounded: triangular bases with reduced entries below a large
    # diagonal
    rng = random.Random(23)
    big = 2**64
    for k in (1, 2, 3, 5, 8):
        diag = [rng.randint(big, 2**80) for _ in range(k)]
        vecs = [tuple(rng.randrange(e) for e in diag[:i]) + (diag[i],) + (0,) * (k - 1 - i) for i in range(k)]
        for _ in range(3):
            x = tuple(rng.randint(-(2**90), 2**90) for _ in range(k))
            w = box_reduce(vecs, x).w
            assert w == triangular_sweep(vecs, x) == gram_schmidt_box_reduce(vecs, x)
            assert all(type(e) is int and 0 <= e < dd for e, dd in zip(w, diag))


def test_gram_schmidt_pass_dependent():
    # a dependent basis is never lower triangular with a positive diagonal:
    # the error names the first vector that breaks the shape
    for vecs, i in (([(1, 2), (2, 4)], 0), ([(1, 0, 0), (0, 1, 0), (3, -2, 0)], 2), ([(0, 0), (1, 0)], 0)):
        with pytest.raises(DimensionMismatchError, match=_not_triangular(i)):
            box_reduce(vecs, (0,) * len(vecs))


def test_box_reduce_examples():
    basis = [(5, 0), (1, 1)]
    for x, w in (((7, 0), (2, 0)), ((2, 0), (2, 0)), ((-1, -1), (0, 0))):  # (2, 0) is in the box
        red = box_reduce(basis, x)
        assert red.w == w
        assert _in_lattice(basis, [a - b for a, b in zip(x, red.w)])
    # 5 // 3 = 1 copy of (1, 3) leaves (6, 2), then 6 // 2 = 3 copies of (2, 0)
    assert box_reduce([(2, 0), (1, 3)], (7, 5)).w == (0, 2)
    assert box_reduce([(2, 0), (1, 3)], iter([7, 5])).w == (0, 2)


def test_box_reduce_rejects_entries_that_are_not_int():
    # every entry is read by the package's one integer-entry rule: a bool,
    # float, Fraction or string entry raises, and the error names it
    basis = [(2, 0), (1, 3)]
    for x, i, kind in (
        ((True, 5), 0, "bool"),
        ((1, 0.5), 1, "float"),
        ((Fraction(1, 2), 5), 0, "Fraction"),
        ((4, Fraction(6, 1)), 1, "Fraction"),
        (("1", 5), 0, "str"),
    ):
        with pytest.raises(TypeError, match=f"^point entry {i} is {kind}, expected int$"):
            box_reduce(basis, x)
    for vecs, where, kind in (
        ([(2.0, 0), (1, 3)], "basis vector 0 entry 0", "float"),
        ([(2, 0), (True, 3)], "basis vector 1 entry 0", "bool"),
        ([(2, 0), (1, Fraction(3))], "basis vector 1 entry 1", "Fraction"),
    ):
        with pytest.raises(TypeError, match=f"^{where} is {kind}, expected int$"):
            box_reduce(vecs, (7, 5))


def test_box_reduce_errors():
    with pytest.raises(DimensionMismatchError, match="^point has length 3, expected 2$"):
        box_reduce([(1, 0), (0, 1)], (1, 2, 3))
    with pytest.raises(DimensionMismatchError, match="^need at least one vector$"):
        box_reduce([], ())
    with pytest.raises(DimensionMismatchError, match="^basis vector 1 has length 1, expected 2$"):
        box_reduce([(1, 0), (1,)], (1, 1))
    for vecs, i in (
        ([(1, 2), (2, 4)], 0),  # dependent
        ([(1, 2), (0, 1)], 0),  # an entry above the diagonal
        ([(1, 0, 0), (0, 1, 5), (0, 0, 1)], 1),
        ([(1, 0), (3, 0)], 1),  # a zero diagonal entry
        ([(-2, 0), (0, 1)], 0),  # a negative diagonal entry
        ([(2, 0), (1, -3)], 1),
    ):
        with pytest.raises(DimensionMismatchError, match=_not_triangular(i)):
            box_reduce(vecs, (1,) * len(vecs))


def test_box_reduce_box_membership():
    # w lies in the integer box 0 <= w[i] < v_i[i], and its Gram-Schmidt
    # coordinates against the oracle's orthogonal vectors land in [0, 1)
    rng = random.Random(14)
    for vecs in _random_bases(rng, 200):
        x = tuple(rng.randint(-40, 40) for _ in range(len(vecs)))
        w = _assert_box_reduction(vecs, x)
        gs = gram_schmidt(vecs)
        for g in gs.ortho:
            assert 0 <= dot(w, g) / dot(g, g) < 1


def test_box_reduce_coset_determinism():
    # the box representative depends on the coset only
    rng = random.Random(15)
    for vecs in _random_bases(rng, 150):
        d = len(vecs)
        x = tuple(rng.randint(-30, 30) for _ in range(d))
        x2 = list(x)
        for k, v in zip([rng.randint(-5, 5) for _ in range(d)], vecs):
            x2 = [e + k * c for e, c in zip(x2, v)]
        assert box_reduce(vecs, x).w == box_reduce(vecs, tuple(x2)).w == _assert_box_reduction(vecs, x2)


def test_box_reduce_idempotent():
    rng = random.Random(16)
    for vecs in _random_bases(rng, 100):
        x = tuple(rng.randint(-30, 30) for _ in range(len(vecs)))
        w = box_reduce(vecs, x).w
        assert box_reduce(vecs, w).w == w  # w - w = 0 is the lattice vector taken off


def test_box_reduce_matches_gram_schmidt_route():
    # the integer sweep against the Fraction Gram-Schmidt route it replaced,
    # on lower-triangular bases with a positive diagonal, many diagonal 1s
    # and unreduced entries below the diagonal, about half of them 0, and
    # int points: every size up to 6 often, and sizes 7 to 12 (hnf_growth's
    # kernel bases have 10 to 12 vectors) less often, as each costs more
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    zero = st.just(0)
    entries = st.one_of(zero, zero, st.integers(-5, 5), st.integers(-10**6, 10**6))
    diagonal = st.one_of(st.just(1), st.integers(1, 10), st.integers(1, 10**6))
    ints = st.integers(-10**6, 10**6)

    def route(sizes, examples):
        @hypothesis.settings(max_examples=examples, deadline=None, derandomize=True)
        @hypothesis.given(st.data())
        def check(data):
            d = data.draw(sizes)
            vecs = [
                tuple(data.draw(st.lists(entries, min_size=i, max_size=i)))
                + (data.draw(diagonal),)
                + (0,) * (d - 1 - i)
                for i in range(d)
            ]
            x = data.draw(st.lists(ints, min_size=d, max_size=d))
            _assert_box_reduction(vecs, x)

        return check

    route(st.integers(1, 6), 300)()
    route(st.integers(7, 12), 60)()


def test_box_product_bound_on_special_bases():
    # for integer points reduced against a triangular reduced basis, the
    # entries of w are bounded by the diagonal: prod(1 + w_i) <= det
    rng = random.Random(17)
    done = 0
    while done < 200:
        d = rng.randint(1, 4)
        vecs = [tuple(rng.randint(-9, 9) for _ in range(d)) for _ in range(d)]
        if det_exact(IntMat(vecs)) == 0:
            continue
        sb = special_basis(vecs)
        x = tuple(rng.randint(-50, 50) for _ in range(d))
        w = box_reduce(sb.vectors, x).w
        assert all(type(e) is int and e >= 0 for e in w)
        prod = 1
        for e in w:
            prod *= 1 + e
        assert prod <= math.prod(sb.diagonal)
        done += 1


def test_determinant_identity_through_pipeline():
    # det(projected kernel lattice) * gcd(max minors) == |det(basis block)|
    rng = random.Random(18)
    done = 0
    while done < 150:
        m = rng.randint(1, 3)
        n = rng.randint(m + 1, 6)
        a = _random_full_rank(rng, m, n)
        if det_exact(a.select_cols(range(m))) == 0:
            continue
        # the lattice on the integer route: the modular one is built from
        # the gcd, so only an independent route makes this a check
        rep = integer_solution_set_hnf(a, (0,) * m)
        proj = project_drop_m(rep.kernel_basis, m)
        sb = special_basis_hnf(proj)
        lhs = math.prod(sb.diagonal) * gcd_max_minors(a)
        rhs = abs(det_exact(a.select_cols(range(m))))
        assert lhs == rhs
        done += 1
