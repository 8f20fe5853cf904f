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
from diobox.lattice import _gram_schmidt, kernel_coset, partition
from diobox.linalg import _adj_mul, dot

from oracles import (
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


def _assert_gram_schmidt_exact(vecs):
    # the support-only pass gives the oracle's dense vectors and squared
    # norms, equal in value and all of type Fraction, and with each vector
    # its support: the nonzero coordinates of the oracle's vector, in order
    got = _gram_schmidt(vecs)
    want = gram_schmidt(vecs).ortho
    assert [g for g, _, _ in got] == list(want)
    assert [norm for _, norm, _ in got] == [dot(g, g) for g in want]
    assert [supp for _, _, supp in got] == [[t for t, e in enumerate(g) if e] for g in want]
    for g, norm, _ in got:
        assert type(g) is tuple and len(g) == len(vecs)
        assert type(norm) is Fraction and all(type(e) is Fraction for e in g)


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


def test_gram_schmidt_pass_on_sparse_bases():
    # general bases, up to dimension 12, with about 70 % zero entries
    rng = random.Random(21)

    def entry():
        if rng.random() < 0.7:
            return 0
        return rng.randint(-3, 3) if rng.random() < 0.5 else rng.randint(-1000, 1000)

    done = 0
    while done < 60:
        d = rng.randint(1, 12)
        vecs = [tuple(entry() for _ in range(d)) for _ in range(d)]
        if det_exact(IntMat(vecs)) == 0:
            continue
        _assert_gram_schmidt_exact(vecs)
        done += 1


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
        _assert_gram_schmidt_exact(coset.basis.vectors)
        w = box_reduce(coset.basis.vectors, coset.point).w
        assert w == gram_schmidt_box_reduce(coset.basis.vectors, coset.point)
        assert w == triangular_sweep(coset.basis.vectors, coset.point)
        assert all(type(e) is int for e in w)


def test_gram_schmidt_pass_entries_cancel():
    # the support of a new vector is read after its updates: here the
    # second orthogonal vector loses both entries it started with
    vecs = [(1, 1, 0), (1, 1, 1), (0, 1, 1)]
    got = _gram_schmidt(vecs)
    assert got[1] == ((0, 0, 1), 1, [2])
    assert got[2] == ((Fraction(-1, 2), Fraction(1, 2), 0), Fraction(1, 2), [0, 1])
    _assert_gram_schmidt_exact(vecs)


def test_gram_schmidt_pass_zero_inside_support():
    # vector 1 is 0 at coordinate 0 of the two-entry support of vector 0:
    # the projection reads coordinate 1 alone, and the new orthogonal vector
    # has a coordinate, 0, that its basis vector lacks, which the sweep reads
    vecs = [(1, 1, 0), (0, 1, 1), (0, 0, 1)]
    got = _gram_schmidt(vecs)
    assert got[0] == ((1, 1, 0), 2, [0, 1])
    assert got[1] == ((Fraction(-1, 2), Fraction(1, 2), 1), Fraction(3, 2), [0, 1, 2])
    assert got[2] == ((Fraction(1, 3), Fraction(-1, 3), Fraction(1, 3)), Fraction(1, 3), [0, 1, 2])
    _assert_gram_schmidt_exact(vecs)
    for x in ((5, 0, 0), (0, 0, 5), (7, -3, 4), (Fraction(5, 2), 1, -9)):
        w = box_reduce(vecs, x).w
        assert w == gram_schmidt_box_reduce(vecs, x)
        assert _in_lattice(vecs, [a - b for a, b in zip(x, w)])


def test_gram_schmidt_pass_inner_product_cancels(monkeypatch):
    # vector 1 meets both coordinates of vector 0's support, but its two
    # terms cancel: the inner product 1 - 1 is 0, so no coefficient is
    # formed (no division at all in the pass) and vector 1 is kept as it is
    vecs = [(1, 1, 0), (1, -1, 0), (0, 0, 1)]
    counts = _count_fraction_ops(monkeypatch)
    got = _gram_schmidt(vecs)
    assert counts == {"mul": 2 + 2 + 2 + 1, "div": 0}  # vector 1's two terms, then the three norms
    monkeypatch.undo()
    assert [(g, norm) for g, norm, _ in got] == [((1, 1, 0), 2), ((1, -1, 0), 2), ((0, 0, 1), 1)]
    _assert_gram_schmidt_exact(vecs)
    w = box_reduce(vecs, (3, 0, 5)).w
    assert w == gram_schmidt_box_reduce(vecs, (3, 0, 5)) == (1, 0, 0)


def test_box_reduce_work_grows_with_k_on_a_triangular_basis(monkeypatch):
    # a k = 20 lower-triangular basis with unit diagonal except d = 7 at
    # coordinate 3: below a unit diagonal every entry is 0, so a vector
    # projects only onto orthogonal vector 3, and only when it is nonzero
    # at 3, and the sweep reads one coordinate per vector. The Fraction
    # products and quotients then grow with k, at most 6 per vector (99
    # here), not with k^2 (833 when every zero was multiplied)
    k, p, d = 20, 3, 7

    def entry(i, t):
        if t == i:
            return d if i == p else 1
        return (5 * i + 1) % d if t == p < i else 0  # 0 for i = 4, 11, 18

    vecs = [tuple(entry(i, t) for t in range(k)) for i in range(k)]
    point = tuple((3 * t + 11) % d if t == p else t - 5 for t in range(k))
    want = triangular_sweep(vecs, point)
    counts = _count_fraction_ops(monkeypatch)
    w = box_reduce(vecs, point).w
    monkeypatch.undo()
    assert w == want
    assert counts["mul"] + counts["div"] <= 6 * k


def test_gram_schmidt_pass_dependent():
    for vecs, i in (([(1, 2), (2, 4)], 1), ([(1, 0, 0), (0, 1, 0), (3, -2, 0)], 2), ([(0, 0), (1, 0)], 0)):
        with pytest.raises(SingularError, match=f"^vector {i} is dependent on the previous ones$"):
            _gram_schmidt(vecs)
        with pytest.raises(SingularError, match=f"^vector {i} is dependent on the previous ones$"):
            box_reduce(vecs, (0,) * len(vecs))


def test_box_reduce_examples():
    basis = [(5, 0), (1, 1)]
    for x, w in (((7, 0), (2, 0)), ((2, 0), (2, 0)), ((-1, -1), (0, 0))):  # (2, 0) is in the box
        red = box_reduce(basis, x)
        assert red.w == w
        assert _in_lattice(basis, [a - b for a, b in zip(x, red.w)])
    assert box_reduce([(2, 1), (0, 3)], (Fraction(1, 2), 5)).w == (Fraction(1, 2), 2)



def test_box_reduce_takes_other_point_entries_exactly():
    # a float or string entry reduces as its exact Fraction does
    basis = [(2, 1), (0, 3)]
    for x in ((0.5, 5), ("1/2", "5"), (0.1, 5.0), ("-7/3", 2)):
        w = box_reduce(basis, x).w
        assert w == box_reduce(basis, tuple(Fraction(c) for c in x)).w
        assert all(isinstance(c, (int, Fraction)) for c in w)

def test_box_reduce_errors():
    with pytest.raises(DimensionMismatchError):
        box_reduce([(1, 0), (0, 1)], (1, 2, 3))
    with pytest.raises(SingularError):
        box_reduce([(1, 2), (2, 4)], (1, 1))


def test_box_reduce_box_membership():
    # Gram-Schmidt coordinates of w always land in [0, 1)
    rng = random.Random(14)
    done = 0
    while done < 200:
        d = rng.randint(1, 4)
        vecs = [tuple(rng.randint(-9, 9) for _ in range(d)) for _ in range(d)]
        if det_exact(IntMat(vecs)) == 0:
            continue
        x = tuple(rng.randint(-40, 40) for _ in range(d))
        red = box_reduce(vecs, x)
        assert _in_lattice(vecs, [a - b for a, b in zip(x, red.w)])
        gs = gram_schmidt(vecs)
        for i in reversed(range(d)):
            lam = dot(red.w, gs.ortho[i]) / dot(gs.ortho[i], gs.ortho[i])
            assert 0 <= lam < 1
        done += 1


def test_box_reduce_coset_determinism():
    # the box representative depends on the coset only
    rng = random.Random(15)
    done = 0
    while done < 150:
        d = rng.randint(1, 4)
        vecs = [tuple(rng.randint(-9, 9) for _ in range(d)) for _ in range(d)]
        if det_exact(IntMat(vecs)) == 0:
            continue
        x = tuple(rng.randint(-30, 30) for _ in range(d))
        shift = [rng.randint(-5, 5) for _ in range(d)]
        x2 = list(x)
        for k, v in zip(shift, vecs):
            x2 = [e + k * c for e, c in zip(x2, v)]
        assert box_reduce(vecs, x).w == box_reduce(vecs, tuple(x2)).w
        done += 1


def test_box_reduce_idempotent():
    rng = random.Random(16)
    done = 0
    while done < 100:
        d = rng.randint(1, 4)
        vecs = [tuple(rng.randint(-9, 9) for _ in range(d)) for _ in range(d)]
        if det_exact(IntMat(vecs)) == 0:
            continue
        x = tuple(rng.randint(-30, 30) for _ in range(d))
        w = box_reduce(vecs, x).w
        assert box_reduce(vecs, w).w == w  # w - w = 0 is the lattice vector taken off
        done += 1


def test_box_reduce_matches_gram_schmidt_route():
    # the one-pass route against the gram_schmidt route it replaced, on
    # general bases whose zero entries make many projection coefficients
    # vanish: every size up to 6 often, and sizes 7 to 12 (hnf_growth's
    # kernel bases have 10 to 12 vectors) less often, as each costs more
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    zero = st.just(0)  # about half the entries, so that many coefficients vanish
    entries = st.one_of(zero, zero, st.integers(-5, 5), st.integers(-10**6, 10**6))
    ints = st.integers(-10**6, 10**6)
    coords = st.sampled_from((ints, st.one_of(ints, st.fractions(-10**6, 10**6, max_denominator=50))))

    def route(sizes, examples):
        @hypothesis.settings(max_examples=examples, deadline=None, derandomize=True)
        @hypothesis.given(st.data())
        def check(data):
            d = data.draw(sizes)
            vecs = data.draw(st.lists(st.lists(entries, min_size=d, max_size=d), min_size=d, max_size=d))
            hypothesis.assume(det_exact(IntMat(vecs)) != 0)
            x = data.draw(st.lists(data.draw(coords), min_size=d, max_size=d))
            w = box_reduce(vecs, x).w
            assert w == gram_schmidt_box_reduce(vecs, x)
            assert _in_lattice(vecs, [a - b for a, b in zip(x, w)])
            # an int entry stays int, every other entry becomes a Fraction
            assert [type(e) for e in w] == [int if type(c) is int else Fraction for c in x]

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
        red = box_reduce(sb.vectors, x)
        w = [int(c) for c in red.w]
        assert all(c.denominator == 1 for c in red.w)
        assert all(e >= 0 for e in w)
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
