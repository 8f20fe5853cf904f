"""Reference routines that no decision path calls.

``solve`` and every command work from one basis partition and the products
``adj(B) N`` and ``adj(B) b`` (see ``lattice`` and ``solver``). The routines
here answer the same questions the long way: the whole integer solution set
as a particular solution plus a kernel basis, the projection that drops the
basis coordinates, the special basis of any square lattice basis (through
``hnf_mod``, the one place the closing reduction of ``linalg.echelon_mod``'s
triangular basis runs), the box reduction on a lower-triangular one, the
gcd of the maximal minors, the exact rational solve of a square system and
the deep-cone report from the blocks B and N themselves. They stay exported
from ``diobox`` because the benchmark's traced replay and the tests import
them; nothing in the package imports this module, so a ``diobox`` process
never loads it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction

from .cone import ConditionReport, deep_cone_report
from .errors import (
    DimensionMismatchError,
    NotSquareError,
    SingularError,
    require,
)
from .lattice import kernel_coset, lift, partition
from .linalg import IntMat, _adj_mul, _box_sweep, _int_tuple, det_exact, echelon_mod, kernel_echelon


class AffineLatticeRep(namedtuple("AffineLatticeRep", "particular kernel_basis")):
    """A particular integer solution plus a basis of the kernel lattice."""

    __slots__ = ()


def gcd_max_minors(mat: IntMat) -> int:
    """gcd of all maximal (rows x rows) minors, always positive.

    Reads the gcd off ``kernel_echelon`` of the leftmost basis partition.

    Raises:
        RankDeficientError: if the matrix does not have full row rank
            (all maximal minors vanish, the gcd is not defined here).
    """
    part = partition(mat)
    return kernel_echelon(part.det, part.adj_n)[1]


def integer_solution_set(mat: IntMat, rhs: Sequence[int]) -> AffineLatticeRep | None:
    """Describe all integer solutions of ``mat @ x = rhs``.

    Returns None when the system has no integer solution, otherwise a
    particular solution together with ``n - m`` kernel basis vectors: the
    ``kernel_coset`` point and basis of L' (the z parts of its first
    ``n - m`` echelon vectors) for the leftmost nonsingular column block B,
    carried back through ``adj(B)`` by ``lift``. That basis is the folded
    triangular one ``kernel_echelon`` builds, not reduced left of its
    pivots; ``special_basis`` of the kernel basis with the basis coordinates
    dropped gives its reduced form. The point lies in the box of that basis,
    which depends only on the diagonal, so the particular solution is the
    ``x`` that ``solve`` returns when B is its basis.

    Raises:
        TypeError: if an entry of ``rhs`` is not an ``int`` or is a ``bool``.
        RankDeficientError: if the rows of ``mat`` are linearly dependent.
        DimensionMismatchError: if ``rhs`` has the wrong length.
    """
    rhs = _int_tuple(rhs, "rhs entry {}")
    if len(rhs) != mat.rows:
        raise DimensionMismatchError(f"rhs length {len(rhs)}, expected {mat.rows}")
    part = partition(mat)
    adj_b = _adj_mul(part.adj, rhs)
    coset = kernel_coset(part.det, part.adj_n, adj_b)
    if coset.point is None:
        return None
    k = mat.cols - mat.rows
    kernel = tuple(lift(part, (0,) * mat.rows, v[:k]) for v in coset.echelon[:k])
    x = lift(part, adj_b, coset.point)
    require(mat.mul_vec(x) == rhs, "particular solution fails mat @ x = rhs", (mat, rhs))
    return AffineLatticeRep(x, kernel)


def project_drop_m(vectors: Sequence[Sequence[int]], m: int) -> tuple[tuple[int, ...], ...]:
    """Drop the first ``m`` coordinates of every vector."""
    out = []
    for i, v in enumerate(vectors):
        if len(v) <= m:
            raise DimensionMismatchError(f"vector {i} has length {len(v)}, need > {m}")
        out.append(tuple(v[m:]))
    return tuple(out)


def hnf_mod(
    gens: Sequence[Sequence[int]], width: int, mod: int
) -> tuple[tuple[int, ...], ...]:
    """Reduced lower-triangular basis of ``span(gens) + mod * Z^width``.

    ``linalg.echelon_mod``'s basis, closed by one sweep per vector: vector i
    then has a positive entry at coordinate i, zeros after it, and entries
    in ``[0, v_j[j])`` at every coordinate j < i; that basis is unique. The
    vectors before i span every lattice vector with zeros from coordinate i
    on, ``mod * Z^i`` among them, so the sweep of ``v_i``'s first i entries
    into their box stays in the lattice.

    Raises:
        ValueError: if ``mod`` is not positive.
        DimensionMismatchError: if a generator does not have ``width`` entries.
    """
    piv = [list(v) for v in echelon_mod(gens, width, mod)]
    for i, v in enumerate(piv):
        v[:i] = _box_sweep(piv, v[:i], mod)
    return tuple(map(tuple, piv))


class SpecialBasis(namedtuple("SpecialBasis", "vectors")):
    """Lower-triangular lattice basis: vectors[i][i] > 0, zeros above the
    diagonal, and 0 <= vectors[i][j] < vectors[j][j] for j < i. This basis is
    unique for a given full-rank lattice."""

    __slots__ = ()

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(v[i] for i, v in enumerate(self.vectors))


def special_basis(vectors: Sequence[Sequence[int]]) -> SpecialBasis:
    """Compute the unique reduced lower-triangular basis of a lattice.

    ``vectors`` are d linearly independent integer vectors of length d
    spanning the lattice. The result spans the same lattice. That lattice
    contains ``|det V| * Z^d``, so ``hnf_mod`` modulo ``|det V|`` finds it.

    Raises:
        DimensionMismatchError: if the vectors do not form a square system.
        SingularError: if the vectors are linearly dependent.
    """
    vecs = [tuple(v) for v in vectors]
    d = len(vecs)
    for i, v in enumerate(vecs):
        if len(v) != d:
            raise DimensionMismatchError(f"vector {i} has length {len(v)}, expected {d}")
    det = det_exact(IntMat(vecs))
    if not det:
        raise SingularError("basis vectors are linearly dependent")
    return SpecialBasis(hnf_mod(vecs, d, abs(det)))


class BoxReduction(namedtuple("BoxReduction", "w")):
    """The representative w of the coset ``point + L`` in the box
    ``0 <= w[i] < v_i[i]`` of a lower-triangular basis."""

    __slots__ = ()


def box_reduce(vectors: Sequence[Sequence[int]], point: Sequence[int]) -> BoxReduction:
    """Reduce ``point`` modulo the lattice of a lower-triangular basis into
    the box ``0 <= w[i] < v_i[i]``.

    Basis vector i must have ``v_i[i] > 0`` and zeros after coordinate i,
    the shape of every basis ``special_basis`` and ``kernel_echelon`` build.
    Its Gram-Schmidt vector is then ``v_i[i] e_i``, so this box is the
    half-open Gram-Schmidt box, and the reduction is ``kernel_coset``'s
    integer sweep: from the last coordinate to the first, subtract
    ``q = cur[i] // v_i[i]`` copies of v_i, modulo the product of the
    diagonal, whose multiples of ``Z^d`` the lattice contains. The result
    depends only on the coset ``point + L``, never on the representative.

    Raises:
        TypeError: if an entry of the point or of a basis vector is not an
            ``int`` or is a ``bool``.
        DimensionMismatchError: if the basis is empty or not square, a basis
            vector is not lower triangular with a positive diagonal entry, or
            the point has the wrong length.
    """
    vecs = [_int_tuple(v, f"basis vector {i} entry {{}}") for i, v in enumerate(vectors)]
    d = len(vecs)
    if not d:
        raise DimensionMismatchError("need at least one vector")
    for i, v in enumerate(vecs):
        if len(v) != d:
            raise DimensionMismatchError(f"basis vector {i} has length {len(v)}, expected {d}")
        if v[i] <= 0 or any(v[i + 1 :]):
            raise DimensionMismatchError(
                f"basis vector {i} needs a positive entry {i} and zeros after it"
            )
    cur = _int_tuple(point, "point entry {}")
    if len(cur) != d:
        raise DimensionMismatchError(f"point has length {len(cur)}, expected {d}")
    det = math.prod(v[i] for i, v in enumerate(vecs))
    return BoxReduction(tuple(_box_sweep(vecs, cur, det)))


def solve_rational(mat: IntMat, rhs: Sequence[int]) -> tuple[Fraction, ...]:
    """Solve ``mat @ x = rhs`` exactly over the rationals.

    Raises:
        TypeError: if an entry of ``rhs`` is not an ``int`` or is a ``bool``.
        NotSquareError: if the matrix is not square.
        DimensionMismatchError: if the right-hand side has the wrong length.
        SingularError: if the matrix is singular.
    """
    rhs = _int_tuple(rhs, "rhs entry {}")
    if mat.rows != mat.cols:
        raise NotSquareError(f"solve with a {mat.rows}x{mat.cols} matrix")
    if len(rhs) != mat.rows:
        raise DimensionMismatchError(f"rhs length {len(rhs)}, expected {mat.rows}")
    # x = adj(B) rhs / det B, B the whole matrix
    part = partition(mat, range(mat.rows))
    return tuple(Fraction(v, part.det) for v in _adj_mul(part.adj, rhs))


def deep_cone_condition(
    b_mat: IntMat, n_mat: IntMat, gcd_a: int, rhs: Sequence[int]
) -> ConditionReport:
    """Exact test that ``rhs`` lies in C_B at depth t = l_N * (D - 1).

    Here D = |det B| / gcd_a and l_N is the largest Euclidean column norm of
    ``n_mat``. A point x of the simplicial cone C_B has distance
    ``(B^-1 x)_i / ||row_i(B^-1)||`` to the i-th facet hyperplane, because
    that facet is ``{y : (B^-1 y)_i = 0}`` with normal row_i(B^-1). So x is
    at depth t iff for every i: ``(B^-1 x)_i >= 0`` and
    ``(B^-1 x)_i^2 >= t^2 * ||row_i(B^-1)||^2``. When the report holds for a
    right-hand side that is integer feasible, the solver's box-reduced point
    is guaranteed nonnegative.

    Raises:
        TypeError: if an entry of ``rhs`` is not an ``int`` or is a ``bool``.
        ValueError: if ``gcd_a`` is not positive.
        NotSquareError: if ``b_mat`` is not square.
        SingularError: if ``b_mat`` is singular.
        DimensionMismatchError: if ``n_mat`` does not have the rows of ``b_mat``.
    """
    rhs = _int_tuple(rhs, "rhs entry {}")
    if gcd_a < 1:
        raise ValueError(f"gcd must be a positive integer, got {gcd_a}")
    if b_mat.rows != b_mat.cols:
        raise NotSquareError(f"basis block is {b_mat.rows}x{b_mat.cols}")
    part = partition(b_mat, range(b_mat.rows))
    if b_mat.rows != n_mat.rows:
        raise DimensionMismatchError(
            f"basis block has {b_mat.rows} rows, remaining block {n_mat.rows}"
        )
    return deep_cone_report(part.det, part.adj, n_mat, gcd_a, _adj_mul(part.adj, rhs))
