"""Reference routines that no decision path calls.

``solve`` and every command work from one basis partition and the products
``adj(B) N`` and ``adj(B) b`` (see ``lattice`` and ``solver``). The routines
here answer the same questions the long way: the whole integer solution set
as a particular solution plus a kernel basis, the projection that drops the
basis coordinates, the special basis of any square lattice basis, the gcd
of the maximal minors, the exact rational solve of a square system and the
deep-cone report from the blocks B and N themselves. They stay exported
from ``diobox`` because the benchmark's traced replay and the tests import
them; nothing in the package imports this module, so a ``diobox`` process
never loads it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .cone import ConditionReport, deep_cone_report
from .errors import (
    DimensionMismatchError,
    NotSquareError,
    SingularError,
    require,
)
from .lattice import SpecialBasis, kernel_coset, lift, partition
from .linalg import IntMat, _adj_mul, _int_tuple, det_exact, hnf_mod, kernel_echelon


class AffineLatticeRep(NamedTuple):
    """A particular integer solution plus a basis of the kernel lattice."""

    particular: tuple[int, ...]
    kernel_basis: tuple[tuple[int, ...], ...]


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
    ``kernel_coset`` point and basis of L' for the leftmost nonsingular
    column block B, carried back through ``adj(B)`` by ``lift``. The point
    lies in the box of that basis, so the particular solution is the ``x``
    that ``solve`` returns when B is its basis.

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
    kernel = tuple(lift(part, (0,) * mat.rows, z) for z in coset.basis.vectors)
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
