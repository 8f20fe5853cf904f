"""Integer solution sets of linear systems and lattice box reduction.

The integer solutions of ``A x = b`` (A integer, full row rank m, n columns)
form either the empty set or an affine lattice ``r + L`` where L is the rank
``n - m`` kernel lattice of A. With A = (B | N) and B nonsingular, dropping
the m coordinates of B maps L bijectively onto the full-rank lattice
``L' = {z in Z^(n-m) : adj(B) N z = 0 (mod D)}``, D = |det B|, and the
solutions onto the coset ``{z : adj(B) N z = adj(B) b (mod D)}`` of L'.
``kernel_coset`` builds both modulo D through ``linalg.kernel_echelon``, so
no entry it handles exceeds D. L' has a unique lower-triangular basis with
positive diagonal and reduced subdiagonal entries, and reducing a point of
the coset into the half-open box spanned by the Gram-Schmidt vectors of
that basis is the core step of the solver. ``integer_solution_set`` and
``special_basis`` compute the same objects over the integers through
``hnf_column``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import DimensionMismatchError, RankDeficientError, SingularError, require
from .linalg import IntMat, dot, hnf_column, kernel_echelon


class AffineLatticeRep(NamedTuple):
    """A particular integer solution plus a basis of the kernel lattice."""

    particular: tuple[int, ...]
    kernel_basis: tuple[tuple[int, ...], ...]


def integer_solution_set(mat: IntMat, rhs: Sequence[int]) -> AffineLatticeRep | None:
    """Describe all integer solutions of ``mat @ x = rhs``.

    Returns None when the system has no integer solution (some staircase
    pivot fails to divide its back-substituted right-hand side), otherwise a
    particular solution together with ``n - m`` kernel basis vectors.

    Raises:
        RankDeficientError: if the rows of ``mat`` are linearly dependent.
        DimensionMismatchError: if ``rhs`` has the wrong length.
    """
    if len(rhs) != mat.rows:
        raise DimensionMismatchError(f"rhs length {len(rhs)}, expected {mat.rows}")
    m, n = mat.rows, mat.cols
    res = hnf_column(mat)
    h, u = res.h, res.u
    y: list[int] = []
    for i in range(m):
        acc = rhs[i] - sum(h[i][j] * y[j] for j in range(i))
        yi, rem = divmod(acc, h[i][i])
        if rem:
            return None
        y.append(yi)
    particular = u.mul_vec(y + [0] * (n - m))
    require(
        mat.mul_vec(particular) == tuple(rhs),
        "particular solution fails mat @ x = rhs",
        (mat, rhs),
    )
    kernel = tuple(u.col(j) for j in range(m, n))
    return AffineLatticeRep(tuple(particular), kernel)


def project_drop_m(vectors: Sequence[Sequence[int]], m: int) -> tuple[tuple[int, ...], ...]:
    """Drop the first ``m`` coordinates of every vector."""
    out = []
    for i, v in enumerate(vectors):
        if len(v) <= m:
            raise DimensionMismatchError(f"vector {i} has length {len(v)}, need > {m}")
        out.append(tuple(v[m:]))
    return tuple(out)


class SpecialBasis(NamedTuple):
    """Lower-triangular lattice basis: vectors[i][i] > 0, zeros above the
    diagonal, and 0 <= vectors[i][j] < vectors[j][j] for j < i. This basis is
    unique for a given full-rank lattice."""

    vectors: tuple[tuple[int, ...], ...]

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(v[i] for i, v in enumerate(self.vectors))


def special_basis(vectors: Sequence[Sequence[int]]) -> SpecialBasis:
    """Compute the unique reduced lower-triangular basis of a lattice.

    ``vectors`` are d linearly independent integer vectors of length d
    spanning the lattice. The result spans the same lattice.

    Raises:
        DimensionMismatchError: if the vectors do not form a square system.
        SingularError: if the vectors are linearly dependent.
    """
    vecs = [tuple(v) for v in vectors]
    d = len(vecs)
    for i, v in enumerate(vecs):
        if len(v) != d:
            raise DimensionMismatchError(f"vector {i} has length {len(v)}, expected {d}")
    # Reverse coordinates, take the row-style HNF (transpose of the column
    # form), then reverse back: the staircase lands on the lower triangle
    # with the reduction running below the diagonal instead of above it.
    rev = IntMat([v[::-1] for v in vecs])
    try:
        res = hnf_column(rev.transpose())
    except RankDeficientError as exc:
        raise SingularError("basis vectors are linearly dependent") from exc
    hrow = res.h.transpose()
    out = tuple(tuple(hrow[d - 1 - i][::-1]) for i in range(d))
    for i, v in enumerate(out):
        require(
            v[i] > 0 and not any(v[i + 1 :]) and all(0 <= v[j] < out[j][j] for j in range(i)),
            "special basis is not reduced lower triangular",
            vecs,
        )
    return SpecialBasis(out)


class KernelCoset(NamedTuple):
    """The projected kernel lattice L' of ``(B | N)`` as its special basis,
    the gcd of the maximal minors of ``(B | N)``, and the point z0 of
    ``[0, D)^(n-m)`` in the coset of L' that solves ``(B | N) x = b``, or
    None when there is no integer solution."""

    basis: SpecialBasis
    gcd: int
    point: tuple[int, ...] | None


def kernel_coset(
    det: int, adj: Sequence[Sequence[int]], n_mat: IntMat, rhs: Sequence[int]
) -> KernelCoset:
    """L', the gcd and the solution coset of ``(B | N) x = rhs`` modulo D.

    ``(det, adj) = adjugate(B)`` and D = |det B|. The coset is found by
    reducing ``(0 ; adj rhs mod D)`` along the last m vectors of
    ``kernel_echelon``: a pivot that does not divide its entry means no
    integer solution; otherwise ``(-z0 ; 0)`` is left, with
    ``adj N z0 = adj rhs (mod D)``.
    """
    d, k = abs(det), n_mat.cols
    ech, gcd = kernel_echelon(det, adj, tuple(zip(*n_mat)))
    basis = SpecialBasis(tuple(v[:k] for v in ech[:k]))
    cur = [0] * k + [dot(row, rhs) % d for row in adj]
    for c in reversed(range(k, len(cur))):
        v = ech[c]
        q, r = divmod(cur[c], v[c])
        if r:
            return KernelCoset(basis, gcd, None)
        cur = [(x - q * y) % d for x, y in zip(cur[:c], v)] if q else cur[:c]
    point = tuple(-x % d for x in cur)
    nz = n_mat.mul_vec(point)
    require(
        all((dot(row, rhs) - dot(row, nz)) % d == 0 for row in adj),
        "coset point fails adj(B) N z0 = adj(B) b (mod |det B|)",
        (det, n_mat, rhs),
    )
    return KernelCoset(basis, gcd, point)


def lattice_determinant(basis: SpecialBasis) -> int:
    """Determinant of the lattice spanned by a reduced triangular basis."""
    prod = 1
    for v in basis.diagonal:
        prod *= v
    return prod


class GramSchmidtData(NamedTuple):
    """Orthogonalization ``ortho`` plus the projection coefficients ``mu``;
    ``mu[i]`` holds the i coefficients of vector i against ortho[0..i-1]."""

    ortho: tuple[tuple[Fraction, ...], ...]
    mu: tuple[tuple[Fraction, ...], ...]


def gram_schmidt(vectors: Sequence[Sequence]) -> GramSchmidtData:
    """Exact Gram-Schmidt orthogonalization over the rationals.

    Raises:
        SingularError: if the vectors are linearly dependent.
        DimensionMismatchError: if vector lengths differ.
    """
    vecs = [tuple(Fraction(e) for e in v) for v in vectors]
    if not vecs:
        raise DimensionMismatchError("need at least one vector")
    width = len(vecs[0])
    ortho: list[tuple[Fraction, ...]] = []
    norms: list[Fraction] = []
    mu: list[tuple[Fraction, ...]] = []
    for i, b in enumerate(vecs):
        if len(b) != width:
            raise DimensionMismatchError(f"vector {i} has length {len(b)}, expected {width}")
        cur = list(b)
        coeffs = []
        for j in range(i):
            m_ij = dot(b, ortho[j]) / norms[j]
            coeffs.append(m_ij)
            cur = [c - m_ij * g for c, g in zip(cur, ortho[j])]
        if not any(cur):
            raise SingularError(f"vector {i} is dependent on the previous ones")
        ortho.append(tuple(cur))
        norms.append(dot(cur, cur))
        mu.append(tuple(coeffs))
    return GramSchmidtData(tuple(ortho), tuple(mu))


class BoxReduction(NamedTuple):
    """Decomposition ``x = y + w`` with y in the lattice and w in the
    half-open Gram-Schmidt box of the basis."""

    y: tuple
    w: tuple[Fraction, ...]


def box_reduce(vectors: Sequence[Sequence[int]], point: Sequence) -> BoxReduction:
    """Reduce ``point`` modulo the lattice into the Gram-Schmidt box.

    Sweeping i from last to first, subtract ``floor(lambda_i)`` copies of
    basis vector i, where lambda_i is the coefficient of ``point`` against
    the i-th Gram-Schmidt vector. Afterwards every coefficient lies in
    [0, 1), so w sits in the half-open box spanned by the orthogonalized
    basis. The result depends only on the coset ``point + L``, never on the
    representative.

    Raises:
        DimensionMismatchError: if the basis is not square or the point has
            the wrong length.
        SingularError: if the basis vectors are dependent.
    """
    vecs = [tuple(v) for v in vectors]
    d = len(vecs)
    for i, v in enumerate(vecs):
        if len(v) != d:
            raise DimensionMismatchError(f"basis vector {i} has length {len(v)}, expected {d}")
    if len(point) != d:
        raise DimensionMismatchError(f"point has length {len(point)}, expected {d}")
    gs = gram_schmidt(vecs)
    norms = [dot(g, g) for g in gs.ortho]
    cur = [Fraction(c) for c in point]
    shift = [0] * d
    for i in reversed(range(d)):
        lam = dot(cur, gs.ortho[i]) / norms[i]
        k = math.floor(lam)
        if k:
            cur = [c - k * e for c, e in zip(cur, vecs[i])]
            shift = [s + k * e for s, e in zip(shift, vecs[i])]
    return BoxReduction(y=tuple(shift), w=tuple(cur))
