"""Integer solution sets of linear systems and lattice box reduction.

The integer solutions of ``A x = b`` (A integer, full row rank m, n columns)
form either the empty set or an affine lattice ``r + L`` where L is the rank
``n - m`` kernel lattice of A. ``partition`` splits A = (B | N) with B
nonsingular for every caller; N has no columns when A is square. Its one
elimination gives ``det B``, ``adj(B)`` and ``adj(B) N``. Dropping the m
coordinates of B maps L bijectively onto the full-rank lattice
``L' = {z in Z^(n-m) : adj(B) N z = 0 (mod D)}``, D = |det B|, and the
solutions onto the coset ``{z : adj(B) N z = adj(B) b (mod D)}`` of L'.
``kernel_coset`` builds both modulo D from ``adj(B) N`` and ``adj(B) b``
through ``linalg.kernel_echelon``, so no entry it handles exceeds D. L' has a
unique lower-triangular basis with positive diagonal and reduced
subdiagonal entries. Its Gram-Schmidt vectors are its diagonal entries
times the unit vectors, so the box they span is the integer box
``0 <= w_i < v_i[i]``, and reducing a point of the coset into that box is
the core step of the solver. ``kernel_coset`` does it in the sweep that
decides feasibility, one floor quotient per coordinate, and returns the
box point itself; ``box_reduce`` runs the same sweep on any such basis for
the benchmark's traced replay and the tests, and takes no other kind.
``lift`` carries a point w of the coset back to a solution
from the same products, ``(adj(B) b - adj(B) N w) / det B``. The
reference routines built on these, ``integer_solution_set`` (which lifts
the coset point and the basis of L' that way) and ``special_basis``, live
in ``diobox.reference``, which the solve path never loads.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence

from .errors import DimensionMismatchError, RankDeficientError, SingularError, require
from .linalg import IntMat, _box_sweep, _int_tuple, _scaled_solve, dot, kernel_echelon


class BasisPartition(namedtuple("BasisPartition", "basis_cols order a det adj adj_n")):
    """Basis column indices, the induced column order (basis first), A
    itself, ``det = det(b_mat)``, its adjugate ``adj``
    (``b_mat @ adj == det * I``) and ``adj_n = adj @ n_mat``, an m x k block
    with empty rows when k = 0. The blocks ``b_mat`` and ``n_mat`` are read
    off ``a`` when asked for: a solve that reads neither builds neither."""

    __slots__ = ()

    @property
    def b_mat(self) -> IntMat:
        return self.a.select_cols(self.basis_cols)

    @property
    def n_mat(self) -> IntMat:
        return self.a.select_cols(self.order[len(self.basis_cols) :])


def partition(a: IntMat, cols: Sequence[int] | None = None) -> BasisPartition:
    """Split ``A = (B | N)`` with B nonsingular.

    ``cols`` are the (0-based) columns of B; None picks the leftmost m
    linearly independent columns; explicit columns move to the front and
    must be the pivots. One elimination of ``[A | I]`` gives ``det B``,
    ``adj(B)`` and ``adj(B) N``. The other columns keep their order in N,
    which has no columns when A is square. The record keeps A and builds
    neither block.

    Raises:
        TypeError: if an entry of ``cols`` is not an ``int`` or is a ``bool``.
        RankDeficientError: if ``cols`` is None and A has no m independent
            columns.
        DimensionMismatchError: if ``cols`` are not m distinct column indices.
        SingularError: if the chosen columns are singular.
    """
    m, n = a.rows, a.cols
    explicit = cols is not None
    if explicit:
        cols = _int_tuple(cols, "cols entry {}")
        if len(cols) != m or len(set(cols)) != m or not all(0 <= c < n for c in cols):
            raise DimensionMismatchError(
                f"basis columns must be {m} distinct indices below {n}, got {cols}"
            )
    else:
        # the free columns are N's, then I's: x = [adj(B) N | adj(B)]
        pivots, det, x = _scaled_solve(a)
        if not det:
            raise RankDeficientError(f"matrix has rank {len(pivots)}, expected {m}")
        cols = pivots
    order = cols + tuple(j for j in range(n) if j not in cols)
    if explicit:
        pivots, det, x = _scaled_solve(a.select_cols(order))
        if pivots != tuple(range(m)):
            shown = [c + 1 for c in cols]  # as instance files give them
            raise SingularError(f"chosen basis columns {shown} (1-based) are singular")
    k = n - m
    adj, adj_n = tuple(tuple(r[k:]) for r in x), tuple(tuple(r[:k]) for r in x)
    return BasisPartition(cols, order, a, det, adj, adj_n)


def lift(part: BasisPartition, adj_b, w) -> tuple[int, ...]:
    """The solution x of ``(B | N) x = b`` whose N part is w, in the
    original column order, from ``adj_b = adj(B) b``: the B part is
    ``u = (adj_b - adj(B) N w) / det B``. When N has no columns, w is empty.

    Raises:
        InternalError: if u is not integral: w is not in the coset of b.
    """
    lifted = [divmod(x - dot(row, w), part.det) for x, row in zip(adj_b, part.adj_n)]
    require(
        all(r == 0 for _, r in lifted),
        "lift through the basis is not integral",
        (part, adj_b, w),
    )
    x = [0] * len(part.order)
    for j, v in zip(part.order, [u for u, _ in lifted] + list(w)):
        x[j] = v
    return tuple(x)


class SpecialBasis(namedtuple("SpecialBasis", "vectors")):
    """Lower-triangular lattice basis: vectors[i][i] > 0, zeros above the
    diagonal, and 0 <= vectors[i][j] < vectors[j][j] for j < i. This basis is
    unique for a given full-rank lattice."""

    __slots__ = ()

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(v[i] for i, v in enumerate(self.vectors))


class KernelCoset(namedtuple("KernelCoset", "basis gcd point certificate", defaults=(None,))):
    """The projected kernel lattice L' of ``(B | N)`` as its special basis,
    the gcd of the maximal minors of ``(B | N)``, and the point of the box
    ``0 <= w_i < v_i[i]`` of that basis in the coset of L' that solves
    ``(B | N) x = b``, or None when there is no integer solution. Then
    ``certificate`` is an integer m-vector y with ``y adj(B) N = 0`` and
    ``y adj(B) b != 0 (mod |det B|)``, which proves it; otherwise it is None."""

    __slots__ = ()


def kernel_coset(det: int, adj_n: Sequence[Sequence[int]], adj_b: Sequence[int]) -> KernelCoset:
    """L', the gcd and the box point of the solution coset of ``(B | N) x = b``.

    ``adj_n = adj(B) N``, ``adj_b = adj(B) b`` and D = |det B|. One sweep
    reduces ``(0 ; -adj_b mod D)`` into the box of the whole
    ``kernel_echelon``. That point is congruent to ``(z ; 0)`` modulo the
    echelon's lattice exactly when ``adj_n z = adj_b (mod D)``, and the box
    holds one point per coset; so a nonzero t part means no integer
    solution, and otherwise the z part is the box point of the coset.

    The t parts T of the last m echelon vectors are a lower-triangular
    basis of ``M = adj_n Z^k + D Z^m``, so ``D T^-1`` is integral, and its
    columns are orthogonal modulo D to all of M, ``adj_n``'s columns among
    them. When the sweep leaves a nonzero t part r, with last nonzero entry
    ``r_i < T[i][i]``, column i of ``D T^-1`` has product
    ``(D / T[i][i]) r_i != 0 (mod D)`` with r, and so with ``adj_b``: that
    column is the certificate (Schrijver 1986, Cor. 4.1a).
    """
    d, k = abs(det), len(adj_n[0])
    ech, gcd = kernel_echelon(det, adj_n)
    basis = SpecialBasis(tuple(v[:k] for v in ech[:k]))
    w = _box_sweep(ech, [0] * k + [-x % d for x in adj_b], d)
    r = w[k:]
    if any(r):
        # T y = D e_i by forward substitution; y is 0 before coordinate i
        tri = [v[k:] for v in ech[k:]]
        i = max(j for j, e in enumerate(r) if e)
        y = [0] * len(r)
        y[i] = d // tri[i][i]
        for j in range(i + 1, len(r)):
            y[j] = -dot(tri[j][i:j], y[i:j]) // tri[j][j]
        return KernelCoset(basis, gcd, None, tuple(y))
    point = tuple(w[:k])
    require(
        all((x - dot(row, point)) % d == 0 for x, row in zip(adj_b, adj_n)),
        "coset point fails adj(B) N z = adj(B) b (mod |det B|)",
        (det, adj_n, adj_b),
    )
    return KernelCoset(basis, gcd, point)


class BoxReduction(namedtuple("BoxReduction", "w")):
    """The representative w of the coset ``point + L`` in the box
    ``0 <= w[i] < v_i[i]`` of a lower-triangular basis."""

    __slots__ = ()


def box_reduce(vectors: Sequence[Sequence[int]], point: Sequence[int]) -> BoxReduction:
    """Reduce ``point`` modulo the lattice of a lower-triangular basis into
    the box ``0 <= w[i] < v_i[i]``.

    Basis vector i must have ``v_i[i] > 0`` and zeros after coordinate i,
    the shape of every basis ``kernel_coset`` and ``special_basis`` build.
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
