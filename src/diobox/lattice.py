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
subdiagonal entries, and reducing a point of the coset into the half-open
box spanned by the Gram-Schmidt vectors of that basis is the core step of
the solver; ``box_reduce`` does it exactly, multiplying only nonzero
entries: the basis stays ``int``, and a ``Fraction`` is formed only for a
projection's quotient and the entries it changes, and for each coefficient
of the sweep. ``lift`` carries a point w of the coset back to a solution
from the same products, ``(adj(B) b - adj(B) N w) / det B``. The
reference routines built on these, ``integer_solution_set`` (which lifts
the coset point and the basis of L' that way) and ``special_basis``, live
in ``diobox.reference``, which the solve path never loads.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import DimensionMismatchError, RankDeficientError, SingularError, require
from .linalg import IntMat, _int_tuple, _scaled_solve, dot, kernel_echelon


class BasisPartition(NamedTuple):
    """Basis column indices, the induced column order (basis first), the
    corresponding blocks of A, ``det = det(b_mat)``, its adjugate ``adj``
    (``b_mat @ adj == det * I``) and ``adj_n = adj @ n_mat``, an m x k block
    with empty rows when k = 0."""

    basis_cols: tuple[int, ...]
    order: tuple[int, ...]
    b_mat: IntMat
    n_mat: IntMat
    det: int
    adj: tuple[tuple[int, ...], ...]
    adj_n: tuple[tuple[int, ...], ...]


def partition(a: IntMat, cols: Sequence[int] | None = None) -> BasisPartition:
    """Split ``A = (B | N)`` with B nonsingular.

    ``cols`` are the (0-based) columns of B; None picks the leftmost m
    linearly independent columns; explicit columns move to the front and
    must be the pivots. One elimination of ``[A | I]`` gives B with ``det B``,
    ``adj(B)`` and ``adj(B) N``. The other columns keep their order in N,
    which has no columns when A is square.

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
    b_mat, n_mat = a.select_cols(cols), a.select_cols(order[m:])
    return BasisPartition(cols, order, b_mat, n_mat, det, adj, adj_n)


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


class SpecialBasis(NamedTuple):
    """Lower-triangular lattice basis: vectors[i][i] > 0, zeros above the
    diagonal, and 0 <= vectors[i][j] < vectors[j][j] for j < i. This basis is
    unique for a given full-rank lattice."""

    vectors: tuple[tuple[int, ...], ...]

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(v[i] for i, v in enumerate(self.vectors))


class KernelCoset(NamedTuple):
    """The projected kernel lattice L' of ``(B | N)`` as its special basis,
    the gcd of the maximal minors of ``(B | N)``, and the point z0 of
    ``[0, D)^(n-m)`` in the coset of L' that solves ``(B | N) x = b``, or
    None when there is no integer solution."""

    basis: SpecialBasis
    gcd: int
    point: tuple[int, ...] | None


def kernel_coset(det: int, adj_n: Sequence[Sequence[int]], adj_b: Sequence[int]) -> KernelCoset:
    """L', the gcd and the solution coset of ``(B | N) x = b`` modulo D.

    ``adj_n = adj(B) N``, ``adj_b = adj(B) b`` and D = |det B|. The
    coset is found by reducing ``(0 ; adj_b mod D)`` along the last m
    vectors of ``kernel_echelon``: a pivot that does not divide its entry
    means no integer solution; otherwise ``(-z0 ; 0)`` is left, with
    ``adj_n z0 = adj_b (mod D)``.
    """
    d, k = abs(det), len(adj_n[0])
    ech, gcd = kernel_echelon(det, adj_n)
    basis = SpecialBasis(tuple(v[:k] for v in ech[:k]))
    cur = [0] * k + [x % d for x in adj_b]
    for c in reversed(range(k, len(cur))):
        v = ech[c]
        q, r = divmod(cur[c], v[c])
        if r:
            return KernelCoset(basis, gcd, None)
        cur = [(x - q * y) % d for x, y in zip(cur[:c], v)] if q else cur[:c]
    point = tuple(-x % d for x in cur)
    require(
        all((x - dot(row, point)) % d == 0 for x, row in zip(adj_b, adj_n)),
        "coset point fails adj(B) N z0 = adj(B) b (mod |det B|)",
        (det, adj_n, adj_b),
    )
    return KernelCoset(basis, gcd, point)


class BoxReduction(NamedTuple):
    """The representative w of the coset ``point + L`` in the half-open
    Gram-Schmidt box of the basis."""

    w: tuple


def _gram_schmidt(
    vecs: Sequence[Sequence[int]],
) -> list[tuple[tuple, Fraction, list[int]]]:
    # each Gram-Schmidt vector as a dense tuple with its squared norm, as a
    # Fraction so that every quotient by it is exact, and its support (the
    # nonzero coordinates). A vector starts as its basis vector's ints; a
    # projection onto an earlier vector sums only over that vector's support
    # where the basis vector is nonzero, and only an inner product other
    # than 0 forms a quotient, mu, and turns the entries on that support
    # into Fractions. On a triangular basis every Gram-Schmidt vector has
    # one nonzero entry, and a vector no projection changes stays int
    ortho: list[tuple[tuple, Fraction, list[int]]] = []
    for i, v in enumerate(vecs):
        cur = list(v)
        supp = [t for t, e in enumerate(v) if e]
        reach: set[int] = set()
        for g, norm, g_supp in ortho:
            ip = sum([v[t] * g[t] for t in g_supp if v[t]])
            if ip:
                mu = ip / norm
                for t in g_supp:
                    cur[t] -= mu * g[t]
                reach.update(g_supp)
        if reach:
            # entries can cancel, so the support is read after the updates,
            # over the coordinates that can be nonzero alone
            supp = sorted(t for t in reach.union(supp) if cur[t])
        if not supp:
            raise SingularError(f"vector {i} is dependent on the previous ones")
        ortho.append((tuple(cur), Fraction(sum([cur[t] * cur[t] for t in supp])), supp))
    return ortho


def box_reduce(vectors: Sequence[Sequence[int]], point: Sequence) -> BoxReduction:
    """Reduce ``point`` modulo the lattice into the Gram-Schmidt box.

    One exact Gram-Schmidt pass builds each orthogonal vector, its squared
    norm (a ``Fraction``) and its support (its nonzero coordinates) once.
    Each orthogonal vector starts as its basis vector's ``int`` entries. A
    projection onto an earlier orthogonal vector multiplies only where its
    support meets the nonzero entries of the basis vector, and an inner
    product of zero forms no coefficient and leaves the entries as they are.
    Then, sweeping i from last to first, subtract ``floor(lambda_i)`` copies
    of basis vector i, where lambda_i is the coefficient of ``point``
    against the i-th Gram-Schmidt vector, read over that vector's support
    alone. Afterwards every coefficient lies in [0, 1), so w sits in the
    half-open box spanned by the orthogonalized basis. On a lower-triangular
    basis every orthogonal vector has one nonzero entry and every entry
    below a diagonal 1 is 0, so the ``Fraction`` products and quotients grow
    with the dimension times the number of diagonal entries above 1, plus
    one quotient per vector in the sweep. The result depends only on the
    coset ``point + L``, never on the representative.

    The point's int and Fraction entries are kept as they are, so an integer
    point stays integer throughout; any other entry (a float, a string
    ``Fraction`` accepts) is first converted to its exact ``Fraction``.

    Raises:
        DimensionMismatchError: if the basis is empty or not square, or the
            point has the wrong length.
        SingularError: if the basis vectors are dependent.
    """
    vecs = [tuple(v) for v in vectors]
    d = len(vecs)
    if not d:
        raise DimensionMismatchError("need at least one vector")
    for i, v in enumerate(vecs):
        if len(v) != d:
            raise DimensionMismatchError(f"basis vector {i} has length {len(v)}, expected {d}")
    if len(point) != d:
        raise DimensionMismatchError(f"point has length {len(point)}, expected {d}")
    ortho = _gram_schmidt(vecs)
    cur = tuple(c if isinstance(c, (int, Fraction)) else Fraction(c) for c in point)
    for v, (g, norm, supp) in zip(reversed(vecs), reversed(ortho)):
        k = math.floor(sum([cur[t] * g[t] for t in supp]) / norm)
        if k:
            cur = tuple(c - k * e for c, e in zip(cur, v))
    return BoxReduction(cur)
