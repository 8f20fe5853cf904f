"""Independent reference implementations used only to cross-check the
package. Everything here is deliberately naive: cofactor expansion, full
minor enumeration, boolean reachability tables, the ``Fraction``
Gauss-Jordan eliminations the package used before its fraction-free core,
and the column Hermite normal form over the integers that the package used
before it worked modulo |det B|, and the general Gram-Schmidt box
reduction the package ran before its integer triangular sweep, and the
kernel echelon built from ``m * k`` products of ``adj(B)`` with N's columns, which the
package ran before its elimination gave ``adj(B) N``, and the coset point
z0 in ``[0, D)`` that it box-reduced before one sweep gave the box point,
and the lift through
the residual ``b - N w`` the package ran before it lifted from
``adj(B) b``. Nothing imports from the package's internals beyond plain
data (``IntMat`` and the result records), ``dot``, ``xgcd``, the reduced
``reference.hnf_mod``, ``require`` and its exception types."""

import math
from fractions import Fraction
from itertools import accumulate, combinations
from typing import NamedTuple, Sequence

from diobox.errors import (
    DimensionMismatchError,
    NotSquareError,
    RankDeficientError,
    SingularError,
    require,
)
from diobox.lattice import BasisPartition, KernelCoset
from diobox.linalg import IntMat, dot, xgcd
from diobox.reference import AffineLatticeRep, SpecialBasis, hnf_mod


def det_cofactor(rows):
    """Determinant by first-row cofactor expansion (small matrices only)."""
    n = len(rows)
    assert all(len(r) == n for r in rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [[r[k] for k in range(n) if k != j] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_cofactor(minor)
    return total


def minors_gcd(rows):
    """gcd of all maximal minors by direct enumeration."""
    m = len(rows)
    n = len(rows[0])
    g = 0
    for cols in combinations(range(n), m):
        sub = [[row[j] for j in cols] for row in rows]
        g = math.gcd(g, det_cofactor(sub))
    return g


def integer_feasible_minor_test(rows, b):
    """b lies in the column lattice of A iff appending b leaves the gcd of
    maximal minors unchanged (full-row-rank A)."""
    augmented = [list(row) + [bi] for row, bi in zip(rows, b)]
    return minors_gcd(rows) == minors_gcd(augmented)


def frobenius_reachability(entries):
    """Largest non-representable value via a growing boolean table.

    Stops once the top min(entries) values are all representable and the
    last gap sits safely below them; independent of any bound formula.
    """
    q = min(entries)
    limit = 2 * q
    while True:
        limit *= 2
        table = [False] * (limit + 1)
        table[0] = True
        for v in range(1, limit + 1):
            table[v] = any(v >= e and table[v - e] for e in entries)
        if all(table[limit - i] for i in range(q)):
            last_gap = max((v for v in range(limit + 1) if not table[v]), default=-1)
            if last_gap <= limit - q:
                return last_gap


def box_shape(entries: Sequence[int]) -> tuple[int, ...]:
    """Closed-form diagonal (f_1/f_2, ..., f_{n-1}/f_n) of the triangular basis
    of a one-row system's projected kernel lattice, f_i = gcd(a_1, ..., a_i)."""
    chain = list(accumulate(entries, math.gcd))
    return tuple(chain[i] // chain[i + 1] for i in range(len(chain) - 1))


def hnf_shape_ok(h, m):
    """Canonical lower-staircase shape for a full-row-rank input."""
    n = h.cols
    for i in range(m):
        if h[i][i] <= 0:
            return False
        if any(h[i][j] != 0 for j in range(i + 1, n)):
            return False
        if any(not (0 <= h[i][j] < h[i][i]) for j in range(i)):
            return False
    return True


def echelon_pivots(rows):
    """Greedy leftmost linearly independent columns, by reducing each
    column against a Fraction echelon of the columns chosen so far."""
    m = len(rows)
    echelon, chosen = [], []
    for j in range(len(rows[0])):
        if len(chosen) == m:
            break
        v = [Fraction(row[j]) for row in rows]
        for row in echelon:
            lead = next(i for i, e in enumerate(row) if e)
            if v[lead]:
                f = v[lead] / row[lead]
                v = [a - f * b for a, b in zip(v, row)]
        if any(v):
            echelon.append(v)
            chosen.append(j)
    return tuple(chosen)


def _gauss_jordan(rows, extra):
    # reduce [rows | extra] over the rationals; None when rows is singular
    n = len(rows)
    a = [[Fraction(e) for e in list(row) + list(ext)] for row, ext in zip(rows, extra)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        pv = a[col][col]
        a[col] = [e / pv for e in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [e - f * p for e, p in zip(a[r], a[col])]
    return [tuple(row[n:]) for row in a]


def solve_fraction(rows, rhs):
    """``rows @ x = rhs`` over the rationals, with the package's errors."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise NotSquareError("not square")
    if len(rhs) != n:
        raise DimensionMismatchError("rhs length")
    out = _gauss_jordan(rows, [[e] for e in rhs])
    if out is None:
        raise SingularError("singular")
    return tuple(row[0] for row in out)


def inverse_rational(rows):
    """Exact inverse as Fraction rows, or None for a singular matrix."""
    n = len(rows)
    return _gauss_jordan(rows, [[int(i == j) for j in range(n)] for i in range(n)])


def in_cone(b_rows, point):
    """Whether ``point`` lies in the cone spanned by the columns of
    ``b_rows``, through the Fraction inverse of B.

    Raises:
        SingularError: if B is singular (the cone is not simplicial).
    """
    binv = inverse_rational([list(row) for row in b_rows])
    if binv is None:
        raise SingularError("singular")
    return all(sum(a * p for a, p in zip(row, point)) >= 0 for row in binv)


def _max_col_norm_sq(rows):
    return max(sum(row[j] ** 2 for row in rows) for j in range(len(rows[0])))


def _facets(binv, rhs, rhs_scale):
    # (lhs_squared, rhs_squared, lhs_nonnegative) per facet, from B^-1
    out = []
    for row, scale in zip(binv, rhs_scale):
        p = sum(a * b for a, b in zip(row, rhs))
        out.append((p * p, scale, p >= 0))
    return out


def deep_cone_reference(b_rows, n_rows, gcd_a, rhs):
    """``(holds, t_squared, facets)`` of the deep-cone test through the
    Fraction inverse of B; None when B is singular."""
    binv = inverse_rational(b_rows)
    if binv is None:
        return None
    ratio = Fraction(abs(det_cofactor(b_rows)), gcd_a)
    t_sq = _max_col_norm_sq(n_rows) * (ratio - 1) ** 2
    facets = _facets(binv, rhs, [t_sq * sum(e * e for e in row) for row in binv])
    holds = all(nonneg and lhs >= rhs_sq for lhs, rhs_sq, nonneg in facets)
    return holds, t_sq, facets


def adj_products(b_rows, n_rows, rhs):
    """``(det B, adj(B) N, adj(B) rhs)``, what the cone reports take, through
    the cofactor determinant and the Fraction inverse of B; None when B is
    singular."""
    binv = inverse_rational([list(row) for row in b_rows])
    if binv is None:
        return None
    det = det_cofactor([list(row) for row in b_rows])
    adj = [[int(det * e) for e in row] for row in binv]
    k = len(n_rows[0])
    adj_n = tuple(
        tuple(sum(a * n_row[j] for a, n_row in zip(row, n_rows)) for j in range(k)) for row in adj
    )
    return det, adj_n, tuple(sum(a * e for a, e in zip(row, rhs)) for row in adj)


def shifted_cone_reference(a_rows, b_rows, n_rows, rhs):
    """``(holds, shift_squared, facets)`` of the two-row shifted-cone test
    through the Fraction inverse of B; "n/a" when some column of N leaves
    the cone of B, None when B is singular."""
    binv = inverse_rational(b_rows)
    if binv is None:
        return None
    for j in range(len(n_rows[0])):
        if any(sum(r[i] * n_rows[i][j] for i in range(2)) < 0 for r in binv):
            return "n/a"
    v = [sum(row) for row in a_rows]
    lb_ln = _max_col_norm_sq(b_rows) * _max_col_norm_sq(n_rows)
    d = abs(det_cofactor(b_rows))
    factor = Fraction(d - 1, d)
    cs = [factor * sum(a * b for a, b in zip(row, v)) for row in binv]
    facets = _facets(binv, rhs, [lb_ln * c * c for c in cs])
    holds = all(nonneg and lhs >= rhs_sq for lhs, rhs_sq, nonneg in facets)
    return holds, lb_ln * factor * factor, facets


class HnfResult(NamedTuple):
    h: IntMat
    u: IntMat


def hnf_column(mat: IntMat) -> HnfResult:
    """Column-style Hermite normal form with its unimodular transform.

    Returns ``(h, u)`` with ``mat @ u == h`` and ``|det u| = 1``. For a
    full-row-rank m x n input, ``h`` is ``(L | 0)`` with L lower triangular,
    positive diagonal, and every entry left of a pivot reduced into
    ``[0, pivot)``. That shape is unique, so ``h`` is canonical; ``u`` is one
    valid transform among many.

    Raises:
        RankDeficientError: if the rows are linearly dependent.
    """
    m, n = mat.rows, mat.cols
    if m > n:
        raise RankDeficientError(f"a {m}x{n} matrix cannot have full row rank")
    h = [list(row) for row in mat]
    u = [[int(i == j) for j in range(n)] for i in range(n)]

    def combine(i: int, j: int, s: int, t: int, p: int, q: int) -> None:
        # cols (i, j) <- (s*ci + t*cj, q*cj - p*ci); the 2x2 transform has det 1
        for block in (h, u):
            for row in block:
                ci, cj = row[i], row[j]
                row[i] = s * ci + t * cj
                row[j] = q * cj - p * ci

    def add_multiple(j: int, i: int, q: int) -> None:
        # col j -= q * col i
        if q == 0:
            return
        for block in (h, u):
            for row in block:
                row[j] -= q * row[i]

    for i in range(m):
        for j in range(i + 1, n):
            if h[i][j] == 0:
                continue
            a, b = h[i][i], h[i][j]
            g, s, t = xgcd(a, b)
            combine(i, j, s, t, b // g, a // g)
        if h[i][i] < 0:
            for block in (h, u):
                for row in block:
                    row[i] = -row[i]
        if h[i][i] == 0:
            raise RankDeficientError("rows are linearly dependent")
        for j in range(i):
            add_multiple(j, i, h[i][j] // h[i][i])
    return HnfResult(IntMat(h), IntMat(u))


def integer_solution_set_hnf(mat: IntMat, rhs: Sequence[int]) -> AffineLatticeRep | None:
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


def special_basis_hnf(vectors: Sequence[Sequence[int]]) -> SpecialBasis:
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


def kernel_echelon_product(
    det: int, adj: Sequence[Sequence[int]], n_mat: IntMat
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The kernel lattice of ``(B | N)`` modulo ``D = |det B|``, and the gcd.

    ``det = det B`` and ``adj = adj(B)``, and N has k columns, possibly none.
    Since ``B^-1 = adj / det``, an integer z extends to an integer kernel
    vector exactly when ``adj N z = 0 (mod D)``. Returns the ``hnf_mod``
    basis of the lattice ``{(z ; t) in Z^(k+m) : t = adj N z (mod D)}``, z
    first, built from the generators ``(e_j ; adj N_j)``, and the gcd of the
    maximal minors of ``(B | N)``. The first k basis vectors have t = 0:
    cut to their z part, they are the reduced triangular basis of the
    projected kernel lattice ``L' = {z : adj N z = 0 (mod D)}``. The index of
    L' in ``Z^k`` is ``D / gcd``, so the gcd is D over the product of their
    diagonal entries. The last m vectors decide the congruences
    ``adj N z = r (mod D)``.
    """
    d, k, m = abs(det), n_mat.cols, len(adj)
    gens = [
        [int(i == j) for i in range(k)] + [dot(row, col) for row in adj]
        for j, col in enumerate(map(n_mat.col, range(k)))
    ]
    ech = hnf_mod(gens, k + m, d)
    lat_det = math.prod(ech[i][i] for i in range(k))
    gcd = d // lat_det
    require(lat_det * gcd == d, "kernel lattice determinant does not divide |det B|", (det, n_mat))
    return ech, gcd


def lift_residual(part: BasisPartition, rhs, w) -> tuple[int, ...]:
    """The solution x of ``(B | N) x = rhs`` whose N part is w, in the
    original column order: the B part is ``u = adj(B) (rhs - N w) / det B``.
    When N has no columns, w is empty.

    Raises:
        InternalError: if u is not integral: w is not in the coset of rhs.
    """
    residual = tuple(bi - ni for bi, ni in zip(rhs, part.n_mat.mul_vec(w)))
    lifted = [divmod(dot(row, residual), part.det) for row in part.adj]
    require(
        all(r == 0 for _, r in lifted),
        "lift through the basis is not integral",
        (part, rhs, w),
    )
    x = [0] * len(part.order)
    for j, v in zip(part.order, [u for u, _ in lifted] + list(w)):
        x[j] = v
    return tuple(x)


def identity(n: int) -> IntMat:
    """The n x n identity matrix."""
    return IntMat([[int(i == j) for j in range(n)] for i in range(n)])


def coset_basis(echelon, k: int) -> tuple[tuple[int, ...], ...]:
    """The triangular basis of L' that a ``KernelCoset.echelon`` holds: the
    z parts of its first k vectors, k the number of columns of N."""
    return tuple(v[:k] for v in echelon[:k])


def kernel_coset_z0(det: int, adj, n_mat: IntMat, adj_b) -> KernelCoset:
    """The solution coset by the route the package ran before one sweep of
    the whole echelon gave the box point: reduce ``(0 ; adj_b mod D)`` along
    the last m vectors of ``kernel_echelon_product``. A pivot that does not
    divide its entry means no integer solution; otherwise ``(-z0 ; 0)`` is
    left, with ``adj N z0 = adj_b (mod D)`` and z0 in ``[0, D)^k``, and
    ``triangular_sweep`` moves z0 into the box of L'."""
    d, k = abs(det), n_mat.cols
    ech, gcd = kernel_echelon_product(det, adj, n_mat)
    cur = [0] * k + [x % d for x in adj_b]
    for c in reversed(range(k, len(cur))):
        v = ech[c]
        q, r = divmod(cur[c], v[c])
        if r:
            return KernelCoset(ech, gcd, None)
        cur = [(x - q * y) % d for x, y in zip(cur[:c], v)] if q else cur[:c]
    z0 = tuple(-x % d for x in cur)
    n_z0 = n_mat.mul_vec(z0)
    require(
        all((x - dot(row, n_z0)) % d == 0 for x, row in zip(adj_b, adj)),
        "z0 fails adj(B) N z0 = adj(B) b (mod |det B|)",
        (det, n_mat, adj_b),
    )
    return KernelCoset(ech, gcd, triangular_sweep(coset_basis(ech, k), z0))


def triangular_sweep(vectors: Sequence[Sequence[int]], point: Sequence[int]) -> tuple[int, ...]:
    """Box reduction over the integers on a lower-triangular basis.

    Vector i has zeros after coordinate i, so its Gram-Schmidt vector is
    ``v_i[i] e_i`` and the coefficient of a point against it is
    ``cur[i] / v_i[i]``. Sweeping from the last coordinate to the first,
    subtract ``k = cur[i] // v_i[i]`` copies of v_i; coordinates after i
    stay as they are. Returns the reduced point w, ``0 <= w[i] < v_i[i]``.
    """
    cur = list(point)
    for i in reversed(range(len(vectors))):
        v = vectors[i]
        k = cur[i] // v[i]
        if k:
            cur = [c - k * e for c, e in zip(cur, v)]
    return tuple(cur)


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


def gram_schmidt_box_reduce(vectors: Sequence[Sequence[int]], point: Sequence) -> tuple:
    """The box reduction w of ``point`` on any basis, the route the package
    ran before its integer sweep: ``gram_schmidt`` with its ``mu`` table,
    every squared norm again, and the point as ``Fraction`` entries.

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
    for i in reversed(range(d)):
        lam = dot(cur, gs.ortho[i]) / norms[i]
        k = math.floor(lam)
        if k:
            cur = [c - k * e for c, e in zip(cur, vecs[i])]
    return tuple(cur)
