"""Exact integer linear algebra.

Everything here runs on Python's arbitrary-precision ``int``: one
fraction-free elimination behind determinants and the basis partition,
which finds a basis B of a wide matrix and gives ``adj(B)`` and
``adj(B) N`` in a single pass, and the one Hermite normal form,
``hnf_mod``, which keeps its entries reduced modulo a multiple of the
lattice determinant.
This module builds no ``fractions.Fraction`` (the rational solve
``solve_rational`` lives in ``diobox.reference``), and there is no floating
point and no tolerance in it; equality means equality.
The rule for an entry from outside data, an ``int`` and not a ``bool``, is
written once, in ``_int_tuple``: ``IntMat``, ``ProblemInstance``,
``partition``, ``box_reduce``, ``verify`` and the reference routines
``integer_solution_set``, ``solve_rational`` and ``deep_cone_condition``
read their integer arguments through it. Matrix entries are checked once, when an ``IntMat``
is built from outside data; ``identity`` and the matrices derived from one
(``select_cols``, ``transpose``, products) hold entries already known to be
ints and are not checked again.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Sequence
from itertools import chain

from .errors import (
    DimensionMismatchError,
    NotSquareError,
    require,
)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return ``(g, s, t)`` with ``g = gcd(a, b) >= 0`` and ``s*a + t*b = g``."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def dot(u: Sequence, v: Sequence):
    """Inner product of two equal-length integer vectors."""
    if len(u) != len(v):
        raise DimensionMismatchError(f"dot of lengths {len(u)} and {len(v)}")
    return sum(map(operator.mul, u, v))


def _int_tuple(entries: Iterable[int], name: str) -> tuple[int, ...]:
    """``entries`` as a tuple, each an ``int`` and not a ``bool``.

    One C-level pass accepts exact ints; anything else takes the entry
    loop, which lets the other ``int`` subclasses through and raises a
    ``TypeError`` for the first bad entry, named by ``name`` with its index
    put in for ``{}``.
    """
    entries = tuple(entries)
    if not set(map(type, entries)) <= {int}:
        for i, e in enumerate(entries):
            if not isinstance(e, int) or isinstance(e, bool):
                raise TypeError(f"{name.format(i)} is {type(e).__name__}, expected int")
    return entries


def _adj_mul(adj: Sequence[Sequence[int]], v: Sequence[int]) -> tuple[int, ...]:
    # adj(B) v: the one place a product of the adjugate with a vector is formed
    return tuple(dot(row, v) for row in adj)


class IntMat:
    """Immutable dense matrix of arbitrary-precision integers.

    Shape is fixed at construction and entries are stored as a tuple of row
    tuples, so instances are safe to share and to use as dict keys. ``rows``
    and ``cols`` are the dimensions; indexing yields row tuples. A matrix
    needs a row but may have no columns: that is the block N of a square A.
    Building one from outside data checks every entry once, in one pass
    when all are exact ``int``; ``bool`` is rejected, other ``int``
    subclasses are accepted. Matrices derived from an ``IntMat`` are not
    checked again.
    """

    __slots__ = ("_data", "rows", "cols")

    def __init__(self, rows: Iterable[Iterable[int]]):
        data = tuple(tuple(row) for row in rows)
        if not data:
            raise DimensionMismatchError("matrix needs at least one row")
        width = len(data[0])
        # one C-level pass accepts equal-length rows of exact ints; anything
        # else is read row by row, naming the first bad row or entry
        if len(set(map(len, data))) > 1 or not set(map(type, chain.from_iterable(data))) <= {int}:
            for i, row in enumerate(data):
                if len(row) != width:
                    raise DimensionMismatchError(
                        f"row {i} has length {len(row)}, expected {width}"
                    )
                _int_tuple(row, f"entry ({i},{{}})")
        self._data, self.rows, self.cols = data, len(data), width

    @classmethod
    def _of(cls, data: tuple[tuple[int, ...], ...]) -> "IntMat":
        # a matrix derived from checked ones: data is a tuple of equal-length
        # int tuples, so no entry is checked again; it still needs a row
        if not data:
            raise DimensionMismatchError("matrix needs at least one row")
        mat = object.__new__(cls)
        mat._data, mat.rows, mat.cols = data, len(data), len(data[0])
        return mat

    @classmethod
    def identity(cls, n: int) -> "IntMat":
        return cls._of(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return self._data[i]

    def __iter__(self):
        return iter(self._data)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMat) and self._data == other._data

    def __hash__(self) -> int:
        return hash(self._data)

    def __repr__(self) -> str:
        return f"IntMat({[list(r) for r in self._data]})"

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self._data)

    def transpose(self) -> "IntMat":
        return IntMat._of(tuple(zip(*self._data)))

    def select_cols(self, idx: Sequence[int]) -> "IntMat":
        idx = tuple(idx)  # every row indexes by it, so an iterator is read once
        return IntMat._of(tuple(tuple([row[j] for j in idx]) for row in self._data))

    def __matmul__(self, other: "IntMat") -> "IntMat":
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        # the columns as plain tuples: a right factor with no columns has no
        # transpose as an IntMat, yet its product is the m x 0 matrix
        cols = tuple(zip(*other._data))
        return IntMat._of(tuple(tuple([dot(r, c) for c in cols]) for r in self._data))

    def mul_vec(self, v: Sequence) -> tuple:
        if len(v) != self.cols:
            raise DimensionMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by vector of length {len(v)}"
            )
        return tuple(dot(row, v) for row in self._data)


def _eliminate(a: list[list[int]], width: int) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) forward elimination of ``a = [M | R]``, in place.

    Pivots come from the first ``width`` columns (M), left to right; R is
    carried along. Every entry stays an integer minor, so each division by
    the previous pivot is exact (Sylvester's identity), and the pivot of
    row k is a minor of order k + 1 on the pivot columns. Returns the pivot
    columns, the leftmost independent columns of M, and the sign of the
    row permutation.
    """
    rows, total = len(a), len(a[0])
    pivots: list[int] = []
    sign, prev = 1, 1
    for c in range(width):
        r = len(pivots)
        if r == rows:
            break
        if not a[r][c]:
            p = next((i for i in range(r + 1, rows) if a[i][c]), None)
            if p is None:
                continue
            a[r], a[p] = a[p], a[r]
            sign = -sign
        top = a[r]
        pv = top[c]
        for row in a[r + 1 :]:
            f, row[c] = row[c], 0
            for j in range(c + 1, total):
                row[j] = (row[j] * pv - f * top[j]) // prev
        prev = pv
        pivots.append(c)
    return pivots, sign


def det_exact(mat: IntMat) -> int:
    """Determinant by fraction-free (Bareiss) elimination.

    Raises:
        NotSquareError: if the matrix is not square.
    """
    if mat.rows != mat.cols:
        raise NotSquareError(f"determinant of a {mat.rows}x{mat.cols} matrix")
    # forward elimination alone: the last pivot is det up to the row swaps' sign
    a = [list(row) for row in mat]
    pivots, sign = _eliminate(a, mat.cols)
    return sign * a[-1][-1] if len(pivots) == mat.rows else 0


def _scaled_solve(mat: IntMat) -> tuple[tuple[int, ...], int, list[list[int]]]:
    # eliminate [mat | I], then back substitute over the pivot columns: with B
    # those columns and F the other columns of [mat | I], in order, return
    # them, det B and X = det B * B^-1 F, which is integral by Cramer's rule,
    # so each division is exact; det is 0 when mat has fewer than mat.rows
    # independent columns
    n, width = mat.rows, mat.cols
    a = [[*row, *[0] * i, 1, *[0] * (n - 1 - i)] for i, row in enumerate(mat)]
    pivots, sign = _eliminate(a, width)
    if len(pivots) < n:
        return tuple(pivots), 0, []
    det = sign * a[n - 1][pivots[-1]]
    free = [j for j in range(len(a[0])) if j not in pivots]
    x: list[list[int]] = [[]] * n
    for i in reversed(range(n)):
        row = a[i]
        acc = [det * row[j] for j in free]
        for j in range(i + 1, n):
            e = row[pivots[j]]
            if e:
                acc = [s - e * t for s, t in zip(acc, x[j])]
        x[i] = [s // row[pivots[i]] for s in acc]
    return tuple(pivots), det, x


def hnf_mod(
    gens: Sequence[Sequence[int]], width: int, mod: int
) -> tuple[tuple[int, ...], ...]:
    """Reduced lower-triangular basis of ``span(gens) + mod * Z^width``.

    Vector i of the result has a positive entry at coordinate i, zeros after
    it, and entries in ``[0, v_j[j])`` at every coordinate j < i; that basis
    is unique. Each pivot divides ``mod``, so every entry off the diagonal
    lies in ``[0, mod)``.

    The coordinates are taken from the last to the first. At coordinate c,
    ``mod * e_c`` joins the generators and extended gcds fold their entries
    at c into one pivot vector; the other generators, the remainder of
    ``mod * e_c`` among them, leave with a zero there. Since the lattice
    contains ``mod * Z^width``, every entry is kept reduced modulo ``mod``
    (Domich, Kannan and Trotter 1987; Cohen, Algorithm 2.4.8), so nothing
    grows past ``mod``. When the pivot already divides a generator's entry,
    that generator loses ``(entry / pivot)`` copies of the pivot vector and
    the pivot vector is kept: no extended gcd is run.

    Raises:
        ValueError: if ``mod`` is not positive.
        DimensionMismatchError: if a generator does not have ``width`` entries.
    """
    if mod < 1:
        raise ValueError(f"modulus must be a positive integer, got {mod}")
    rows = []
    for i, g in enumerate(gens):
        if len(g) != width:
            raise DimensionMismatchError(f"generator {i} has length {len(g)}, expected {width}")
        rows.append([e % mod for e in g])
    piv: list[list[int]] = [[]] * width
    for c in reversed(range(width)):
        # rows have length c + 1 here; p starts as mod * e_c
        p, a = [0] * c, mod
        rest = []
        for g in rows:
            b = g.pop()
            q, r = divmod(b, a)
            if r:
                h, s, t = xgcd(a, b)
                ah, bh = a // h, b // h
                # (p, g) <- (s p + t g, (a/h) g - (b/h) p): a unimodular step
                p, g = (
                    [(s * x + t * y) % mod for x, y in zip(p, g)],
                    [(ah * y - bh * x) % mod for x, y in zip(p, g)],
                )
                a = h
            elif q:
                # the pivot divides the entry: g <- g - q p clears it, p stays
                g = [(y - q * x) % mod for x, y in zip(p, g)]
            if any(g):
                rest.append(g)
        p.append(a)
        piv[c] = p
        rows = rest
    # bring each entry left of a pivot into [0, pivot): v_0..v_(i-1) span
    # every lattice vector with zeros from coordinate i on, mod * Z^i among
    # them; a vector that is zero left of its pivot (its only nonzero entry
    # is the pivot, so it holds i zeros) is already in the box
    for i, v in enumerate(piv):
        if v.count(0) < i:
            v[:i] = _box_sweep(piv, v[:i], mod)
    return tuple(tuple(v) + (0,) * (width - 1 - i) for i, v in enumerate(piv))


def _box_sweep(vecs: Sequence[Sequence[int]], cur: Sequence[int], mod: int) -> list[int]:
    """The representative of ``cur`` in the box ``0 <= w_i < vecs[i][i]``.

    ``vecs`` opens with a lower-triangular basis, positive diagonal, of a
    lattice that contains ``mod * Z^d``, d = ``len(cur)``. Last coordinate
    first, the floor quotient q by the pivot leaves the remainder as
    ``w_i`` and takes q copies of ``vecs[i]`` off the coordinates before i,
    modulo ``mod``; so the result depends only on the coset of ``cur``.
    """
    cur = list(cur)
    for i in reversed(range(len(cur))):
        v = vecs[i]
        q, cur[i] = divmod(cur[i], v[i])
        if q:
            cur[:i] = [(x - q * y) % mod for x, y in zip(cur[:i], v)]
    return cur


def kernel_echelon(
    det: int, adj_n: Sequence[Sequence[int]]
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The kernel lattice of ``(B | N)`` modulo ``D = |det B|``, and the gcd.

    ``adj_n = adj(B) N``, the m x k block that the basis partition's one
    elimination gives beside ``det B``; N has k columns, possibly none.
    Since ``B^-1 = adj(B) / det``, an integer z extends to an integer kernel
    vector exactly when ``adj_n z = 0 (mod D)``. Returns the ``hnf_mod``
    basis of the lattice ``{(z ; t) in Z^(k+m) : t = adj_n z (mod D)}``, z
    first, built from the generators ``(e_j ; adj_n[:, j])``, and the gcd of
    the maximal minors of ``(B | N)``. The first k basis vectors have t = 0:
    cut to their z part, they are the reduced triangular basis of the
    projected kernel lattice ``L' = {z : adj_n z = 0 (mod D)}``. The index of
    L' in ``Z^k`` is ``D / gcd``, so the gcd is D over the product of their
    diagonal entries. The last m vectors decide the congruences
    ``adj_n z = r (mod D)``.
    """
    d, k = abs(det), len(adj_n[0])
    gens = [[*[0] * j, 1, *[0] * (k - 1 - j), *col] for j, col in enumerate(zip(*adj_n))]
    ech = hnf_mod(gens, k + len(adj_n), d)
    lat_det = math.prod(ech[i][i] for i in range(k))
    gcd = d // lat_det
    require(lat_det * gcd == d, "kernel lattice determinant does not divide |det B|", (det, adj_n))
    return ech, gcd
