"""Simplicial cone membership and depth conditions, all radical-free.

For a nonsingular integer matrix B the cone C_B is the set of nonnegative
real combinations of its columns. Membership and "distance at least t from
every facet" are decided exactly by comparing squares of integers built
from the adjugate of B, so no square root is ever taken on the decision
path. A report holds each squared quantity as a ``(numerator,
denominator)`` pair of ints in lowest terms, with a positive denominator,
and decides a facet by cross-multiplying two such pairs; the command line
prints a pair as ``n/d``, or ``n`` when d = 1. There is no float in this
module: the approximate diagnostics that ``check`` and ``bounds`` print
live in ``diobox.commands``, and ``deep_cone_condition``, the report from
the blocks B and N, in ``diobox.reference``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence

from .errors import WrongRowCountError, require
from .linalg import IntMat, dot


class FacetCheck(namedtuple("FacetCheck", "facet lhs_squared rhs_squared lhs_nonnegative")):
    """Squared margin comparison for one facet of a simplicial cone.

    The facet passes when the point is on the inner side (lhs_nonnegative)
    and its squared distance to the facet hyperplane is at least the squared
    threshold, i.e. lhs_squared >= rhs_squared. Both squares are
    ``(numerator, denominator)`` pairs of ints in lowest terms with a
    positive denominator.
    """

    __slots__ = ()

    @property
    def satisfied(self) -> bool:
        (ln, ld), (rn, rd) = self.lhs_squared, self.rhs_squared
        return self.lhs_nonnegative and ln * rd >= rn * ld


class ConditionReport(namedtuple("ConditionReport", "holds threshold_squared facets")):
    """Whether every facet passes, the squared depth threshold as a
    ``(numerator, denominator)`` pair in lowest terms, and the facets."""

    __slots__ = ()


def _ratio(num: int, den: int) -> tuple[int, int]:
    # num / den in lowest terms, for den > 0
    g = math.gcd(num, den)
    return num // g, den // g


def max_col_norm_squared(mat: IntMat) -> int:
    """Largest squared Euclidean column norm; 0 for a matrix with no columns."""
    return max((sum(e * e for e in mat.col(j)) for j in range(mat.cols)), default=0)


def cone_coords(det: int, adj_point: Sequence[int]) -> tuple[int, ...]:
    """``|det B| * B^-1 point`` from ``det = det B`` and ``adj(B) point``.

    The sign of ``det`` is folded in, so coordinate i is nonnegative exactly
    when ``point`` is on the inner side of facet i of C_B.
    """
    return tuple(adj_point) if det > 0 else tuple(-c for c in adj_point)


def _deep_thresholds(det: int, adj, n_mat: IntMat, gcd_a: int) -> tuple[int, list[int]]:
    # (g t)^2 = l_N^2 (D - g)^2, and per facet the (g t)^2 ||adj_i||^2 that g^2 p_i^2 must reach
    scale = max_col_norm_squared(n_mat) * (abs(det) - gcd_a) ** 2
    return scale, [scale * dot(row, row) for row in adj]


def deep_cone_report(
    det: int, adj: Sequence[Sequence[int]], n_mat: IntMat, gcd_a: int, adj_b: Sequence[int]
) -> ConditionReport:
    """``deep_cone_condition`` from ``det B``, ``adj = adj(B)`` and ``adj_b = adj b``.

    With B^-1 = adj / det, g = gcd_a and D = |det|, facet i holds iff
    ``p_i >= 0`` and ``g^2 p_i^2 >= l_N^2 (D - g)^2 ||adj_i||^2`` for
    ``p = D B^-1 b``: a comparison of integers.
    """
    scale, norms = _deep_thresholds(det, adj, n_mat, gcd_a)
    den, threshold = (gcd_a * det) ** 2, _ratio(scale, gcd_a * gcd_a)
    return _facet_report(cone_coords(det, adj_b), abs(det), norms, den, threshold)


def shifted_cone_report(
    det: int, adj_n: Sequence[Sequence[int]], b_mat: IntMat, n_mat: IntMat, adj_b: Sequence[int]
) -> ConditionReport | None:
    """Two-row test on ``adj_n = adj(B) N`` and ``adj_b = adj(B) b``: is b in s*v + C_B?

    Only defined when the cone of all columns equals C_B, that is when no
    entry of ``adj_n`` has the sign opposite to ``det``; None otherwise. Here
    v = B*1 + N*1 is the sum of all columns of A = (B | N) and
    ``s = l_B * l_N * (|det B| - 1) / |det B|``. Membership of ``b - s*v``
    in C_B is decided facet by facet on squares: with c = (|det B|-1)/|det B|
    * (B^-1 v), facet i requires ``(B^-1 b)_i >= l_B*l_N*c_i``, compared as
    ``lhs >= 0`` and ``lhs^2 >= l_B^2*l_N^2*c_i^2`` (c_i >= 0 once the cone
    equality holds). With D = |det B|, ``p = D B^-1 b`` and
    ``q_i = (D B^-1 v)_i = D + sign(det) sum_j adj_n[i][j]`` that is
    ``D^2 p_i^2 >= l_B^2 l_N^2 (D - 1)^2 q_i^2``.

    Raises:
        WrongRowCountError: if the system does not have exactly two rows.
    """
    if b_mat.rows != 2:
        raise WrongRowCountError(f"shifted-cone test needs 2 rows, got {b_mat.rows}")
    if any(c < 0 for row in adj_n for c in cone_coords(det, row)):
        return None
    d = abs(det)
    q = tuple(d + c for c in cone_coords(det, tuple(map(sum, adj_n))))
    require(all(c >= 0 for c in q), "shifted cone: the column sum left C_B", (det, adj_n))
    scale = max_col_norm_squared(b_mat) * max_col_norm_squared(n_mat) * (d - 1) ** 2
    norms = [scale * c * c for c in q]
    return _facet_report(cone_coords(det, adj_b), d, norms, d**4, _ratio(scale, d * d))


def _facet_report(coords, d: int, nums, den: int, threshold: tuple[int, int]) -> ConditionReport:
    # facet i holds iff coords[i] / d >= 0 and (coords[i] / d)^2 >= nums[i] / den
    d_sq = d * d
    facets = tuple(
        FacetCheck(i, _ratio(p * p, d_sq), _ratio(r, den), p >= 0)
        for i, (p, r) in enumerate(zip(coords, nums))
    )
    return ConditionReport(all(f.satisfied for f in facets), threshold, facets)
