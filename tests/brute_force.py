"""Brute-force enumeration of nonnegative solutions, with honest verdicts.

The search is depth-first over x_1, x_2, ... with per-variable upper bounds.
When every entry of A is nonnegative and every column has at least one
positive entry, residuals bound each variable exactly, so a failed search is
a proof of infeasibility; in every other situation a "none found" answer is
explicitly marked inconclusive. This module exists to cross-check the real
solver, never to replace it; only the tests import it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from diobox.errors import DimensionMismatchError
from diobox.linalg import IntMat


@dataclass(frozen=True)
class EnumerationBudget:
    per_variable: int = 10_000
    max_nodes: int = 500_000


@dataclass(frozen=True)
class BruteForceResult:
    """``status`` is one of "found", "none_within_bounds", "exhausted".
    ``conclusive`` is True only when the verdict is a proof: a witness, or a
    complete search of a provably sufficient range."""

    status: str
    x: tuple[int, ...] | None
    conclusive: bool


class _NodeCap(Exception):
    pass


class _Stop(Exception):
    pass


def _column_complete(a_mat: IntMat) -> bool:
    # Nonnegative matrix with a positive entry in every column: residuals
    # then cap every variable, making exhaustive search finite and complete.
    if any(e < 0 for row in a_mat for e in row):
        return False
    return all(any(a_mat[i][j] > 0 for i in range(a_mat.rows)) for j in range(a_mat.cols))


def brute_force_solve(
    a_mat: IntMat, b: Sequence[int], budget: EnumerationBudget = EnumerationBudget()
) -> BruteForceResult:
    """Search for one nonnegative integer solution of ``a_mat @ x = b``.

    Raises:
        DimensionMismatchError: if ``b`` has the wrong length.
    """
    hits = _search(a_mat, b, budget, want_all=False)
    if hits is None:
        return BruteForceResult(status="exhausted", x=None, conclusive=False)
    found, complete = hits
    if found:
        return BruteForceResult(status="found", x=found[0], conclusive=True)
    return BruteForceResult(status="none_within_bounds", x=None, conclusive=complete)


def brute_force_all(
    a_mat: IntMat, b: Sequence[int], budget: EnumerationBudget = EnumerationBudget()
) -> tuple[tuple[tuple[int, ...], ...], bool]:
    """All nonnegative solutions within bounds, plus a completeness flag."""
    hits = _search(a_mat, b, budget, want_all=True)
    if hits is None:
        return (), False
    found, complete = hits
    return tuple(found), complete


def _search(a_mat, b, budget, want_all):
    m, n = a_mat.rows, a_mat.cols
    if len(b) != m:
        raise DimensionMismatchError(f"b has length {len(b)}, expected {m}")
    exact_bounds = _column_complete(a_mat)
    clipped = False
    nodes = 0
    found: list[tuple[int, ...]] = []
    cols = [a_mat.col(j) for j in range(n)]
    stack: list[int] = []

    def bound(j: int, residual: tuple[int, ...]) -> int:
        nonlocal clipped
        if not exact_bounds:
            return budget.per_variable
        best = min(
            residual[i] // cols[j][i] for i in range(m) if cols[j][i] > 0
        )
        if best > budget.per_variable:
            clipped = True
            return budget.per_variable
        return best

    def rec(j: int, residual: tuple[int, ...]) -> None:
        nonlocal nodes
        if j == n:
            if not any(residual):
                found.append(tuple(stack))
                if not want_all:
                    raise _Stop
            return
        if exact_bounds and any(r < 0 for r in residual):
            return
        for v in range(bound(j, residual) + 1):
            nodes += 1
            if nodes > budget.max_nodes:
                raise _NodeCap
            stack.append(v)
            rec(j + 1, tuple(r - v * c for r, c in zip(residual, cols[j])))
            stack.pop()

    try:
        rec(0, tuple(b))
    except _Stop:
        pass
    except _NodeCap:
        return None
    return found, exact_bounds and not clipped
