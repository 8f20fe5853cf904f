"""End-to-end solver for nonnegative integer solutions of A x = b.

Pipeline: pick a nonsingular column block B, whose one elimination gives
``det B``, ``adj(B)`` and ``adj(B) N``, form ``adj(B) b`` once, and decide
integer feasibility modulo D = |det B| from those two products: the same
reduction yields the triangular basis of the projected kernel lattice, the
point of the projected solution coset in the box of that basis and the gcd
of the maximal minors. Lift that point back from the same products. The lifted point is always an integer solution;
when it is nonnegative the instance is solved, otherwise it is classified
integer-feasible only, together with an exact report on ``adj(B) b``
saying whether the right-hand side was inside the guaranteed region (in
which case nonnegativity could not have been missed).
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from enum import Enum

from .cone import deep_cone_report
from .errors import DimensionMismatchError, require
from .lattice import BasisPartition, kernel_coset, lift, partition
from .linalg import IntMat, _adj_mul, _int_tuple, kernel_echelon


class ProblemInstance(namedtuple("ProblemInstance", "a b basis_cols", defaults=(None,))):
    """System ``a @ x = b`` with optional explicit basis column choice.

    ``basis_cols`` is 0-based here; instance files store it 1-based. ``b``
    and ``basis_cols`` are stored as tuples. Like an ``IntMat`` entry, an
    entry of ``b`` or of ``basis_cols`` must be an ``int`` and not a ``bool``.
    """

    __slots__ = ()

    def __new__(cls, a: IntMat, b: Sequence[int], basis_cols: Sequence[int] | None = None):
        if not isinstance(a, IntMat):
            raise TypeError(f"a is {type(a).__name__}, expected IntMat")
        b = _int_tuple(b, "b entry {}")
        if basis_cols is not None:
            basis_cols = _int_tuple(basis_cols, "basis_cols entry {}")
        if len(b) != a.rows:
            raise DimensionMismatchError(f"b has length {len(b)}, expected {a.rows}")
        if a.rows >= a.cols:
            raise DimensionMismatchError(
                f"need strictly more columns than rows, got {a.rows}x{a.cols}"
            )
        return super().__new__(cls, a, b, basis_cols)

    @classmethod
    def _make(cls, iterable):
        # ``_replace`` builds through ``_make``, so it gets the checks too
        return cls(*iterable)


# the kinds of instance ``gen.generate_instance`` draws, kept beside the
# record it builds so that the command line's parser need not load ``gen``
GEN_MODES = ("feasible", "deep", "boundary")


class SolveStatus(str, Enum):
    NONNEGATIVE = "nonnegative"
    INTEGER_ONLY = "integer_only"
    INFEASIBLE = "infeasible"


class SolveOutcome(namedtuple("SolveOutcome", "status x report", defaults=(None, None))):
    """Classification plus witness. ``x`` is a solution for the first two
    statuses (nonnegative in the first case); ``report`` carries the deep-cone
    margins when the status is INTEGER_ONLY."""

    __slots__ = ()


class Conditions(namedtuple("Conditions", "partition gcd report adj_b")):
    """What the command line reports beside an outcome: the basis partition,
    the gcd of the maximal minors of A, the deep-cone report for b and adj(B) b."""

    __slots__ = ()


def basis_partition(inst: ProblemInstance) -> BasisPartition:
    """``lattice.partition`` of an instance, honoring an explicit choice.

    Raises:
        SingularError: if explicitly chosen columns are singular.
        RankDeficientError: if no nonsingular choice exists.
    """
    return partition(inst.a, inst.basis_cols)


def _solve(inst: ProblemInstance) -> tuple[SolveOutcome, BasisPartition, int, tuple[int, ...]]:
    # solve(), plus the partition, adj(B) b and the gcd of the maximal minors
    # of A, which the modular reduction gives for infeasible instances as well
    part = basis_partition(inst)
    a = inst.a
    adj_b = _adj_mul(part.adj, inst.b)
    coset = kernel_coset(part.det, part.adj_n, adj_b)
    gcd = coset.gcd
    if coset.point is None:
        return SolveOutcome(status=SolveStatus.INFEASIBLE), part, gcd, adj_b
    w = coset.point
    require(all(type(e) is int for e in w), "box-reduced point is not integral", inst)
    require(all(e >= 0 for e in w), "box-reduced point has a negative entry", inst)
    box = math.prod(1 + e for e in w)
    require(box <= abs(part.det) // gcd, "box-reduced point outside the box", inst)
    x = lift(part, adj_b, w)
    require(a.mul_vec(x) == inst.b, "witness fails A x = b", inst)
    if all(e >= 0 for e in x):
        return SolveOutcome(status=SolveStatus.NONNEGATIVE, x=x), part, gcd, adj_b
    report = deep_cone_report(part.det, part.adj, part.n_mat, gcd, adj_b)
    require(not report.holds, "deep-cone test holds for a witness not nonnegative", inst)
    return SolveOutcome(status=SolveStatus.INTEGER_ONLY, x=x, report=report), part, gcd, adj_b


def solve(inst: ProblemInstance) -> SolveOutcome:
    """Classify an instance and produce a witness solution when one exists.

    Steps: with D = |det B|, solve ``adj(B) N z = adj(B) b (mod D)`` by
    ``kernel_coset``, which also gives the triangular basis of the projected
    kernel lattice and every entry of which stays below D; no solution means
    infeasible. Its coset point, in the box of that basis, is the free part
    w >= 0; lift u = adj(B) (b - N w) / det B (always integral by
    construction) and undo the column permutation. If u >= 0 the witness is
    a nonnegative solution; otherwise the instance is integer-feasible only
    and the deep-cone report for b is attached.

    Raises:
        InternalError: if a guarantee of the pipeline fails, among them a
            witness that does not satisfy ``A x = b`` and a deep-cone report
            that holds while the witness is not nonnegative.
    """
    return _solve(inst)[0]


def solve_with_conditions(inst: ProblemInstance) -> tuple[SolveOutcome, Conditions]:
    """``solve`` plus its ``Conditions``, each quantity computed once."""
    outcome, part, gcd, adj_b = _solve(inst)
    report = outcome.report or deep_cone_report(part.det, part.adj, part.n_mat, gcd, adj_b)
    return outcome, Conditions(part, gcd, report, adj_b)


def conditions(inst: ProblemInstance) -> Conditions:
    """The ``Conditions`` of an instance, without solving it."""
    part = basis_partition(inst)
    gcd = kernel_echelon(part.det, part.adj_n)[1]
    adj_b = _adj_mul(part.adj, inst.b)
    report = deep_cone_report(part.det, part.adj, part.n_mat, gcd, adj_b)
    return Conditions(part, gcd, report, adj_b)


def verify(a_mat: IntMat, b: Sequence[int], x: Sequence[int]) -> bool:
    """Whether x is a nonnegative integer solution of ``a_mat @ x = b``.

    Raises:
        TypeError: if an entry of b or x is not an ``int`` or is a ``bool``.
        DimensionMismatchError: if shapes are inconsistent.
    """
    b, x = _int_tuple(b, "b entry {}"), _int_tuple(x, "x entry {}")
    if len(b) != a_mat.rows:
        raise DimensionMismatchError(f"b has length {len(b)}, expected {a_mat.rows}")
    if len(x) != a_mat.cols:
        raise DimensionMismatchError(f"x has length {len(x)}, expected {a_mat.cols}")
    return all(e >= 0 for e in x) and a_mat.mul_vec(x) == b
