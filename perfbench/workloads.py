"""Seeded inputs for every workload, and the truths each input guarantees.

An input stream is a sequence of groups. A group is one matrix and the
right-hand sides solved against it; knapsack groups also carry the one-row
vector whose Brauer bound and Frobenius number the workload computes before
solving. Group ``k`` of a workload is a pure function of ``(workload, seed,
k)``, so two commits given one seed see the same inputs in the same order.

Expectations come from the harness, never from the program under test:
``nonnegative`` means a nonnegative solution must be returned (one-row
``b > G``), ``integer_only`` means an integer solution exists
but no nonnegative one does (one-row ``b`` that the harness's own table marks
unrepresentable), ``feasible`` means ``b = A x`` was built from an integer
``x``, and ``infeasible`` means the input was built to have no integer
solution.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

from diobox import IntMat, ProblemInstance, det_exact

NONNEG = "nonnegative"
INT_ONLY = "integer_only"
FEASIBLE = "feasible"
INFEASIBLE = "infeasible"

_X_RANGE = 5  # b = A x with x drawn from [0, _X_RANGE]^n, as the package's generator does


@dataclass
class Case:
    key: str
    inst: ProblemInstance
    expect: str


@dataclass
class Group:
    key: str
    cases: list[Case]
    row: tuple[int, ...] | None = None  # knapsack vector: G and F are computed in the timed phase
    g_ref: int | None = None
    f_ref: int | None = None


def _rng(workload: str, seed: int, k: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{k}")


def _matvec(rows, x):
    return tuple(sum(a * b for a, b in zip(row, x)) for row in rows)


def _nonsingular(rng: random.Random, m: int, n: int, entry: int, step: int = 1) -> IntMat:
    # leading m x m block nonsingular, like the package's generator; the
    # solver's leftmost basis choice then lands on that block
    while True:
        a = IntMat(
            [[step * rng.randint(-entry, entry) for _ in range(n)] for _ in range(m)]
        )
        if det_exact(a.select_cols(range(m))) != 0:
            return a


def _feasible_rhs(rng: random.Random, a: IntMat) -> tuple[int, ...]:
    x = [rng.randint(0, _X_RANGE) for _ in range(a.cols)]
    return _matvec(a, x)


def _coprime_row(rng: random.Random, n: int) -> tuple[int, ...]:
    while True:
        row = tuple(rng.randint(2, 60) for _ in range(n))
        if math.gcd(*row) == 1:
            return row


def brauer_bound(row) -> int:
    """Brauer's bound G from the running gcds, computed independently of the package."""
    f = [row[0]]
    for e in row[1:]:
        f.append(math.gcd(f[-1], e))
    return sum(row[i] * (f[i - 1] // f[i]) for i in range(1, len(row))) - sum(row)


def representable(row, top: int) -> bytearray:
    """reach[v] == 1 iff v in [0, top] is a nonnegative combination of row."""
    reach = bytearray(top + 1)
    reach[0] = 1
    for v in range(1, top + 1):
        for e in row:
            if e <= v and reach[v - e]:
                reach[v] = 1
                break
    return reach


def _one_row_expect(b: int, g: int, reach: bytearray) -> str:
    if b > g:
        return NONNEG
    if b < 0 or not reach[b]:
        return INT_ONLY
    return FEASIBLE


def _knapsack_row(rng, n):
    row = _coprime_row(rng, n)
    g = brauer_bound(row)
    reach = representable(row, max(g, 0) + 100)
    f = max((v for v in range(len(reach)) if not reach[v]), default=-1)
    return row, g, f, reach


def knapsack_group(seed: int, k: int) -> Group:
    rng = _rng("knapsack_rhs_sweep", seed, k)
    row, g, f, reach = _knapsack_row(rng, 3 + k % 4)
    a = IntMat([row])
    cases = [
        Case(f"k{k}/b{b}", ProblemInstance(a=a, b=(b,)), _one_row_expect(b, g, reach))
        for b in range(g - 100, g + 101)
    ]
    return Group(f"k{k}", cases, row=row, g_ref=g, f_ref=f)


def hnf_group(seed: int, k: int) -> Group:
    rng = _rng("hnf_growth", seed, k)
    m = (10, 11, 12)[k % 3]
    if k % 6 == 5:
        # every entry of A even and b[0] odd: A x is even for every integer x
        a = _nonsingular(rng, m, 2 * m, 500, step=2)
        b = list(_feasible_rhs(rng, a))
        b[0] += 1
        return Group(f"h{k}", [Case(f"h{k}/m{m}/infeasible", ProblemInstance(a=a, b=tuple(b)), INFEASIBLE)])
    a = _nonsingular(rng, m, 2 * m, 1000)
    return Group(f"h{k}", [Case(f"h{k}/m{m}", ProblemInstance(a=a, b=_feasible_rhs(rng, a)), FEASIBLE)])


def check_outcome(case: Case, outcome) -> str | None:
    """Why an outcome is wrong for its case, or None when it is right.

    The witness is checked exactly against ``A x = b`` with the harness's
    own arithmetic, and the status against what the input guarantees.
    """
    status = outcome.status.value
    inst = case.inst
    if status == INFEASIBLE:
        if outcome.x is not None:
            return "infeasible outcome carries a witness"
    else:
        x = outcome.x
        if x is None or len(x) != inst.a.cols:
            return f"{status} outcome without a full witness"
        if _matvec(inst.a, x) != tuple(inst.b):
            return "witness does not satisfy A x = b"
        negative = any(e < 0 for e in x)
        if status == NONNEG and negative:
            return "nonnegative outcome with a negative entry"
        if status == INT_ONLY and (not negative or outcome.report is None or outcome.report.holds):
            return "integer_only outcome is inconsistent with its witness or report"
    if case.expect == FEASIBLE:
        ok = status != INFEASIBLE
    else:
        ok = status == case.expect
    return None if ok else f"status {status}, input guarantees {case.expect}"


def instance_text(inst: ProblemInstance) -> str:
    """Instance file in the documented format, written by the harness itself."""
    obj = {
        "m": inst.a.rows,
        "n": inst.a.cols,
        "A": [[str(e) for e in row] for row in inst.a],
        "b": [str(e) for e in inst.b],
    }
    return json.dumps(obj, indent=2) + "\n"


def malformed_texts(seed: int, count: int) -> list[str]:
    """Truncated instance files: the CLI must reject them with exit 3."""
    out = []
    for k in range(count):
        text = instance_text(knapsack_group(seed, 1000 + k).cases[0].inst)
        out.append(text[: len(text) // 2])
    return out


def overlimit_text(seed: int) -> str:
    """An instance with one entry longer than Python's 4300-digit int limit."""
    rng = _rng("overlimit", seed, 0)
    digits = str(rng.randint(1, 9)) + "".join(rng.choice("0123456789") for _ in range(4400))
    return json.dumps({"m": 1, "n": 2, "A": [[digits, "3"]], "b": ["5"]}) + "\n"
