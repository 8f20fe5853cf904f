"""Spans around the package's public stage functions, and what they add up to.

``traced_solve`` replays ``diobox.solve`` stage by stage through public
functions only, in the solver's order, recording one span per call. The
benchmark asserts that the replay returns the same status, witness and
report as ``solve`` on every instance, so the stage timings describe the
real pipeline. Spans live in memory until ``write_spans`` runs at the end.
"""

from __future__ import annotations

import json
import statistics
from fractions import Fraction
from time import perf_counter

from diobox import (
    IntMat,
    SolveOutcome,
    SolveStatus,
    basis_partition,
    box_reduce,
    deep_cone_condition,
    det_exact,
    gcd_max_minors,
    integer_solution_set,
    project_drop_m,
    solve_rational,
    special_basis,
)

SOLVE = "solver.solve"
STAGES = (
    "solver.basis_partition",
    "lattice.integer_solution_set",
    "lattice.project_drop_m",
    "lattice.special_basis",
    "lattice.box_reduce",
    "linalg.solve_rational",
    "linalg.gcd_max_minors",
    "cone.deep_cone_condition",
)


class Tracer:
    """Spans as tuples ``(name, start, end, parent index, instance id)``."""

    def __init__(self):
        self.spans: list = []
        self._open: list[int] = []

    def call(self, name: str, iid: str, fn, *args):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(None)
        self._open.append(idx)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans[idx] = (name, t0, perf_counter(), parent, iid)
            self._open.pop()


def bits(value) -> int:
    """Largest bit length of any integer (or Fraction part) inside a value."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return 0
    if isinstance(value, int):
        return abs(value).bit_length()
    if isinstance(value, Fraction):
        return max(abs(value.numerator).bit_length(), value.denominator.bit_length())
    if isinstance(value, (tuple, list, IntMat)):
        return max((bits(v) for v in value), default=0)
    if hasattr(value, "__dataclass_fields__"):
        return max((bits(getattr(value, f)) for f in value.__dataclass_fields__), default=0)
    raise TypeError(f"no bit length for {type(value).__name__}")


def _stages(tr: Tracer, iid: str, inst, out: dict) -> SolveOutcome:
    # mirrors diobox.solver.solve; ``out`` collects each stage's result
    a = inst.a
    m, n = a.rows, a.cols
    part = out["solver.basis_partition"] = tr.call("solver.basis_partition", iid, basis_partition, inst)
    rep = out["lattice.integer_solution_set"] = tr.call(
        "lattice.integer_solution_set", iid, integer_solution_set, a.select_cols(part.order), inst.b
    )
    if rep is None:
        return SolveOutcome(status=SolveStatus.INFEASIBLE)
    proj = out["lattice.project_drop_m"] = tr.call("lattice.project_drop_m", iid, project_drop_m, rep.kernel_basis, m)
    basis = out["lattice.special_basis"] = tr.call("lattice.special_basis", iid, special_basis, proj)
    red = out["lattice.box_reduce"] = tr.call(
        "lattice.box_reduce", iid, box_reduce, basis.vectors, rep.particular[m:]
    )
    w = tuple(int(f) for f in red.w)
    residual = tuple(bi - ni for bi, ni in zip(inst.b, part.n_mat.mul_vec(w)))
    u = out["linalg.solve_rational"] = tr.call("linalg.solve_rational", iid, solve_rational, part.b_mat, residual)
    x_perm = tuple(int(f) for f in u) + w
    x = [0] * n
    for pos, j in enumerate(part.order):
        x[j] = x_perm[pos]
    x = tuple(x)
    if all(e >= 0 for e in x):
        return SolveOutcome(status=SolveStatus.NONNEGATIVE, x=x)
    g = out["linalg.gcd_max_minors"] = tr.call("linalg.gcd_max_minors", iid, gcd_max_minors, a)
    report = out["cone.deep_cone_condition"] = tr.call(
        "cone.deep_cone_condition", iid, deep_cone_condition, part.b_mat, part.n_mat, g, inst.b
    )
    return SolveOutcome(status=SolveStatus.INTEGER_ONLY, x=x, report=report)


def traced_solve(tr: Tracer, iid: str, inst) -> tuple[SolveOutcome, dict]:
    """Run the stage replay under a root span; return the outcome and, per
    stage, the largest bit length it produced, plus ``det_bits`` of ``|det B|``.
    Bit lengths are taken after the root span closes, so they cost no span time."""
    out: dict = {}
    outcome = tr.call(SOLVE, iid, _stages, tr, iid, inst, out)
    sizes = {name: bits(value) for name, value in out.items()}
    sizes["det_bits"] = abs(det_exact(out["solver.basis_partition"].b_mat)).bit_length()
    return outcome, sizes


def layer_stats(spans: list) -> dict:
    """Per span name: call count, median duration and total self time (s).

    Self time is a span's duration minus the durations of its direct
    children; children of one span never overlap because the replay is
    sequential.
    """
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    per: dict[str, dict] = {}
    for idx, (name, t0, t1, _, _) in enumerate(spans):
        rec = per.setdefault(name, {"durations": [], "self": 0.0})
        rec["durations"].append(t1 - t0)
        rec["self"] += (t1 - t0) - child_time[idx]
    return {
        name: {
            "calls": len(rec["durations"]),
            "median_s": statistics.median(rec["durations"]),
            "self_s": rec["self"],
        }
        for name, rec in per.items()
    }


def write_spans(path: str, spans: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for name, t0, t1, parent, iid in spans:
            fh.write(json.dumps({"name": name, "start": t0, "end": t1, "parent": parent, "instance": iid}) + "\n")
