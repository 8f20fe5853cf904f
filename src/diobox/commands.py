"""The commands other than ``solve``: ``check``, ``bounds``, ``verify``,
``frobenius`` and ``gen``, and the float diagnostics only they print.

``cli.main`` runs ``solve`` itself and imports this module only for the
other commands, so a ``diobox solve`` process never compiles or loads it.
The diagnostics are explicitly approximate: floats that describe how deep
the guaranteed region sits, never read on any decision path.
"""

from __future__ import annotations

import math
import sys

from . import io as iomod
from .cli import _condition_sections, _emit, _ratio_str, _shifted_section, _unlimited_digits
from .cone import max_col_norm_squared
from .errors import CapExceededError, DioboxError, RankDeficientError
from .linalg import IntMat, det_exact
from .solver import conditions, verify


def approx_sqrt(num: int, den: int = 1) -> float | None:
    """``sqrt(num / den)`` as a float, or None when it exceeds the largest
    double; ``num >= 0`` and ``den > 0`` are integers of any size.

    The root is taken before the value has to fit a double: a quotient above
    2^1000 is divided by a power of 4, ``4^k``, and ``ldexp`` multiplies its
    root by ``2^k``. Below that it is ``math.sqrt(num / den)`` itself.
    """
    k = max(0, num.bit_length() - den.bit_length() - 1000) // 2
    try:
        return math.ldexp(math.sqrt(num / (den << 2 * k)), k)
    except OverflowError:
        return None


def aliev_henk_p(m: int, n: int) -> float:
    """Dimension factor sqrt((n - m) * n / 2) used by the diagnostic bound."""
    return math.sqrt((n - m) * n / 2)


def aliev_henk_t_bound(a_mat: IntMat) -> float | None:
    """Approximate upper bound 2^((n-m)/2 - 1) * p(m, n) * sqrt(det(A A^T)).

    Purely diagnostic: a float estimate of how deep the guaranteed region
    sits, never used on any decision path. None when the bound exceeds the
    largest double.

    Raises:
        RankDeficientError: if the rows are linearly dependent.
    """
    m, n = a_mat.rows, a_mat.cols
    gram = det_exact(a_mat @ a_mat.transpose())
    if gram <= 0:
        raise RankDeficientError("rows are linearly dependent")
    root = approx_sqrt(gram)
    if root is None:
        return None
    try:
        value = 2.0 ** ((n - m) / 2 - 1) * aliev_henk_p(m, n) * root
    except OverflowError:  # 2^((n-m)/2 - 1) alone is beyond a double
        return None
    return value if math.isfinite(value) else None


def cmd_check(args) -> int:
    inst = iomod.load_instance(args.instance)
    cond = conditions(inst)
    with _unlimited_digits():
        obj = _condition_sections(inst, cond)
        obj["projection_bound"] = {"approx": True, "value": aliev_henk_t_bound(inst.a)}
        _emit(iomod.dumps_canonical(obj), args.output)
    return 0


def cmd_gen(args) -> int:
    from .gen import generate_instance  # only ``gen`` loads the generator

    inst = generate_instance(
        m=args.m, n=args.n, seed=args.seed, mode=args.mode, max_entry=args.max_entry
    )
    with _unlimited_digits():
        _emit(iomod.dumps_canonical(iomod.instance_to_obj(inst)), args.output)
    return 0


def cmd_frobenius(args) -> int:
    from .frobenius import brauer_G, f_chain, frobenius_number_dp  # as for a one-row solve

    entries = tuple(args.entries)
    chain = f_chain(entries)
    with _unlimited_digits():
        obj = {
            "entries": [str(e) for e in entries],
            "f_chain": [str(e) for e in chain],
            "G": str(brauer_G(entries)),
        }
        try:
            obj["F"] = str(frobenius_number_dp(entries, cap=args.cap))
        except CapExceededError:
            obj["F"] = None
            obj["note"] = f"smallest entry exceeds cap {args.cap}"
        _emit(iomod.dumps_canonical(obj), args.output)
    return 0


def cmd_verify(args) -> int:
    inst = iomod.load_instance(args.instance)
    if args.solution is not None and args.x:
        raise DioboxError("give either positional entries or --solution, not both")
    if args.solution is not None:
        x = iomod.load_result_x(args.solution)
        if x is None:  # nothing to verify: {"ok": false}, and the note
            print("result file carries no witness vector", file=sys.stderr)
    elif args.x:
        x = tuple(iomod.parse_int(e, f"argument entry {i}") for i, e in enumerate(args.x))
    else:
        raise DioboxError("no candidate solution given")
    ok = x is not None and verify(inst.a, inst.b, x)
    _emit(iomod.dumps_canonical({"ok": ok}), args.output)
    return 0 if ok else 1


def cmd_bounds(args) -> int:
    inst = iomod.load_instance(args.instance)
    cond = conditions(inst)
    part = cond.partition
    t_sq = cond.report.threshold_squared
    with _unlimited_digits():
        obj = {
            "basis_cols": [c + 1 for c in part.basis_cols],
            "det_b": str(part.det),
            "gcd": str(cond.gcd),
            "lattice_determinant": str(abs(part.det) // cond.gcd),
            "l_b_squared": str(max_col_norm_squared(part.b_mat)),
            "l_n_squared": str(max_col_norm_squared(part.n_mat)),
            "deep_threshold_squared": _ratio_str(t_sq),
            "deep_threshold": {"approx": True, "value": approx_sqrt(*t_sq)},
            "projection_bound": {"approx": True, "value": aliev_henk_t_bound(inst.a)},
            "p_factor": {"approx": True, "value": aliev_henk_p(inst.a.rows, inst.a.cols)},
            "hermite_constant_threshold": "not evaluated",
        }
        if inst.a.rows == 2:
            shifted = _shifted_section(cond)
            if shifted["applicable"]:
                obj["shift_squared"] = shifted["shift_squared"]
        _emit(iomod.dumps_canonical(obj), args.output)
    return 0
