"""Command line interface.

Exit codes: 0 solved with a nonnegative witness (or the command simply
succeeded), 1 integer-feasible only, 2 integer infeasible, 3 input error,
4 internal error.
All file input and output is UTF-8 JSON with numeric entries as decimal
strings; see the io module for the exact shape.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
import time

from . import io as iomod
from .cone import (
    ConditionReport,
    aliev_henk_p,
    aliev_henk_t_bound,
    approx_sqrt,
    max_col_norm_squared,
    shifted_cone_report,
)
from .errors import CapExceededError, DioboxError, InternalError
from .frobenius import brauer_G, f_chain, frobenius_number_dp
from .gen import MODES, generate_instance
from .lattice import BasisPartition
from .solver import (
    Conditions,
    ProblemInstance,
    SolveStatus,
    conditions,
    solve_with_conditions,
    verify,
)

_EXIT = {
    SolveStatus.NONNEGATIVE: 0,
    SolveStatus.INTEGER_ONLY: 1,
    SolveStatus.INFEASIBLE: 2,
}


class _Parser(argparse.ArgumentParser):
    # bad command lines are input errors: exit 3, not argparse's default 2,
    # which is reserved for "integer infeasible"
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(3)


def _report_obj(rep: ConditionReport) -> dict:
    return {
        "holds": rep.holds,
        "t_squared": str(rep.threshold_squared),
        "per_facet": [
            {
                "facet": f.facet + 1,
                "lhs_squared": str(f.lhs_squared),
                "rhs_squared": str(f.rhs_squared),
                "lhs_nonnegative": f.lhs_nonnegative,
                "ok": f.satisfied,
            }
            for f in rep.facets
        ],
    }


def _frobenius_section(inst: ProblemInstance) -> dict:
    row = inst.a.row(0)
    if all(e > 0 for e in row) and math.gcd(*row) == 1:
        g = brauer_G(row)
        return {"G": str(g), "applies": inst.b[0] > g}
    return {"G": None, "applies": False}


def _shifted_section(part: BasisPartition, rhs) -> dict:
    rep = shifted_cone_report(part.det, part.adj, part.b_mat, part.n_mat, rhs)
    if rep is None:
        return {"applicable": False, "holds": None}
    return {
        "applicable": True,
        "holds": rep.holds,
        "shift_squared": str(rep.threshold_squared),
    }


def _condition_sections(inst: ProblemInstance, cond: Conditions) -> dict:
    out = {"deep_cone": _report_obj(cond.report)}
    if inst.a.rows == 1:
        out["frobenius"] = _frobenius_section(inst)
    if inst.a.rows == 2:
        out["shifted_cone"] = _shifted_section(cond.partition, inst.b)
    return out


def _result_obj(inst, outcome, cond, elapsed) -> dict:
    obj = {
        "status": outcome.status.value,
        "x": None if outcome.x is None else [str(e) for e in outcome.x],
    }
    obj.update(_condition_sections(inst, cond))
    if elapsed is not None:
        obj["timing"] = {"seconds": round(elapsed, 6)}
    return obj


@contextlib.contextmanager
def _unlimited_digits():
    # a result can be longer than the interpreter's int/str digit limit, so
    # the limit is lifted while a result is formatted; input parsing keeps it
    # (exit 3). Interpreters before 3.10.7 have no limit.
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _emit(text: str, output: str | None) -> None:
    if output:
        iomod.write_text(output, text)
    else:
        sys.stdout.write(text)


def _failure(exc: Exception, where: str = "") -> tuple[int, str]:
    """The exit code and the one stderr line for an exception that ended a
    command or a batch file: 3 for bad input, 4 for an internal error or any
    other exception."""
    if isinstance(exc, DioboxError) and not isinstance(exc, InternalError):
        return 3, f"error: {where}{exc}"
    return 4, f"internal error: {where}{type(exc).__name__}: {exc}"


def _solve_file(path: str, output: str | None, with_timing: bool) -> SolveStatus:
    inst = iomod.load_instance(path)
    t0 = time.monotonic()
    outcome, cond = solve_with_conditions(inst)
    elapsed = time.monotonic() - t0 if with_timing else None
    with _unlimited_digits():
        _emit(iomod.dumps_canonical(_result_obj(inst, outcome, cond, elapsed)), output)
    return outcome.status


def cmd_solve(args) -> int:
    if not args.batch:
        return _EXIT[_solve_file(args.instance, args.output, not args.no_timing)]
    if args.output:  # each result goes next to its input, so -o names nothing
        raise DioboxError("-o/--output cannot be used with --batch")
    from .batch import solve_directory  # only a batch process loads the worker code

    return solve_directory(args.batch, not args.no_timing)


def cmd_check(args) -> int:
    inst = iomod.load_instance(args.instance)
    cond = conditions(inst)
    with _unlimited_digits():
        obj = _condition_sections(inst, cond)
        obj["projection_bound"] = {"approx": True, "value": aliev_henk_t_bound(inst.a)}
        _emit(iomod.dumps_canonical(obj), args.output)
    return 0


def cmd_gen(args) -> int:
    inst = generate_instance(
        m=args.m, n=args.n, seed=args.seed, mode=args.mode, max_entry=args.max_entry
    )
    with _unlimited_digits():
        _emit(iomod.dumps_canonical(iomod.instance_to_obj(inst)), args.output)
    return 0


def cmd_frobenius(args) -> int:
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
        if x is None:
            print("result file carries no witness vector", file=sys.stderr)
            return 1
    elif args.x:
        x = tuple(iomod.parse_int(e, "argument") for e in args.x)
    else:
        raise DioboxError("no candidate solution given")
    ok = verify(inst.a, inst.b, x)
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
            "deep_threshold_squared": str(t_sq),
            "deep_threshold": {"approx": True, "value": approx_sqrt(*t_sq.as_integer_ratio())},
            "projection_bound": {"approx": True, "value": aliev_henk_t_bound(inst.a)},
            "p_factor": {"approx": True, "value": aliev_henk_p(inst.a.rows, inst.a.cols)},
            "hermite_constant_threshold": "not evaluated",
        }
        if inst.a.rows == 2:
            shifted = _shifted_section(part, inst.b)
            if shifted["applicable"]:
                obj["shift_squared"] = shifted["shift_squared"]
        _emit(iomod.dumps_canonical(obj), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="diobox", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="classify an instance and emit a result file")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("-i", "--instance", metavar="FILE", help="instance file")
    grp.add_argument("--batch", metavar="DIR", help="solve every *.json in a directory")
    p.add_argument("-o", "--output", metavar="FILE", help="result file (default stdout)")
    p.add_argument(
        "--no-timing",
        action="store_true",
        help="omit wall-clock timing so reruns are byte-identical",
    )
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check", help="report guarantee conditions without solving")
    p.add_argument("-i", "--instance", metavar="FILE", required=True)
    p.add_argument("-o", "--output", metavar="FILE")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("gen", help="generate a seeded random instance")
    p.add_argument("--m", type=int, required=True, help="number of equations")
    p.add_argument("--n", type=int, required=True, help="number of variables")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=MODES, default="feasible")
    p.add_argument("--max-entry", type=int, default=10, help="entry range is +-MAX")
    p.add_argument("-o", "--output", metavar="FILE")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("frobenius", help="f-chain, Brauer bound, Frobenius number")
    p.add_argument("entries", type=int, nargs="+", help="positive coprime entries")
    p.add_argument("--cap", type=int, default=10**6, help="residue table cap")
    p.add_argument("-o", "--output", metavar="FILE")
    p.set_defaults(func=cmd_frobenius)

    p = sub.add_parser("verify", help="check a candidate nonnegative solution")
    p.add_argument("-i", "--instance", metavar="FILE", required=True)
    p.add_argument("x", nargs="*", help="candidate entries")
    p.add_argument("-s", "--solution", metavar="FILE", help="result file to read x from")
    p.add_argument("-o", "--output", metavar="FILE")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bounds", help="exact and diagnostic bounds for an instance")
    p.add_argument("-i", "--instance", metavar="FILE", required=True)
    p.add_argument("-o", "--output", metavar="FILE")
    p.set_defaults(func=cmd_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Exception as exc:  # every failure leaves with an exit code and one line
        code, line = _failure(exc)
        print(line, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
