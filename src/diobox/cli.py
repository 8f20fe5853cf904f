"""Command line interface.

Exit codes: 0 solved with a nonnegative witness (or the command simply
succeeded), 1 integer-feasible only, 2 integer infeasible, 3 input error,
4 internal error.
All file input and output is UTF-8 JSON with numeric entries as decimal
strings; see the io module for the exact shape.

``solve`` runs here. The other commands live in ``diobox.commands``, which
``main`` imports only for them, so a ``diobox solve`` process compiles and
loads only the solve path.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import stat
import sys
import time

from . import io as iomod
from .cone import ConditionReport, shifted_cone_report
from .errors import DioboxError, InternalError
from .solver import GEN_MODES, Conditions, ProblemInstance, SolveStatus, solve_with_conditions

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


def _int_arg(text: str) -> int:
    # an integer on the command line follows the instance files' rule, so
    # "1_0", " 5" and non-ASCII digits exit 3 as they do in a file
    try:
        return iomod.parse_int(text, "value")
    except DioboxError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _ratio_str(pair: tuple[int, int]) -> str:
    """A report's ``(numerator, denominator)`` pair as ``str(Fraction)``
    prints it: ``n/d``, or ``n`` when d = 1."""
    num, den = pair
    return str(num) if den == 1 else f"{num}/{den}"


def _report_obj(rep: ConditionReport) -> dict:
    return {
        "holds": rep.holds,
        "t_squared": _ratio_str(rep.threshold_squared),
        "per_facet": [
            {
                "facet": f.facet + 1,
                "lhs_squared": _ratio_str(f.lhs_squared),
                "rhs_squared": _ratio_str(f.rhs_squared),
                "lhs_nonnegative": f.lhs_nonnegative,
                "ok": f.satisfied,
            }
            for f in rep.facets
        ],
    }


def _frobenius_section(inst: ProblemInstance) -> dict:
    from .frobenius import brauer_G  # only one-row instances load it

    row = inst.a[0]
    if all(e > 0 for e in row) and math.gcd(*row) == 1:
        g = brauer_G(row)
        return {"G": str(g), "applies": inst.b[0] > g}
    return {"G": None, "applies": False}


def _shifted_section(cond: Conditions) -> dict:
    part = cond.partition
    rep = shifted_cone_report(part.det, part.adj_n, part.b_mat, part.n_mat, cond.adj_b)
    if rep is None:
        return {"applicable": False, "holds": None}
    return {
        "applicable": True,
        "holds": rep.holds,
        "shift_squared": _ratio_str(rep.threshold_squared),
    }


def _condition_sections(inst: ProblemInstance, cond: Conditions) -> dict:
    out = {"deep_cone": _report_obj(cond.report)}
    if inst.a.rows == 1:
        out["frobenius"] = _frobenius_section(inst)
    if inst.a.rows == 2:
        out["shifted_cone"] = _shifted_section(cond)
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
    # (exit 3)
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


def _discard_output(output: str | None, *inputs: str | None) -> None:
    """Remove a failed run's regular file at ``output`` unless it is one of its
    ``inputs``; a symlink (``-o /dev/stdout``), device or FIFO there stays."""
    with contextlib.suppress(OSError):  # nothing there, or nothing removable
        if output and stat.S_ISREG(os.lstat(output).st_mode) and not any(
            p and os.path.exists(p) and os.path.samefile(p, output) for p in inputs
        ):
            os.remove(output)


def _solve_file(path: str, output: str | None, with_timing: bool) -> SolveStatus:
    """Solve one instance file into ``output`` (stdout when None)."""
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
    from .batch import solve_directory  # only a batch process loads the worker code

    return solve_directory(args.batch, not args.no_timing)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="diobox", description="Command line interface.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="classify an instance and emit a result file")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("-i", "--instance", metavar="FILE", help="instance file")
    grp.add_argument("--batch", metavar="DIR", help="solve every *.json in a directory")
    p.add_argument(
        "--no-timing",
        action="store_true",
        help="omit wall-clock timing so reruns are byte-identical",
    )

    p = sub.add_parser("check", help="report guarantee conditions without solving")
    p.add_argument("-i", "--instance", metavar="FILE", required=True)

    p = sub.add_parser("gen", help="generate a seeded random instance")
    p.add_argument("--m", type=_int_arg, required=True, help="number of equations")
    p.add_argument("--n", type=_int_arg, required=True, help="number of variables")
    p.add_argument("--seed", type=_int_arg, required=True)
    p.add_argument("--mode", choices=GEN_MODES, default="feasible")
    p.add_argument("--max-entry", type=_int_arg, default=10, help="entry range is +-MAX")

    p = sub.add_parser("frobenius", help="f-chain, Brauer bound, Frobenius number")
    p.add_argument("entries", type=_int_arg, nargs="+", help="positive coprime entries")
    p.add_argument("--cap", type=_int_arg, default=10**6, help="residue table cap")

    p = sub.add_parser("verify", help="check a candidate nonnegative solution")
    p.add_argument("-i", "--instance", metavar="FILE", required=True)
    p.add_argument("x", nargs="*", help="candidate entries")
    p.add_argument("-s", "--solution", metavar="FILE", help="result file to read x from")

    p = sub.add_parser("bounds", help="exact and diagnostic bounds for an instance")
    p.add_argument("-i", "--instance", metavar="FILE", required=True)

    for p in sub.choices.values():  # main's failure rule reads every command's -o
        p.add_argument("-o", "--output", metavar="FILE", help="output file (default stdout)")
    return parser


def main(argv=None) -> int:
    args = None
    try:
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
            if getattr(args, "batch", None) and args.output:  # each result goes next to its input
                parser.error("-o/--output cannot be used with --batch")
        except SystemExit as exc:
            return int(exc.code or 0)
        if args.command == "solve":
            return cmd_solve(args)
        from . import commands  # only the other commands load their code

        return getattr(commands, f"cmd_{args.command}")(args)
    except Exception as exc:  # every failure leaves with an exit code and one line
        # args is None when building the parser failed: no output to discard
        paths = (getattr(args, a, None) for a in ("output", "instance", "solution"))
        _discard_output(*paths)
        code, line = _failure(exc)
        print(line, file=sys.stderr)
        return code
