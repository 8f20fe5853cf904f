"""Byte-for-byte command line outputs.

``tests/golden/CASES`` lists one ``diobox`` command per line: the golden
file its standard output must equal, the exit code it must return, and its
arguments, with paths relative to the repository root. ``gen`` lines write
instance files that later lines read; the other instance files in
``tests/golden/`` are written by hand. The outputs were captured before the
solver moved from ``Fraction`` elimination to the fraction-free core, so
this test pins that both give the same bytes. The ``m1_long_result`` and
``m1_float_overflow`` outputs hold numbers longer than Python's 4300-digit
int/str limit and diagnostics beyond the largest double (written as null).

To regenerate every output and exit code after an intended output change,
run from the repository root::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

from diobox import lattice, linalg
from diobox.cli import main
from conftest import OPTIMIZED, SRC, diobox_process, profiled_calls

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")
CASES = os.path.join(GOLDEN, "CASES")


def read_cases() -> list[tuple[str, str, list[str]]]:
    with open(CASES, encoding="utf-8") as fh:
        return [(name, code, args) for name, code, *args in map(str.split, fh)]


PARAMS = [pytest.param(*c, id=c[0]) for c in read_cases()]


def run(args: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(args)
    return code, out.getvalue()


@pytest.mark.parametrize("name,code,args", PARAMS)
def test_golden_output(name, code, args, monkeypatch):
    monkeypatch.chdir(ROOT)
    got_code, got = run(args)
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        assert got == fh.read()
    assert got_code == int(code)


# (_eliminate calls, kernel_echelon calls, adj(B) v products, partitions,
# box_reduce calls) of one command: the basis partition is the only
# elimination of B, and adj(B) b is formed once; check and bounds add
# det(A A^T) for the diagnostic bound, gen deep forms adj(B) b for b and for
# the pushed b, and verify and frobenius build no partition at all. No
# command box-reduces: kernel_coset's sweep already gives the box point
CALLS = {
    "solve": (1, 1, 1, 1, 0),
    "check": (2, 1, 1, 1, 0),
    "bounds": (2, 1, 1, 1, 0),
    "gen feasible": (1, 0, 0, 1, 0),
    "gen deep": (1, 1, 2, 1, 0),
    "gen boundary": (1, 0, 0, 1, 0),
    "verify": (0, 0, 0, 0, 0),
    "frobenius": (0, 0, 0, 0, 0),
}


@pytest.mark.parametrize("name,code,args", PARAMS)
def test_one_partition_per_command(name, code, args, monkeypatch):
    # every golden gen seed keeps its first draw of A, so each command that
    # reads a basis, gen included, builds exactly one BasisPartition
    monkeypatch.chdir(ROOT)
    funcs = (
        linalg._eliminate, linalg.kernel_echelon, linalg._adj_mul, lattice.partition,
        lattice.box_reduce,
    )
    counts = profiled_calls(funcs, lambda: run(args))
    key = f"gen {args[args.index('--mode') + 1]}" if args[0] == "gen" else args[0]
    assert counts == list(CALLS[key])


# one child per flag runs every row in process and prints its exit codes and
# outputs; pytest under -O would strip its own asserts, so the parent compares
ROWS_CHILD = """import contextlib, io, json, sys
from diobox.cli import main
def run(args):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        return main(args), out.getvalue()
json.dump([run(args) for _, _, args in json.load(sys.stdin)], sys.stdout)"""


@pytest.mark.parametrize("flag", OPTIMIZED)
def test_golden_output_optimized(flag):
    proc = subprocess.run(
        [sys.executable, flag, "-c", ROWS_CHILD], input=json.dumps(read_cases()), cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for (name, code, _), got in zip(read_cases(), json.loads(proc.stdout), strict=True):
        with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
            assert got == [int(code), fh.read()], name


STATUS_FOR_EXIT = {"0": "nonnegative", "1": "integer_only", "2": "infeasible"}


@pytest.mark.parametrize("flags", [(), *zip(OPTIMIZED)], ids=["plain", *OPTIMIZED])
def test_golden_batch(tmp_path, flags):
    # a child process, so the batch runs its real forked workers: every
    # result file equals the golden output of ``solve -i`` on that instance
    statuses = {
        args[2]: STATUS_FOR_EXIT[code]
        for _, code, args in read_cases()
        if args[0] == "solve"
    }
    for path in statuses:
        shutil.copy(os.path.join(ROOT, path), tmp_path)
    proc = diobox_process("solve", "--batch", str(tmp_path), "--no-timing", flags=flags)
    assert proc.returncode == 0, proc.stderr
    counts = ", ".join(
        f"{list(statuses.values()).count(s)} {s}" for s in STATUS_FOR_EXIT.values()
    )
    assert proc.stderr == f"{len(statuses)} file(s), 0 failure(s): {counts}\n"
    for path in statuses:
        name = os.path.basename(path)[: -len(".json")]
        with open(os.path.join(GOLDEN, f"{name}.solve.out"), "rb") as fh:
            assert (tmp_path / f"{name}.result.json").read_bytes() == fh.read(), name


def regenerate() -> None:
    os.chdir(ROOT)
    lines = []
    for name, _, args in read_cases():
        code, text = run(args)
        with open(os.path.join(GOLDEN, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        lines.append(" ".join([name, str(code), *args]))
    with open(CASES, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    sys.exit(regenerate())
