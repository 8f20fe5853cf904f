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
import os
import sys

import pytest

from diobox import lattice, linalg
from diobox.cli import main

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


# (_eliminate calls, kernel_echelon calls) of one command: the basis
# partition is the only elimination of B; check and bounds add det(A A^T)
# for the diagnostic bound
CALLS = {
    "solve": (1, 1),
    "check": (2, 1),
    "bounds": (2, 1),
    "gen feasible": (1, 0),
    "gen deep": (1, 1),
    "gen boundary": (1, 0),
}


@pytest.mark.parametrize("name,code,args", PARAMS)
def test_one_partition_per_command(name, code, args, monkeypatch):
    # every golden gen seed keeps its first draw of A, so each command,
    # gen included, builds exactly one BasisPartition
    monkeypatch.chdir(ROOT)
    funcs = (linalg._eliminate, linalg.kernel_echelon, lattice.partition)
    codes = [f.__code__ for f in funcs]
    counts = [0] * len(codes)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes.index(frame.f_code)] += 1

    sys.setprofile(profile)
    try:
        run(args)
    finally:
        sys.setprofile(None)
    key = f"gen {args[args.index('--mode') + 1]}" if args[0] == "gen" else args[0]
    assert counts == [*CALLS[key], 1]


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
