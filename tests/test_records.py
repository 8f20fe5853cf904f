"""The package's result records are immutable named tuples, importing the
command line pulls in neither ``dataclasses``, test-only code, the
instance generator nor the code of the other commands, and a
``diobox solve`` process loads only the solve path."""

import pathlib
import subprocess
import sys

import pytest

import diobox
from diobox import (
    DimensionMismatchError,
    IntMat,
    ProblemInstance,
    box_reduce,
    integer_solution_set,
    solve,
    special_basis,
)
from diobox.lattice import kernel_coset
from diobox.linalg import _adj_mul
from diobox.solver import solve_with_conditions
from conftest import OPTIMIZED, diobox_process


def _records():
    inst = ProblemInstance(a=IntMat([[5, 2, 3]]), b=(1,))
    outcome, cond = solve_with_conditions(inst)
    part = cond.partition
    coset = kernel_coset(part.det, part.adj_n, _adj_mul(part.adj, inst.b))
    return [
        inst,
        outcome,
        cond,
        part,
        cond.report,
        cond.report.facets[0],
        integer_solution_set(inst.a, inst.b),
        special_basis([(2, 0), (1, 3)]),
        coset,
        box_reduce(coset.basis.vectors, coset.point),
    ]


RECORDS = _records()
NAMES = [
    "ProblemInstance",
    "SolveOutcome",
    "Conditions",
    "BasisPartition",
    "ConditionReport",
    "FacetCheck",
    "AffineLatticeRep",
    "SpecialBasis",
    "KernelCoset",
    "BoxReduction",
]


def test_every_record_is_covered():
    assert [type(r).__name__ for r in RECORDS] == NAMES
    # the outcome is integer-only, so its report is filled in
    assert RECORDS[1].report is not None


@pytest.mark.parametrize("rec", RECORDS, ids=NAMES)
def test_record_is_immutable(rec):
    assert isinstance(rec, tuple)
    for name in rec._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))
    with pytest.raises(AttributeError):
        rec.extra = 1


@pytest.mark.parametrize("rec", RECORDS, ids=NAMES)
def test_record_hash_and_repr(rec):
    twin = type(rec)(*rec)
    assert twin == rec and hash(twin) == hash(rec)
    text = repr(rec)
    assert text.startswith(type(rec).__name__ + "(")
    assert all(f"{name}=" in text for name in rec._fields)


def test_problem_instance_shape_checks():
    a = IntMat([[5, 2, 3]])
    inst = ProblemInstance(a, (4,))
    assert inst.basis_cols is None and inst == ProblemInstance(a=a, b=(4,), basis_cols=None)
    with pytest.raises(DimensionMismatchError, match="b has length 2"):
        ProblemInstance(a=a, b=(4, 5))
    with pytest.raises(DimensionMismatchError, match="more columns than rows"):
        ProblemInstance(a=IntMat([[1, 2], [3, 4]]), b=(1, 2))
    # ``_replace`` goes through the same checks
    assert inst._replace(basis_cols=(1,)).basis_cols == (1,)
    with pytest.raises(DimensionMismatchError):
        inst._replace(b=(1, 2))
    # b and basis_cols are stored as tuples, so a list b solves like a tuple
    # (the witness check compares A x with b); ``_replace`` normalises too
    a = IntMat([[3, 5, 7]])
    listed = ProblemInstance(a, [20], [0])
    assert listed == ProblemInstance(a, (20,), (0,))
    assert (type(listed.b), type(listed.basis_cols)) == (tuple, tuple)
    assert solve(ProblemInstance(a, [20])).x == (5, 1, 0)
    replaced = inst._replace(b=[6], basis_cols=[2])
    assert (replaced.b, replaced.basis_cols) == ((6,), (2,))
    # an entry of b is an int, not a float or a bool; a is an IntMat
    for b in [(20.0,), (True,), ("20",)]:
        with pytest.raises(TypeError, match="b entry 0 is"):
            ProblemInstance(a, b)
        with pytest.raises(TypeError, match="b entry 0 is"):
            inst._replace(b=b)
    with pytest.raises(TypeError, match="b entry 1 is float"):
        ProblemInstance(IntMat([[1, 0, 2], [0, 1, 3]]), (4, 5.0))
    with pytest.raises(TypeError, match="a is list"):
        ProblemInstance([[3, 5, 7]], (20,))


def test_cli_import_leaves_out_dataclasses_and_oracle():
    # -I -S: no environment, no site packages, so only the package's own
    # imports count; -B: write no bytecode next to the sources. The batch
    # forks its workers, which is safe only in a process without threads,
    # and importing a pool would slow every start; only ``diobox gen``
    # needs the generator, and only the other commands need their own code,
    # the Frobenius routines or the reference routines
    src = str(pathlib.Path(diobox.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import diobox.cli; "
        "print(sorted({'dataclasses', 'diobox.oracle', 'diobox.gen', 'multiprocessing',"
        " 'concurrent', 'threading', 'subprocess', 'diobox.reference',"
        " 'diobox.commands', 'diobox.frobenius'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# the modules a single-file ``diobox solve`` of an instance with two or more
# rows loads; a one-row instance adds ``frobenius`` for its Brauer bound
SOLVE_PATH = {"cli", "io", "solver", "lattice", "linalg", "cone", "errors"}


def _solve_imports(instance: str, flags=()) -> set[str]:
    # the diobox modules that ``python -X importtime`` lists for one solve
    # process: -E -S -B is -I -S -B without -P, so that ``-m`` finds the
    # package in the working directory; -B writes no bytecode, so every
    # module is compiled from source, as in a fresh checkout. A crash exits
    # 1 as an integer-only solve does, so the output must be the golden one
    src = pathlib.Path(diobox.__file__).resolve().parent.parent
    path = src.parent / "tests" / "golden" / instance
    proc = diobox_process("solve", "-i", str(path), "--no-timing", cwd=src,
                          flags=(*flags, "-E", "-S", "-B", "-X", "importtime"))
    assert proc.returncode in (0, 1), proc.stderr
    assert proc.stdout == path.with_suffix(".solve.out").read_text(encoding="utf-8")
    names = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    return {n for n in names if n == "diobox" or n.startswith("diobox.")}


@pytest.mark.parametrize("flags", [(), *zip(OPTIMIZED)], ids=["plain", *OPTIMIZED])
def test_solve_process_loads_only_the_solve_path(flags):
    loaded = _solve_imports("m3_feasible.json", flags)
    for name in ("reference", "commands", "frobenius", "gen", "batch"):
        assert f"diobox.{name}" not in loaded
    assert loaded == {"diobox"} | {f"diobox.{name}" for name in SOLVE_PATH}


def test_one_row_solve_process_loads_frobenius():
    loaded = _solve_imports("m1_feasible.json")
    assert loaded == {"diobox", "diobox.frobenius"} | {f"diobox.{n}" for n in SOLVE_PATH}
