"""The package root resolves its public names on first use.

``import diobox`` loads no submodule; each name in ``diobox.__all__``
imports the submodule that defines it the first time it is looked up.
These tests pin what callers rely on: the names and their order, the
objects they resolve to, ``dir`` and star imports, submodule imports, the
error for an unknown name, and every name the benchmark imports.
"""

import ast
import importlib
import pathlib
import subprocess
import sys

import pytest

import diobox

ROOT = pathlib.Path(__file__).resolve().parent.parent

ALL = [
    "AffineLatticeRep",
    "BasisPartition",
    "BoxReduction",
    "CapExceededError",
    "ConditionReport",
    "DimensionMismatchError",
    "DioboxError",
    "FacetCheck",
    "GcdNotOneError",
    "GenerationFailedError",
    "InstanceFormatError",
    "IntMat",
    "InternalError",
    "NonPositiveEntryError",
    "NotSquareError",
    "ProblemInstance",
    "RankDeficientError",
    "SingularError",
    "SolveOutcome",
    "SolveStatus",
    "SpecialBasis",
    "WrongRowCountError",
    "aliev_henk_p",
    "aliev_henk_t_bound",
    "box_reduce",
    "brauer_G",
    "basis_partition",
    "deep_cone_condition",
    "det_exact",
    "f_chain",
    "frobenius_number_dp",
    "gcd_max_minors",
    "integer_solution_set",
    "partition",
    "project_drop_m",
    "shifted_cone_report",
    "solve",
    "solve_rational",
    "solve_with_conditions",
    "special_basis",
    "verify",
    "xgcd",
]

# the names no decision path calls, kept exported for the traced replay
# and the tests
REFERENCE = {
    "AffineLatticeRep",
    "deep_cone_condition",
    "gcd_max_minors",
    "integer_solution_set",
    "project_drop_m",
    "solve_rational",
    "special_basis",
}


def test_all_keeps_its_names_in_order():
    assert diobox.__all__ == ALL
    assert len(set(ALL)) == 42


@pytest.mark.parametrize("name", ALL)
def test_name_resolves_to_its_home_object(name):
    obj = getattr(diobox, name)
    home = obj.__module__
    assert home.startswith("diobox.")
    assert getattr(importlib.import_module(home), name) is obj
    assert (home == "diobox.reference") == (name in REFERENCE)
    assert vars(diobox)[name] is obj  # cached: later lookups skip __getattr__


def test_dir_and_star_import_cover_all():
    assert set(ALL) <= set(dir(diobox))
    namespace: dict = {}
    exec("from diobox import *", namespace)
    for name in ALL:
        assert namespace[name] is getattr(diobox, name)


def test_submodules_import_through_the_root():
    from diobox import cli, lattice, linalg

    assert cli is sys.modules["diobox.cli"]
    assert lattice is sys.modules["diobox.lattice"]
    assert linalg is sys.modules["diobox.linalg"]
    assert diobox.__version__ == "0.1.0"


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'diobox'.*'no_such_name'"):
        diobox.no_such_name
    assert not hasattr(diobox, "hnf_column")
    assert not hasattr(diobox, "adjugate")  # partition gives adj(B)
    with pytest.raises(ImportError):
        exec("from diobox import no_such_name", {})


def test_bare_import_loads_no_submodule():
    # -I -S: no environment and no site packages; -B: no bytecode written
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import diobox; "
        "print(sorted(m for m in sys.modules if m.startswith('diobox.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _benchmark_imports() -> list[str]:
    # every ``from diobox import NAME`` in the benchmark's modules
    names = []
    for module in ("tracing", "workloads", "bench"):
        tree = ast.parse((ROOT / "perfbench" / f"{module}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "diobox":
                names += [alias.name for alias in node.names]
    return names


def test_benchmark_imports_resolve():
    names = _benchmark_imports()
    assert {"solve", "integer_solution_set", "det_exact", "cli", "io"} <= set(names)
    for name in names:
        namespace: dict = {}
        exec(f"from diobox import {name}", namespace)
        assert namespace[name] is not None
