import json
import random
import sys
from enum import IntEnum
from fractions import Fraction

import pytest

import diobox
from diobox import (
    DimensionMismatchError,
    IntMat,
    ProblemInstance,
    RankDeficientError,
    SingularError,
    SolveStatus,
    basis_partition,
    deep_cone_condition,
    gcd_max_minors,
    partition,
    solve,
    verify,
)
from diobox import cli, lattice, linalg, reference
from diobox.gen import generate_instance

import oracles
from brute_force import brute_force_solve
from conftest import profiled_calls


class Small(IntEnum):
    ONE = 1


def test_select_basis_leftmost():
    part = partition(IntMat([[5, 2, 3]]))
    assert part.basis_cols == (0,)
    assert part.order == (0, 1, 2)
    assert (part.det, part.adj, part.adj_n) == (5, ((1,),), ((2, 3),))


def test_select_basis_skips_dependent():
    part = partition(IntMat([[0, 1, 2], [0, 0, 3]]))
    assert part.basis_cols == (1, 2)
    assert part.order == (1, 2, 0)
    assert part.b_mat == IntMat([[1, 2], [0, 3]]) and part.n_mat == IntMat([[0], [0]])
    assert (part.det, part.adj, part.adj_n) == (3, ((3, -2), (0, 1)), ((0,), (0,)))
    part = partition(IntMat([[1, 0, 7], [0, 1, 7]]))
    assert part.basis_cols == (0, 1)
    assert part.order == (0, 1, 2)


def test_select_basis_rank_deficient():
    with pytest.raises(RankDeficientError):
        partition(IntMat([[1, 2, 3], [2, 4, 6]]))


def test_default_partition_eliminates_once(monkeypatch):
    # the rank profile, det B, adj(B) and adj(B) N come from one elimination
    # of [A | I]; explicit basis columns move to the front, and then the same
    # elimination runs over all of A
    calls = []
    real = linalg._eliminate

    def counting(a, width):
        calls.append(width)
        return real(a, width)

    monkeypatch.setattr(linalg, "_eliminate", counting)
    inst = ProblemInstance(a=IntMat([[0, 2, 3, 1], [0, 1, 5, 4]]), b=(1, 2))
    part = basis_partition(inst)
    assert part.basis_cols == (1, 2) and part.det == 7
    assert calls == [4]
    calls.clear()
    assert partition(inst.a, (2, 3)).det == 7
    assert calls == [4]


def test_explicit_basis_moves_to_the_front():
    # a singular choice raises with the 1-based columns; a nonsingular one
    # out of order gives the det B, adj(B) and adj(B) N it gave when
    # explicit columns took their own elimination of [B | N | I]
    a = IntMat([[1, 2, 3], [2, 4, 5]])
    with pytest.raises(SingularError, match=r"\[1, 2\]"):
        partition(a, (0, 1))
    part = partition(a, (2, 0))
    assert (part.basis_cols, part.order) == ((2, 0), (2, 0, 1))
    assert part.b_mat == IntMat([[3, 1], [5, 2]]) and part.n_mat == IntMat([[2], [4]])
    assert (part.det, part.adj, part.adj_n) == (1, ((2, -1), (-5, 3)), ((0,), (2,)))


def test_instance_validation():
    with pytest.raises(DimensionMismatchError):
        ProblemInstance(a=IntMat([[1, 2, 3]]), b=(1, 2))
    with pytest.raises(DimensionMismatchError):
        ProblemInstance(a=IntMat([[1, 2], [3, 4]]), b=(1, 2))  # needs n > m


def test_basis_partition_override():
    inst = ProblemInstance(a=IntMat([[5, 2, 3]]), b=(4,), basis_cols=(1,))
    part = basis_partition(inst)
    assert part.basis_cols == (1,)
    assert part.order == (1, 0, 2)
    assert part.b_mat == IntMat([[2]])
    assert part.n_mat == IntMat([[5, 3]])


def test_basis_partition_override_errors():
    a = IntMat([[0, 1, 2], [0, 0, 3]])
    with pytest.raises(SingularError):
        basis_partition(ProblemInstance(a=a, b=(1, 1), basis_cols=(0, 1)))
    with pytest.raises(DimensionMismatchError):
        basis_partition(ProblemInstance(a=a, b=(1, 1), basis_cols=(1, 1)))
    with pytest.raises(DimensionMismatchError):
        basis_partition(ProblemInstance(a=a, b=(1, 1), basis_cols=(1, 5)))
    # explicit columns given to partition itself are ints, not bools: True
    # would pick column 1
    for cols, name in [([True], "bool"), ([0.0], "float")]:
        with pytest.raises(TypeError, match=f"^cols entry 0 is {name}, expected int$"):
            partition(IntMat([[1, 2, 3]]), cols)
    assert partition(IntMat([[1, 2, 3]]), (c for c in [Small.ONE])).order == (1, 0, 2)


def test_solve_nonnegative_witness():
    out = solve(ProblemInstance(a=IntMat([[5, 2, 3]]), b=(4,)))
    assert out.status == SolveStatus.NONNEGATIVE
    assert out.x == (0, 2, 0)
    assert out.report is None


def test_solve_integer_only_with_report():
    # b = 1 is below the Frobenius number of {5, 2, 3}: integer solutions
    # exist, nonnegative ones do not, and the report must show the
    # right-hand side was outside the guaranteed region
    out = solve(ProblemInstance(a=IntMat([[5, 2, 3]]), b=(1,)))
    assert out.status == SolveStatus.INTEGER_ONLY
    assert out.x == (-1, 3, 0)
    assert IntMat([[5, 2, 3]]).mul_vec(out.x) == (1,)
    assert out.report is not None
    assert not out.report.holds


def test_solve_infeasible():
    out = solve(ProblemInstance(a=IntMat([[2, 4]]), b=(3,)))
    assert out.status == SolveStatus.INFEASIBLE
    assert out.x is None and out.report is None


def test_solve_zero_rhs():
    out = solve(ProblemInstance(a=IntMat([[5, 2, 3]]), b=(0,)))
    assert out.status == SolveStatus.NONNEGATIVE
    assert out.x == (0, 0, 0)


def test_solve_with_basis_override_still_solves():
    inst = ProblemInstance(a=IntMat([[5, 2, 3]]), b=(4,), basis_cols=(1,))
    out = solve(inst)
    assert out.status in (SolveStatus.NONNEGATIVE, SolveStatus.INTEGER_ONLY)
    assert IntMat([[5, 2, 3]]).mul_vec(out.x) == (4,)


def test_solve_deterministic():
    inst = ProblemInstance(a=IntMat([[7, 3, 5, 2]]), b=(11,))
    assert solve(inst) == solve(inst)


def test_verify_examples():
    a = IntMat([[5, 2, 3]])
    assert verify(a, (4,), (0, 2, 0))
    assert not verify(a, (4,), (1, 0, 0))  # solves nothing
    assert not verify(a, (4,), (-1, 3, 1))  # negative entry
    with pytest.raises(DimensionMismatchError):
        verify(a, (4,), (1, 2))
    with pytest.raises(DimensionMismatchError):
        verify(a, (4, 0), (0, 2, 0))
    # b and x hold ints, not bools: 2 * 0.5 + 0 == 1, yet 0.5 is no integer
    a = IntMat([[2, 1]])
    for b, x, bad in [
        ((1,), (0.5, 0), "x entry 0 is float"),
        ((1,), (Fraction(1, 2), 0), "x entry 0 is Fraction"),
        ((1,), (0, True), "x entry 1 is bool"),
        ((1.0,), (0, 1), "b entry 0 is float"),
    ]:
        with pytest.raises(TypeError, match=f"^{bad}, expected int$"):
            verify(a, b, x)
    # other int subclasses and any iterable are taken as they are
    assert verify(a, iter([Small.ONE]), (e for e in (0, Small.ONE)))


def test_solutions_always_verify():
    rng = random.Random(31)
    done = 0
    while done < 200:
        m = rng.randint(1, 3)
        n = rng.randint(m + 1, 6)
        a = IntMat([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        b = tuple(rng.randint(-20, 20) for _ in range(m))
        try:
            out = solve(ProblemInstance(a=a, b=b))
        except RankDeficientError:
            continue
        if out.status == SolveStatus.INFEASIBLE:
            assert oracles.integer_solution_set_hnf(a, b) is None
        else:
            assert a.mul_vec(out.x) == b
            if out.status == SolveStatus.NONNEGATIVE:
                assert verify(a, b, out.x)
            else:
                assert any(e < 0 for e in out.x)
                assert out.report is not None and not out.report.holds
        done += 1


def test_guarantee_on_deep_instances():
    # inside the guaranteed region the solver never misses a nonnegative
    # witness (the acceptance battery runs 500 of these)
    for seed in range(60):
        m = 1 + seed % 3
        n = m + 1 + seed % 5
        inst = generate_instance(m, n, seed=seed, mode="deep", max_entry=20)
        part = basis_partition(inst)
        rep = deep_cone_condition(part.b_mat, part.n_mat, gcd_max_minors(inst.a), inst.b)
        assert rep.holds
        out = solve(inst)
        assert out.status == SolveStatus.NONNEGATIVE
        assert verify(inst.a, inst.b, out.x)


def test_oracle_agreement_smoke():
    rng = random.Random(32)
    done = 0
    while done < 120:
        m = rng.choice([1, 2])
        n = rng.randint(m + 1, 5)
        a = IntMat([[rng.randint(1, 9) for _ in range(n)] for _ in range(m)])
        b = tuple(rng.randint(0, 30) for _ in range(m))
        try:
            inst = ProblemInstance(a=a, b=b)
            out = solve(inst)
        except RankDeficientError:
            continue
        res = brute_force_solve(a, b)
        if out.status == SolveStatus.NONNEGATIVE:
            assert res.status == "found"
        if res.status == "found":
            assert out.status != SolveStatus.INFEASIBLE
        if res.status == "none_within_bounds" and res.conclusive:
            assert out.status != SolveStatus.NONNEGATIVE
        part = basis_partition(inst)
        rep = deep_cone_condition(part.b_mat, part.n_mat, gcd_max_minors(a), b)
        if res.status == "found" and rep.holds:
            assert out.status == SolveStatus.NONNEGATIVE
        done += 1


def test_boundary_mode_solvable():
    # boundary instances sit on a facet; whatever the classification, any
    # returned witness must satisfy the system exactly
    for seed in range(40):
        m = 1 + seed % 3
        inst = generate_instance(m, m + 2, seed=seed, mode="boundary")
        out = solve(inst)
        if out.x is not None:
            assert inst.a.mul_vec(out.x) == inst.b


# solve(), the CLI's solve, check, bounds and gen, and gcd_max_minors work
# modulo |det B|, and hnf_mod is the package's only Hermite normal form. The
# last column counts the hnf_column runs of the integer route they replaced
# (integer_solution_set for feasibility, special_basis for the lattice of a
# feasible instance), which ``tests/oracles.py`` keeps and the tests below
# run afterwards as a reference for the witness.
HNF_CASES = [
    ([[5, 2, 3]], (4,), "nonnegative", 2),
    ([[5, 2, 3]], (1,), "integer_only", 2),
    ([[2, 4]], (3,), "infeasible", 1),
    ([[2, 0, 1, 3], [0, 2, 1, 1]], (9, 7), "nonnegative", 2),
    ([[2, 4, 6, -8], [4, 2, 8, 10]], (3, 5), "infeasible", 1),
]


@pytest.fixture
def hnf_calls(monkeypatch):
    # count the hnf_column runs of the reference route
    calls = []
    real = oracles.hnf_column

    def counted(mat):
        calls.append(mat)
        return real(mat)

    monkeypatch.setattr(oracles, "hnf_column", counted)
    return calls


def _assert_no_integer_hnf():
    loaded = {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "diobox"}
    core = ("cli", "gen", "lattice", "linalg", "solver")
    assert {f"diobox.{name}" for name in core} <= set(loaded)
    assert not [name for name, mod in loaded.items() if hasattr(mod, "hnf_column")]
    assert "hnf_column" not in diobox.__all__ and "HnfResult" not in diobox.__all__


def _reference_free_part(inst):
    # the box-reduced free part w by the hnf_column route, None if infeasible
    part = basis_partition(inst)
    m = inst.a.rows
    rep = oracles.integer_solution_set_hnf(inst.a.select_cols(part.order), inst.b)
    if rep is None:
        return None
    basis = oracles.special_basis_hnf(reference.project_drop_m(rep.kernel_basis, m))
    return tuple(int(f) for f in lattice.box_reduce(basis.vectors, rep.particular[m:]).w)


def _free_part(inst, x):
    return None if x is None else tuple(x[j] for j in basis_partition(inst).order[inst.a.rows :])


@pytest.mark.parametrize("rows,b,status,ref_calls", HNF_CASES)
def test_hnf_runs_per_solve(rows, b, status, ref_calls, hnf_calls):
    inst = ProblemInstance(a=IntMat(rows), b=b)
    out = solve(inst)
    assert out.status.value == status
    gcd_max_minors(inst.a)
    _assert_no_integer_hnf()
    assert _reference_free_part(inst) == _free_part(inst, out.x)
    assert len(hnf_calls) == ref_calls


@pytest.mark.parametrize("rows,b,status,ref_calls", HNF_CASES)
def test_hnf_runs_per_cli_solve(rows, b, status, ref_calls, hnf_calls, tmp_path, capsys):
    path = tmp_path / "i.json"
    path.write_text(json.dumps({"m": len(rows), "n": len(rows[0]), "A": rows, "b": list(b)}))
    cli.main(["solve", "-i", str(path), "--no-timing"])
    result = json.loads(capsys.readouterr().out)
    assert result["status"] == status
    for command in ("check", "bounds"):
        assert cli.main([command, "-i", str(path)]) == 0
    m, n = len(rows), len(rows[0])
    assert cli.main(["gen", "--m", str(m), "--n", str(n), "--seed", "1", "--mode", "deep"]) == 0
    capsys.readouterr()
    _assert_no_integer_hnf()
    inst = ProblemInstance(a=IntMat(rows), b=b)
    x = None if result["x"] is None else [int(e) for e in result["x"]]
    assert _reference_free_part(inst) == _free_part(inst, x)
    assert len(hnf_calls) == ref_calls


@pytest.mark.parametrize(
    "rows,b,status,selects",
    [
        ([[5, 2, 3]], (4,), SolveStatus.NONNEGATIVE, 0),
        ([[0, 3, 1, -1], [3, -1, -2, -1]], (4, 4), SolveStatus.NONNEGATIVE, 0),
        ([[5, 2, 3]], (1,), SolveStatus.INTEGER_ONLY, 1),
        ([[6, 1, 2, 5], [-3, 4, 0, -3]], (9, -3), SolveStatus.INTEGER_ONLY, 1),
        ([[2, 4]], (3,), SolveStatus.INFEASIBLE, 0),
        ([[6, 5, 3, 1], [6, 5, 1, -3]], (-2, -3), SolveStatus.INFEASIBLE, 0),
    ],
)
def test_solve_builds_only_the_blocks_it_reads(rows, b, status, selects):
    # the partition keeps A: no solve builds B, only the deep-cone report
    # of an integer-only solve reads N, and [A | I] is written without an
    # identity matrix
    inst = ProblemInstance(a=IntMat(rows), b=b)
    out = []
    funcs = (IntMat.select_cols, IntMat.identity.__func__)
    assert profiled_calls(funcs, lambda: out.append(solve(inst))) == [selects, 0]
    assert out[0].status == status
