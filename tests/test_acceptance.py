"""Acceptance battery for the whole stack.

Nine checks, each printing one summary line on the real terminal so the
battery reads as a checklist under ``pytest -v``:

  1 deep-region guarantee    every deep-mode instance solves nonnegatively
  2 oracle agreement         verdicts match independent arithmetic and search
  3 box product bound        prod(1 + w_i) never exceeds the lattice determinant
  4 determinant identity     lattice determinant * minor gcd = |det B|
  5 single-row threshold     every b above the chain bound solves nonnegatively
  6 box shape equality       reduction box matches the running-gcd ratios
  7 shifted-cone implication two-row shifted test is at least as strong
  8 normal-form re-check     transform re-verification plus minor gcd sweep
  9 rerun determinism        seeded generate + solve is byte-stable

The instance streams are rebuilt from fixed seeds inside each check, so the
checks stay independent of execution order; lru_cache keeps rebuilds free.
"""

import functools
import math
import random
import time
from fractions import Fraction

from diobox import (
    GenerationFailedError,
    IntMat,
    ProblemInstance,
    RankDeficientError,
    SolveStatus,
    basis_partition,
    box_reduce,
    brauer_G,
    deep_cone_condition,
    det_exact,
    frobenius_number_dp,
    gcd_max_minors,
    integer_solution_set,
    project_drop_m,
    shifted_cone_report,
    solve,
    special_basis,
    verify,
)
from diobox.cli import main as cli_main
from diobox.gen import generate_instance

from brute_force import EnumerationBudget, brute_force_solve
from oracles import (
    adj_products,
    box_shape,
    hnf_column,
    hnf_shape_ok,
    in_cone,
    integer_feasible_minor_test,
    integer_solution_set_hnf,
    minors_gcd,
    special_basis_hnf,
)


def _line(capsys, num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    msg = f"criterion {num} ({name}): {verdict}"
    if detail:
        msg += f" [{detail}]"
    with capsys.disabled():
        print(msg, flush=True)


@functools.lru_cache(maxsize=None)
def _deep_stream():
    """520 seeded deep-mode instances, m in 1..3, n up to m+5, entries <= 20."""
    rng = random.Random(18215)
    out = []
    while len(out) < 520:
        m = rng.choice((1, 2, 3))
        n = m + rng.randint(1, 5)
        try:
            inst = generate_instance(
                m, n, rng.randrange(1 << 30), mode="deep", max_entry=20
            )
        except GenerationFailedError:
            continue
        out.append(inst)
    return tuple(out)


def _full_row_rank(a_mat):
    try:
        gcd_max_minors(a_mat)
    except RankDeficientError:
        return False
    return True


@functools.lru_cache(maxsize=None)
def _positive_stream():
    """520 systems with positive coefficients and a spread of right-hand
    sides: raw random, exactly representable, perturbed, and parity-blocked
    (all-even matrix against an odd target, so integer-infeasible for sure).
    The tail of the stream puts a unit-determinant block in the leading
    columns; for those the guarantee region is the whole basis cone, which
    keeps the oracle comparison in criterion 2 from being vacuous."""
    rng = random.Random(47121)
    out = []
    while len(out) < 360:
        m = rng.choice((1, 2, 3))
        n = rng.randint(m + 1, 6)
        kind = rng.randrange(4)
        if kind == 3:
            rows = [[2 * rng.randint(1, 7) for _ in range(n)] for _ in range(m)]
        else:
            rows = [[rng.randint(1, 15) for _ in range(n)] for _ in range(m)]
        a_mat = IntMat(rows)
        if not _full_row_rank(a_mat):
            continue
        if kind == 0:
            b = tuple(rng.randint(0, 40) for _ in range(m))
        elif kind == 3:
            b = tuple(2 * rng.randint(0, 20) + 1 for _ in range(m))
        else:
            x = [rng.randint(0, 4) for _ in range(n)]
            b = a_mat.mul_vec(x)
            if kind == 2:
                b = tuple(e + rng.randint(-2, 2) for e in b)
        out.append(ProblemInstance(a=a_mat, b=tuple(b)))
    blocks = {
        1: ((1,),),
        2: ((1, 1), (1, 2)),
        3: ((1, 1, 1), (1, 2, 1), (1, 1, 2)),
    }
    while len(out) < 520:
        m = rng.choice((1, 2, 3))
        n = rng.randint(m + 1, 6)
        rows = [
            list(blocks[m][i]) + [rng.randint(1, 15) for _ in range(n - m)]
            for i in range(m)
        ]
        a_mat = IntMat(rows)
        y = [rng.randint(0, 6) for _ in range(m)]
        if rng.randrange(2):
            w = [0] * (n - m)
        else:
            w = [rng.randint(0, 3) for _ in range(n - m)]
        b = a_mat.mul_vec(y + w)
        out.append(ProblemInstance(a=a_mat, b=tuple(b)))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _coprime_vectors():
    """100 positive coprime tuples, n <= 5, entries <= 50; (3, 5) is pinned
    because its exact threshold is met, giving the equality case."""
    rng = random.Random(31415)
    vecs = [(3, 5)]
    while len(vecs) < 100:
        n = rng.randint(2, 5)
        v = tuple(sorted(rng.randint(2, 50) for _ in range(n)))
        if math.gcd(*v) != 1:
            continue
        vecs.append(v)
    return tuple(vecs)


def _reduction(inst):
    """Re-run the projection/reduction pipeline the solver uses on the
    integer ``hnf_column`` route, returning the triangular basis and the
    reduced point, or None when the instance has no integer solution (no
    reduction happens then)."""
    part = basis_partition(inst)
    rep = integer_solution_set_hnf(inst.a.select_cols(part.order), inst.b)
    if rep is None:
        return None
    m = inst.a.rows
    basis = special_basis_hnf(project_drop_m(rep.kernel_basis, m))
    red = box_reduce(basis.vectors, rep.particular[m:])
    return basis, red


def test_criterion_1_deep_region_guarantee(capsys):
    t0 = time.perf_counter()
    insts = _deep_stream()
    bad = []
    for inst in insts:
        out = solve(inst)
        if out.status is not SolveStatus.NONNEGATIVE or not verify(
            inst.a, inst.b, out.x
        ):
            bad.append(inst)
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60.0
    _line(
        capsys,
        1,
        "deep-region guarantee",
        ok,
        f"{len(insts)} instances all nonnegative, {elapsed:.1f}s",
    )
    assert not bad, bad[:3]
    assert elapsed < 60.0


def test_criterion_2_oracle_agreement(capsys):
    insts = _positive_stream()
    budget = EnumerationBudget(per_variable=10_000, max_nodes=200_000)
    mismatches = []
    guarantee_hits = 0
    infeasible_seen = 0
    for inst in insts:
        out = solve(inst)
        feasible = integer_feasible_minor_test([list(r) for r in inst.a], list(inst.b))
        if (out.status is SolveStatus.INFEASIBLE) != (not feasible):
            mismatches.append(("feasibility", inst))
            continue
        if not feasible:
            infeasible_seen += 1
            continue
        res = brute_force_solve(inst.a, inst.b, budget)
        part = basis_partition(inst)
        deep = deep_cone_condition(
            part.b_mat, part.n_mat, gcd_max_minors(inst.a), inst.b
        )
        if res.x is not None and deep.holds:
            guarantee_hits += 1
            if out.status is not SolveStatus.NONNEGATIVE:
                mismatches.append(("guarantee", inst))
    ok = not mismatches and guarantee_hits >= 100 and infeasible_seen >= 30
    _line(
        capsys,
        2,
        "oracle agreement",
        ok,
        f"{len(insts)} instances, {infeasible_seen} infeasible, "
        f"{guarantee_hits} guarantee hits, 0 disagreements"
        if not mismatches
        else f"{len(mismatches)} disagreements",
    )
    assert not mismatches, mismatches[:3]
    assert guarantee_hits >= 100
    assert infeasible_seen >= 30


def test_criterion_3_box_product_bound(capsys):
    checked = 0
    bad = []
    for inst in _deep_stream() + _positive_stream():
        result = _reduction(inst)
        if result is None:
            continue
        basis, red = result
        if any(f.denominator != 1 or f < 0 for f in red.w):
            bad.append(inst)
            continue
        prod = 1
        for f in red.w:
            prod *= 1 + int(f)
        if prod > math.prod(basis.diagonal):
            bad.append(inst)
        checked += 1
    ok = not bad and checked >= 900
    _line(capsys, 3, "box product bound", ok, f"{checked} reductions, 0 violations")
    assert not bad, bad[:3]
    assert checked >= 900


def test_criterion_4_determinant_identity(capsys):
    insts = _deep_stream() + _positive_stream()
    bad = []
    for inst in insts:
        part = basis_partition(inst)
        zero = (0,) * inst.a.rows
        # the kernel lattice on the integer route, independent of the gcd
        rep = integer_solution_set_hnf(inst.a.select_cols(part.order), zero)
        basis = special_basis_hnf(project_drop_m(rep.kernel_basis, inst.a.rows))
        lhs = math.prod(basis.diagonal) * gcd_max_minors(inst.a)
        if lhs != abs(det_exact(part.b_mat)):
            bad.append(inst)
    ok = not bad
    _line(
        capsys,
        4,
        "determinant identity",
        ok,
        f"{len(insts)} instances, 0 violations",
    )
    assert not bad, bad[:3]


def test_criterion_5_single_row_threshold(capsys):
    t0 = time.perf_counter()
    bad = []
    equality_cases = 0
    solves = 0
    for v in _coprime_vectors():
        bound = brauer_G(v)
        exact = frobenius_number_dp(v)
        if exact > bound:
            bad.append(("bound", v))
            continue
        if exact == bound:
            equality_cases += 1
        a_mat = IntMat([list(v)])
        for b in range(bound + 1, bound + 201):
            out = solve(ProblemInstance(a=a_mat, b=(b,)))
            solves += 1
            if out.status is not SolveStatus.NONNEGATIVE or not verify(
                a_mat, (b,), out.x
            ):
                bad.append((v, b))
                break
    elapsed = time.perf_counter() - t0
    ok = not bad and equality_cases >= 1 and elapsed < 120.0
    _line(
        capsys,
        5,
        "single-row threshold",
        ok,
        f"{len(_coprime_vectors())} vectors, {solves} targets, "
        f"{equality_cases} exact-threshold cases, {elapsed:.1f}s",
    )
    assert not bad, bad[:3]
    assert equality_cases >= 1
    assert elapsed < 120.0


def test_criterion_6_box_shape_equality(capsys):
    bad = []
    for v in _coprime_vectors():
        a_mat = IntMat([list(v)])
        rep = integer_solution_set(a_mat, (0,))
        basis = special_basis(project_drop_m(rep.kernel_basis, 1))
        if basis.diagonal != box_shape(v):
            bad.append(v)
    ok = not bad
    _line(
        capsys,
        6,
        "box shape equality",
        ok,
        f"{len(_coprime_vectors())} vectors, 0 mismatches",
    )
    assert not bad, bad[:3]


def _ceil_sqrt(value: Fraction) -> int:
    """Smallest k >= 0 with k*k >= value."""
    k = math.isqrt(value.numerator // value.denominator)
    while k * k < value:
        k += 1
    return k


def test_criterion_7_shifted_cone_implication(capsys):
    rng = random.Random(9272)
    done = 0
    nontrivial = 0
    bad = []
    attempts = 0
    while done < 220 and attempts < 50_000:
        attempts += 1
        b_mat = IntMat([[rng.randint(-9, 9) for _ in range(2)] for _ in range(2)])
        if det_exact(b_mat) == 0:
            continue
        want = rng.randint(1, 3)
        cols = []
        for _ in range(60):
            if len(cols) == want:
                break
            c = (rng.randint(-12, 12), rng.randint(-12, 12))
            if c != (0, 0) and in_cone(b_mat, c):
                cols.append(c)
        if len(cols) < want:
            continue
        a_mat = IntMat(
            [[b_mat[i][0], b_mat[i][1]] + [c[i] for c in cols] for i in range(2)]
        )
        if gcd_max_minors(a_mat) != 1:
            continue
        n_mat = IntMat(zip(*cols))
        # with b = B (k, k) both cone coordinates equal k, so the smallest k
        # clearing every squared facet threshold can be read off directly
        det, adj_n, _ = adj_products(b_mat, n_mat, (0, 0))
        probe = shifted_cone_report(det, adj_n, b_mat, n_mat, (0, 0))
        k = max(_ceil_sqrt(f.rhs_squared) for f in probe.facets) + rng.randint(0, 3)
        b = b_mat.mul_vec((k, k))
        rep = shifted_cone_report(det, adj_n, b_mat, n_mat, adj_products(b_mat, n_mat, b)[2])
        assert rep is not None and rep.holds, ([list(r) for r in a_mat], b)
        if not deep_cone_condition(b_mat, n_mat, 1, b).holds:
            bad.append(([list(r) for r in a_mat], b))
        if abs(det_exact(b_mat)) > 1:
            nontrivial += 1
        done += 1
    ok = not bad and done >= 220 and nontrivial >= 50
    _line(
        capsys,
        7,
        "shifted-cone implication",
        ok,
        f"{done} instances ({nontrivial} with |det B| > 1), 0 counterexamples",
    )
    assert not bad, bad[:3]
    assert done >= 220
    assert nontrivial >= 50


def test_criterion_8_normal_form_recheck(capsys):
    rng = random.Random(6063)
    hnf_checked = 0
    minor_checked = 0
    bad = []
    while hnf_checked < 1000:
        m = rng.randint(1, 6)
        n = rng.randint(m, 9)
        mat = IntMat([[rng.randint(-100, 100) for _ in range(n)] for _ in range(m)])
        try:
            res = hnf_column(mat)
        except RankDeficientError:
            continue
        if (
            mat @ res.u != res.h
            or abs(det_exact(res.u)) != 1
            or not hnf_shape_ok(res.h, m)
        ):
            bad.append(("hnf", [list(r) for r in mat]))
        hnf_checked += 1
        if n <= 8 and minor_checked < 300:
            rows = [list(r) for r in mat]
            if gcd_max_minors(mat) != minors_gcd(rows):
                bad.append(("gcd", rows))
            minor_checked += 1
    ok = not bad
    _line(
        capsys,
        8,
        "normal-form re-check",
        ok,
        f"{hnf_checked} transforms re-verified, {minor_checked} minor gcds, 0 violations",
    )
    assert not bad, bad[:3]


def test_criterion_9_rerun_determinism(tmp_path, capsys):
    combos = [(1, 4, 11, "feasible"), (2, 5, 42, "deep"), (3, 7, 7, "boundary")]
    stable = True
    for m, n, seed, mode in combos:
        runs = []
        for tag in ("first", "second"):
            gen_path = tmp_path / f"{mode}-{m}-{tag}.json"
            res_path = tmp_path / f"{mode}-{m}-{tag}.result.json"
            rc_gen = cli_main(
                [
                    "gen",
                    "--m",
                    str(m),
                    "--n",
                    str(n),
                    "--seed",
                    str(seed),
                    "--mode",
                    mode,
                    "-o",
                    str(gen_path),
                ]
            )
            rc_solve = cli_main(
                ["solve", "-i", str(gen_path), "-o", str(res_path), "--no-timing"]
            )
            assert rc_gen == 0
            assert rc_solve in (0, 1)
            runs.append((gen_path.read_bytes(), res_path.read_bytes(), rc_solve))
        stable = stable and runs[0] == runs[1]
    _line(
        capsys,
        9,
        "rerun determinism",
        stable,
        f"{len(combos)} generate+solve pairs byte-identical",
    )
    assert stable
