import math
import random

import pytest

from diobox import (
    CapExceededError,
    GcdNotOneError,
    IntMat,
    NonPositiveEntryError,
    SolveStatus,
    ProblemInstance,
    brauer_G,
    f_chain,
    frobenius_number_dp,
    integer_solution_set,
    project_drop_m,
    solve,
    special_basis,
)
from oracles import box_shape, frobenius_reachability


def test_f_chain_examples():
    assert f_chain((6, 10, 15)) == (6, 2, 1)
    assert f_chain((5, 2, 3)) == (5, 1, 1)
    assert f_chain((3, 5)) == (3, 1)
    assert f_chain((7,)) == (7,)


def test_f_chain_rejects_bad_entries():
    with pytest.raises(NonPositiveEntryError):
        f_chain((3, 0, 5))
    with pytest.raises(NonPositiveEntryError):
        f_chain((3, -5))
    with pytest.raises(NonPositiveEntryError):
        f_chain(())


def test_brauer_examples():
    assert brauer_G((3, 5)) == 7
    assert brauer_G((6, 10, 15)) == 29
    assert brauer_G((5, 2, 3)) == 3
    assert brauer_G((2, 3)) == 1
    # an iterator is read once, for the check and the gcd chain alike
    assert brauer_G(iter([3, 5])) == 7
    assert brauer_G(e for e in (3, 5)) == 7


def test_brauer_gcd_not_one():
    with pytest.raises(GcdNotOneError):
        brauer_G((6, 10))


def test_frobenius_dp_examples():
    assert frobenius_number_dp((3, 5)) == 7
    assert frobenius_number_dp((2, 3)) == 1
    assert frobenius_number_dp((6, 10, 15)) == 29
    assert frobenius_number_dp((1, 9)) == -1


def test_frobenius_dp_cap():
    with pytest.raises(CapExceededError):
        frobenius_number_dp((10**7 + 1, 10**7 + 3), cap=10**6)


def test_frobenius_dp_against_reachability_table():
    rng = random.Random(41)
    done = 0
    while done < 60:
        n = rng.randint(2, 4)
        entries = tuple(rng.randint(2, 40) for _ in range(n))
        if math.gcd(*entries) != 1:
            continue
        assert frobenius_number_dp(entries) == frobenius_reachability(entries)
        done += 1


def test_frobenius_below_brauer():
    rng = random.Random(42)
    done = 0
    while done < 100:
        n = rng.randint(2, 5)
        entries = tuple(rng.randint(2, 50) for _ in range(n))
        if math.gcd(*entries) != 1:
            continue
        assert frobenius_number_dp(entries) <= brauer_G(entries)
        done += 1


def test_box_shape_examples():
    assert box_shape((5, 2, 3)) == (5, 1)
    assert box_shape((6, 10, 15)) == (3, 2)
    assert box_shape((3, 5)) == (3,)


def test_box_shape_matches_lattice_pipeline():
    # the closed form must equal the diagonal of the reduced triangular
    # basis of the projected kernel lattice
    rng = random.Random(43)
    done = 0
    while done < 120:
        n = rng.randint(2, 5)
        entries = tuple(rng.randint(1, 50) for _ in range(n))
        a = IntMat([list(entries)])
        rep = integer_solution_set(a, (0,))
        sb = special_basis(project_drop_m(rep.kernel_basis, 1))
        assert sb.diagonal == box_shape(entries)
        done += 1


def test_layer_congruence_and_bound():
    # the free part w of any one-row solve satisfies the layer congruence
    # sum(a_i+1 w_i) = b (mod a_1) and the weighted sum never exceeds
    # G(A) + a_1
    rng = random.Random(44)
    done = 0
    while done < 150:
        n = rng.randint(2, 5)
        entries = tuple(rng.randint(2, 30) for _ in range(n))
        if math.gcd(*entries) != 1:
            continue
        g = brauer_G(entries)
        b = rng.randint(0, g + entries[0] + sum(entries[1:]))
        out = solve(ProblemInstance(a=IntMat([list(entries)]), b=(b,)))
        assert out.status in (SolveStatus.NONNEGATIVE, SolveStatus.INTEGER_ONLY)
        w = out.x[1:]  # leftmost column is the basis block for one row
        weighted = sum(e * wi for e, wi in zip(entries[1:], w))
        assert weighted % entries[0] == b % entries[0]
        assert 0 <= weighted <= g + entries[0]
        done += 1


def test_brimkov_region_guarantee():
    # beyond the Brauer bound every right-hand side has a nonnegative witness
    for entries in ((3, 5), (5, 2, 3), (6, 10, 15), (7, 11, 13)):
        g = brauer_G(entries)
        for b in range(g + 1, g + 40):
            out = solve(ProblemInstance(a=IntMat([list(entries)]), b=(b,)))
            assert out.status == SolveStatus.NONNEGATIVE, (entries, b)


def test_frobenius_number_is_last_miss():
    # F itself is integer-only; F+1.. are all nonnegative. Both tuples have
    # F == G, so the witness guarantee covers the whole range above F.
    for entries in ((3, 5), (6, 10, 15)):
        f = frobenius_number_dp(entries)
        out = solve(ProblemInstance(a=IntMat([list(entries)]), b=(f,)))
        assert out.status == SolveStatus.INTEGER_ONLY
        for b in range(f + 1, f + 10):
            out = solve(ProblemInstance(a=IntMat([list(entries)]), b=(b,)))
            assert out.status == SolveStatus.NONNEGATIVE
