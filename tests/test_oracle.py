import pytest

from diobox import DimensionMismatchError, IntMat

from brute_force import EnumerationBudget, brute_force_all, brute_force_solve


def test_finds_first_in_lex_order():
    res = brute_force_solve(IntMat([[2, 3]]), (7,))
    assert res.status == "found"
    assert res.x == (2, 1)
    assert res.conclusive


def test_infeasible_is_conclusive_for_positive_matrix():
    res = brute_force_solve(IntMat([[2, 4]]), (3,))
    assert res.status == "none_within_bounds"
    assert res.x is None
    assert res.conclusive


def test_negative_rhs_with_nonnegative_matrix():
    res = brute_force_solve(IntMat([[2, 3]]), (-1,))
    assert res.status == "none_within_bounds"
    assert res.conclusive


def test_all_solutions_small_system():
    sols, complete = brute_force_all(IntMat([[2, 0, 1], [0, 2, 1]]), (3, 3))
    assert complete
    assert sols == ((0, 0, 3), (1, 1, 1))


def test_negative_entries_never_conclusive():
    # x1 - 2x2 = 1 has witnesses, but a missing witness proves nothing
    res = brute_force_solve(IntMat([[1, -2]]), (1,))
    assert res.status == "found" and res.conclusive
    res = brute_force_solve(IntMat([[2, -2]]), (1,), EnumerationBudget(per_variable=40))
    assert res.status == "none_within_bounds"
    assert not res.conclusive


def test_zero_column_never_conclusive():
    # a zero column cannot be bounded by residuals
    res = brute_force_solve(
        IntMat([[2, 0]]), (5,), EnumerationBudget(per_variable=10)
    )
    assert res.status == "none_within_bounds"
    assert not res.conclusive


def test_budget_clip_marks_inconclusive():
    # the true bound for x2 is 5, the budget stops at 2: incomplete search
    res = brute_force_solve(IntMat([[1, 1]]), (5,), EnumerationBudget(per_variable=2))
    assert res.status == "none_within_bounds"
    assert not res.conclusive
    res = brute_force_solve(IntMat([[1, 1]]), (5,))
    assert res.status == "found" and res.x == (0, 5)


def test_node_cap_reports_exhausted():
    res = brute_force_solve(
        IntMat([[1, 1, 1, 1]]), (50,), EnumerationBudget(max_nodes=10)
    )
    assert res.status == "exhausted"
    assert not res.conclusive
    assert res.x is None


def test_dimension_check():
    with pytest.raises(DimensionMismatchError):
        brute_force_solve(IntMat([[1, 2]]), (1, 2))


def test_found_solutions_verify():
    import random

    from diobox import verify

    rng = random.Random(51)
    found = 0
    for _ in range(150):
        m = rng.randint(1, 2)
        n = rng.randint(m + 1, 4)
        a = IntMat([[rng.randint(0, 6) for _ in range(n)] for _ in range(m)])
        b = tuple(rng.randint(0, 18) for _ in range(m))
        res = brute_force_solve(a, b, EnumerationBudget(per_variable=50, max_nodes=200_000))
        if res.status == "found":
            assert verify(a, b, res.x)
            found += 1
    assert found > 20


def test_all_matches_single():
    sols, complete = brute_force_all(IntMat([[3, 5]]), (15,))
    assert complete and sols == ((0, 3), (5, 0))
    first = brute_force_solve(IntMat([[3, 5]]), (15,))
    assert first.x == sols[0]
