"""Seeded random instance generation for the CLI and the test batteries."""

from __future__ import annotations

import contextlib
import math
import random

from .cone import _deep_thresholds, cone_coords, deep_cone_report
from .errors import GenerationFailedError, SingularError, require
from .lattice import BasisPartition, partition
from .linalg import IntMat, _adj_mul, dot, kernel_echelon
from .solver import GEN_MODES, ProblemInstance

_RETRIES = 1000
_COEFF_RANGE = 5


def push_into_deep_cone(part: BasisPartition, b: tuple[int, ...]) -> tuple[int, ...]:
    """Translate b along basis columns until the deep-cone test holds.

    Adds B k for the basis block B of ``part`` and the
    componentwise-minimal nonnegative integer vector k; every facet margin
    grows by exactly k_i, so the minimal k per facet is found directly. In
    the integers of ``deep_cone_report`` (p_i = D (B^-1 b)_i, D = |det B|,
    g the gcd), facet i needs ``g (p_i + k_i D) >= r_i`` with ``r_i`` the
    ceiling of ``sqrt(l_N^2 (D - g)^2 ||adj_i||^2)``.
    """
    det, adj, b_mat, n_mat = part.det, part.adj, part.b_mat, part.n_mat
    gcd_a = kernel_echelon(det, part.adj_n)[1]
    _, norms = _deep_thresholds(det, adj, n_mat, gcd_a)
    shift = []
    for p, v in zip(cone_coords(det, _adj_mul(adj, b)), norms):
        r = math.isqrt(v - 1) + 1 if v else 0  # ceil(sqrt(v))
        shift.append(max(0, -((gcd_a * p - r) // (gcd_a * abs(det)))))
    out = tuple(e + dot(row, shift) for e, row in zip(b, b_mat))
    require(
        deep_cone_report(det, adj, n_mat, gcd_a, _adj_mul(adj, out)).holds,
        "deep-cone push: the shifted right-hand side fails the test",
        (b_mat, n_mat, b),
    )
    return out


def generate_instance(
    m: int, n: int, seed: int, mode: str = "feasible", max_entry: int = 10
) -> ProblemInstance:
    """Seeded instance with a nonsingular leading basis block.

    Modes: "feasible" builds b = A x for a random nonnegative x; "deep"
    additionally translates b until the deep-cone condition holds (so a
    nonnegative witness is guaranteed); "boundary" puts b on a facet of the
    cone of the basis block.

    Raises:
        GenerationFailedError: if no usable matrix shows up within the retry
            budget, or the parameters are out of range.
    """
    if mode not in GEN_MODES:
        raise GenerationFailedError(f"unknown mode {mode!r}, expected one of {GEN_MODES}")
    if m < 1 or n <= m:
        raise GenerationFailedError(f"need n > m >= 1, got m={m} n={n}")
    if max_entry < 1:
        raise GenerationFailedError(f"max_entry must be positive, got {max_entry}")
    rng = random.Random(seed)
    for _ in range(_RETRIES):
        a_mat = IntMat(
            [[rng.randint(-max_entry, max_entry) for _ in range(n)] for _ in range(m)]
        )
        with contextlib.suppress(SingularError):  # a singular leading block: draw again
            part = partition(a_mat, range(m))
            break
    else:
        raise GenerationFailedError(
            f"no nonsingular leading block in {_RETRIES} draws (m={m}, n={n})"
        )
    if mode == "boundary":
        y = [rng.randint(0, _COEFF_RANGE) for _ in range(m)]
        y[rng.randrange(m)] = 0
        b = part.b_mat.mul_vec(y)
    else:
        x = [rng.randint(0, _COEFF_RANGE) for _ in range(n)]
        b = a_mat.mul_vec(x)
        if mode == "deep":
            b = push_into_deep_cone(part, b)
    return ProblemInstance(a=a_mat, b=tuple(b))
