"""One-row systems: gcd chains, the Brauer bound, and Frobenius numbers.

For positive coprime a = (a_1, ..., a_n) the Frobenius number F(a) is the
largest integer with no nonnegative representation sum a_i x_i. The Brauer
bound G(a) dominates it and is cheap: with the running gcds
f_i = gcd(a_1, ..., a_i),

    G(a) = sum_{i >= 2} a_i * f_{i-1} / f_i  -  sum_i a_i.

Every b > G(a) is representable, so G marks the start of the range where the
one-row solver is guaranteed to return a nonnegative witness.
"""

from __future__ import annotations

import heapq
import math
from typing import Sequence

from .errors import CapExceededError, GcdNotOneError, NonPositiveEntryError


def _check_entries(entries: Sequence[int]) -> tuple[int, ...]:
    a = tuple(entries)
    if not a:
        raise NonPositiveEntryError("need at least one entry")
    for i, e in enumerate(a):
        if not isinstance(e, int) or isinstance(e, bool) or e <= 0:
            raise NonPositiveEntryError(f"entry {i} is {e!r}, expected a positive integer")
    return a


def f_chain(entries: Sequence[int]) -> tuple[int, ...]:
    """Running gcds f_i = gcd(a_1, ..., a_i).

    Raises:
        NonPositiveEntryError: if some entry is not a positive integer.
    """
    a = _check_entries(entries)
    out = []
    g = 0
    for e in a:
        g = math.gcd(g, e)
        out.append(g)
    return tuple(out)


def brauer_G(entries: Sequence[int]) -> int:
    """Brauer's representability bound for positive coprime entries.

    Raises:
        NonPositiveEntryError: if some entry is not a positive integer.
        GcdNotOneError: if the entries are not coprime.
    """
    chain = f_chain(entries)
    if chain[-1] != 1:
        raise GcdNotOneError(f"entries have gcd {chain[-1]}")
    a = tuple(entries)
    total = sum(a[i] * (chain[i - 1] // chain[i]) for i in range(1, len(a)))
    return total - sum(a)


def frobenius_number_dp(entries: Sequence[int], cap: int = 10**6) -> int:
    """Exact Frobenius number by shortest paths over residue classes.

    For modulus q = min(a), dist[r] is the smallest representable value
    congruent to r mod q; then F = max(dist) - q. Entries equal to 1 make
    every value representable, giving F = -1.

    Raises:
        NonPositiveEntryError: if some entry is not a positive integer.
        GcdNotOneError: if the entries are not coprime.
        CapExceededError: if the smallest entry exceeds ``cap``.
    """
    a = _check_entries(entries)
    if math.gcd(*a) != 1:
        raise GcdNotOneError(f"entries have gcd {math.gcd(*a)}")
    q = min(a)
    if q == 1:
        return -1
    if q > cap:
        raise CapExceededError(f"residue table of size {q} exceeds cap {cap}")
    dist = [None] * q
    dist[0] = 0
    heap = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if dist[r] is not None and d > dist[r]:
            continue
        for e in a:
            if e == q:
                continue
            nd, nr = d + e, (r + e) % q
            if dist[nr] is None or nd < dist[nr]:
                dist[nr] = nd
                heapq.heappush(heap, (nd, nr))
    return max(dist) - q

