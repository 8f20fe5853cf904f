"""The machine's current speed, from fixed reference work run between timed calls.

On a shared virtual machine the same code runs up to about 1.5 times
faster or slower, in spells of a fraction of a second to minutes, as other
tenants come and go. A run therefore times fixed reference work between its
timed calls and scales each time to a machine on which that work takes a
fixed time. The reference uses nothing from the package, so a change to the
package cannot move it.

Two references, because in-process work and whole processes do not slow
down together:

- ``reference_work``, a loop of standard-library work (the interpreter
  loop, big-int and ``Fraction`` arithmetic, which is what a solve spends
  its time on), for calls made in process;
- a bare interpreter start, ``python -I -S -c pass``, for ``diobox solve``
  processes, whose time follows process start-up far more closely than
  arithmetic.

Each time is scaled by the samples taken around it, not by one figure for
the whole run: the speed changes within seconds, and the nearest samples
follow it best.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

REF_MS = 2.5  # reference_work's time on the machine the figures are scaled to
SPAWN_REF_MS = 15.0  # a bare interpreter start's time on that machine
_MODULUS = 10**300 + 7


def reference_work() -> int:
    acc = 0
    for i in range(3000):
        acc += i * 7919 % 13
    x = 3**400
    for _ in range(300):
        x = x * x % _MODULUS
    f = Fraction(0)
    for i in range(1, 200):
        f += Fraction(i * 7919, i + 13)
    return acc + x % 1000003 + f.numerator % 1000003


_EXPECTED = reference_work()


def check_reference_work() -> None:
    if reference_work() != _EXPECTED:
        raise AssertionError("the reference loop gave a different result")


class Speed:
    """Samples of one kind of reference work, taken between the timed
    blocks of one run.

    A timed block runs between two samples: the one ``start`` or the
    previous ``block`` took, and the one ``block`` takes. Its scale factor
    comes from the median of the samples from WINDOW before its start to
    WINDOW after its end, which damps the jitter of single samples and
    still follows changes of speed within a second.
    """

    WINDOW = 2

    def __init__(self, reference, ref_ms: float):
        self.reference = reference  # runs the reference work once; raises if it went wrong
        self.ref_ms = ref_ms
        self.samples: list[float] = []

    def start(self) -> None:
        """Start a timed block with a sample."""
        t0 = perf_counter()
        self.reference()
        self.samples.append(perf_counter() - t0)

    def block(self) -> int:
        """End the current timed block with a sample, which also starts the
        next one; return the ended block's id."""
        self.start()
        return len(self.samples) - 2

    def factor(self, block: int) -> float:
        """What a time measured in ``block`` is multiplied by to get it at reference speed."""
        window = self.samples[max(0, block - self.WINDOW) : block + 2 + self.WINDOW]
        return self.ref_ms / 1e3 / statistics.median(window)

    def median_ms(self) -> float:
        return 1e3 * statistics.median(self.samples)
