"""The speed calibration that every time the benchmark reports is scaled by.

The machines the benchmark runs on are shared, and their speed drifts by
tens of percent over minutes and by several percent from one pass to the
next.  So just before every timed pass, and inside every child that times
`import mvsl`, the benchmark runs `calibrate()`: a fixed pure-Python
workload that no change to mvsl can alter.  The measured time is then
scaled by CAL_REF / (that calibration's time), so the reported seconds are
those of a machine on which the calibration takes CAL_REF seconds.  Raw
medians are printed beside them.

The calibration builds and sums a binary tree of small objects by
recursive method calls, which is how an interpreter spends its time.  A
tight arithmetic loop, scaled per block of passes, tracked the VM's
slowdowns about half as well.
"""

from __future__ import annotations

from time import perf_counter

CAL_DEPTH = 12
CAL_REPEATS = 3
CAL_REF = 0.006


class _Node:
    __slots__ = ("left", "right", "value")

    def __init__(self, left, right, value):
        self.left, self.right, self.value = left, right, value

    def total(self) -> int:
        return (self.value + (self.left.total() if self.left else 0)
                + (self.right.total() if self.right else 0))


def _tree(depth: int):
    return _Node(_tree(depth - 1), _tree(depth - 1), depth) if depth else None


def calibrate() -> float:
    start = perf_counter()
    for _ in range(CAL_REPEATS):
        _tree(CAL_DEPTH).total()
    return perf_counter() - start
