"""A clock that reads seconds at a fixed reference speed of the machine.

On a shared host the speed of the CPU the benchmark gets moves by up to
2x within seconds and drifts for minutes, so raw wall times of the same
code spread wider between runs than any bound can tolerate.  While the
clock runs, a timer interrupts the program every `INTERVAL_S` seconds
and times `reference_slice`, a fixed piece of pure-Python work of the
kind the program does (small-integer arithmetic, tuples, dict lookups,
calls, a sort).  Each stretch of program time between two interrupts is
scaled by `NOMINAL_S` over the time the slice took at its end.  A
program that does the same work therefore reads about the same paced
time whatever the host's speed, while a program that does more or
slower work reads more: the slice is the benchmark's own code and no
change to the package can alter it.

The time the slices take is not counted as program time: `raw()` is
wall time minus the slices.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.01
# About the seconds one reference slice takes between stretches of the
# program on a 2-core 2.0 GHz x86-64 VM under CPython 3.11; paced
# seconds are seconds at that speed.
NOMINAL_S = 0.00035

# small enough to stay in cache, so that the program's own memory
# traffic barely slows the slice
_TABLE = {(a, b): (a * b + 7) % 17 for a in range(17) for b in range(17)}


def _mul(a: int, b: int) -> int:
    return _TABLE[(a % 17, b % 17)]


def reference_slice() -> int:
    acc = 0
    seen = set()
    for a in range(20):
        row = []
        for b in range(20):
            p = _mul(a, b + acc)
            row.append((p, a ^ b))
            acc = (acc + p) % 97
        row.sort()
        seen.update(x for x, _ in row[::3])
    return acc + len(seen)


class PacedClock:
    """`now()` is paced seconds, `raw()` wall seconds without the slices."""

    def __init__(self) -> None:
        self.paced = 0.0
        self.stolen = 0.0
        self.ticks = 0
        self.samples: list[float] = []
        self.mark = 0.0
        self.factor = 1.0

    def start(self) -> None:
        self.factor = NOMINAL_S / self._sample()
        self.mark = time.perf_counter()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self) -> float:
        start = time.perf_counter()
        reference_slice()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        sample = self._sample()
        self.factor = NOMINAL_S / sample
        self.paced += (start - self.mark) * self.factor
        self.mark = time.perf_counter()
        self.stolen += self.mark - start
        self.ticks += 1

    def _consistent(self, read) -> float:
        while True:  # read again if a tick landed in between
            ticks = self.ticks
            value = read()
            if ticks == self.ticks:
                return value

    def now(self) -> float:
        return self._consistent(lambda: self.paced + (time.perf_counter() - self.mark) * self.factor)

    def raw(self) -> float:
        return self._consistent(lambda: time.perf_counter() - self.stolen)


class WallClock:
    """The same interface without pacing, for traced and micro runs."""

    samples = ()

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass

    def now(self) -> float:
        return time.perf_counter()

    raw = now
