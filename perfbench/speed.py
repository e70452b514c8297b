"""Host speed calibration for timings taken on a shared machine.

On a shared host the throughput of a core drifts by tens of percent over
seconds to minutes, and all code in the process slows together. While an
operation runs, a SIGALRM handler reads a fixed kernel that does not touch
matbody every PERIOD_S; a reading is also taken just before and just after
the operation. The operation is reported in reference seconds:

    (measured seconds - time spent in readings) x mean(REFERENCE_S / reading)

that is, the time it would take on a host where the kernel takes REFERENCE_S.
Readings come at even intervals, and the work done in an interval is
proportional to 1 / reading, hence the mean of the inverse.
A change to matbody moves the measured seconds and not the readings, so it
shows in full.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

# One kernel reading on a quiet 2-vCPU x86-64 host with Python 3.11.7 and
# numpy 2.4.6; it only sets the scale of the reported seconds.
REFERENCE_S = 0.0068
PERIOD_S = 0.25

_I3 = np.eye(3)
_LO = -np.ones(3)
_HI = np.ones(3)


def kernel() -> float:
    """The small-array numpy and interpreter work a response evaluation does."""
    acc = 0.0
    x = np.zeros(3)
    F0 = np.eye(3) + 0.1
    for _ in range(300):
        xp = np.asarray(x, dtype=float)
        inside = bool(np.all(xp >= _LO) and np.all(xp <= _HI))
        Fm = np.asarray(F0, dtype=float)
        det = abs(np.linalg.det(Fm))
        D = Fm.T @ Fm - _I3
        v = np.asarray(np.array([np.sum(D * D)]), dtype=float).reshape(1)
        acc += float(v[0]) + det + inside + bool(np.all(np.isfinite(v)))
    return acc


def kernel_seconds() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Speed:
    """Kernel readings and the reference-seconds conversion built on them."""

    def __init__(self, read=kernel_seconds, reference: float = REFERENCE_S):
        self._read = read
        self.reference = reference
        self.readings = []
        self._spent = 0.0        # wall seconds spent taking readings
        self._busy = False

    def read(self) -> float:
        start = time.perf_counter()
        value = self._read()
        self.readings.append(value)
        self._spent += time.perf_counter() - start
        return value

    def _on_alarm(self, _signum, _frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            self.read()
        finally:
            self._busy = False

    @contextlib.contextmanager
    def sampling(self):
        """Take readings every PERIOD_S inside the block (main thread only)."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def start(self) -> tuple:
        """Take the opening reading of an interval; pass the token to stop()."""
        self.read()
        return len(self.readings) - 1, self._spent, time.perf_counter()

    def stop(self, token) -> tuple:
        """(measured seconds, reference seconds) of the interval since start()."""
        end = time.perf_counter()
        first, spent, begin = token
        seconds = end - begin - (self._spent - spent)
        self.read()
        scale = statistics.fmean(self.reference / r for r in self.readings[first:])
        return seconds, seconds * scale
