"""Machine-speed sampling inside a benchmark child.

The shared virtual machines this benchmark runs on change speed while they
run: by a third or more, within seconds, and every kind of work the
workloads do slows down with it.  ``probe`` times one small fixed piece of
the same kinds of work, without touching ``volterra_lab``: the interpreted
plain recursion over numpy scalars, the log-domain recursion with its
``math.exp`` per term, CSV-style float formatting and an ``np.convolve``.
``Sampler`` runs it from a wall-clock timer signal throughout a child's
set-up and run, so the probe sees the same speed the program sees.
``run.py`` subtracts the probe time and scales what is left to the probe's
nominal duration, so that a change of machine speed cancels and a change
of the program does not.
"""

from __future__ import annotations

import io
import math
import signal
import time

import numpy as np

# One probe's duration at the nominal speed, a round figure near its
# duration in the slower phases of the machine the baseline was measured on
# (2-vCPU Xeon virtual machine, 2.2 to 2.5 ms there).  It only fixes the
# unit of the adjusted times.
NOMINAL_S = 0.0025

_M = 40
_K = np.linspace(0.02, 0.01, _M)
_LK = np.log(_K)
_A = np.linspace(-1.0, 1.0, 1_200)


def _plain(steps):
    out = np.zeros(steps + _M)
    out[:_M] = 1.0
    for n in range(_M, _M + steps):
        acc = 0.0
        for j in range(_M):
            acc += _K[j] * out[n - 1 - j]
        out[n] = acc + 0.5


def _log(steps):
    out = np.ones(steps + _M)
    for n in range(_M, _M + steps):
        peak = -math.inf
        for j in range(_M):
            t = _LK[j] + out[n - 1 - j]
            if t > peak:
                peak = t
        acc = 0.0
        for j in range(_M):
            acc += math.exp(_LK[j] + out[n - 1 - j] - peak)
        out[n] = peak + math.log(acc) - _LK[0]


def _csv(rows):
    values = np.linspace(0.0, 1.0, 70)
    sink = io.StringIO()
    for n in range(rows):
        sink.write(f"{n},{float(values[n % 70]) * (n + 1)!r}\n")


def _convolve(times):
    for _ in range(times):
        np.convolve(_A, _A)


def probe() -> float:
    """Seconds one pass of the fixed work takes now."""
    started = time.perf_counter()
    _plain(30)
    _log(15)
    _csv(600)
    _convolve(1)
    return time.perf_counter() - started


class Sampler:
    """Runs ``probe`` every ``interval`` wall-clock seconds from SIGALRM.

    The handler runs between bytecodes of whatever the process is doing,
    so the probes spread over its run in proportion to wall time (a long C
    call delays the next one).  ``take`` returns the probe durations since
    the previous ``take``.
    """

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self._samples = []
        self._previous = None

    def _tick(self, signum, frame):
        self._samples.append(probe())

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def take(self) -> list:
        samples, self._samples = self._samples, []
        return samples


def trimmed_mean(samples: list) -> float:
    """Mean of the samples without the slowest tenth (rounded down).

    A probe hit by an interrupt or a host preemption reads several times
    slow; in a plain mean it would stand for its whole 50 ms slice.
    """
    kept = sorted(samples)[:len(samples) - len(samples) // 10]
    return sum(kept) / len(kept)


def speed(samples: list) -> float:
    """Nominal over typical probe duration: above 1 when the machine is fast."""
    return NOMINAL_S / trimmed_mean(samples)


if __name__ == "__main__":
    probe()
    print(" ".join(f"{probe() * 1e3:.3f}" for _ in range(10)), "ms")
