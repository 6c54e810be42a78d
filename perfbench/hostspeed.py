"""Host-speed probe: rescales a timed interval to a fixed reference speed.

On a shared virtual machine the speed of a vCPU drifts by a factor of two
or more within seconds, and the guest sees no steal time.  Wall time then
follows the host more than the program.  The probe runs from a ``SIGALRM``
handler, every ``interval`` seconds, inside the interval being measured, so
it samples the same vCPU at the same moments as the program.  Each tick
times a fixed pure-Python loop (interpreter speed); with ``state_qubits``
set, every ``STATE_EVERY``-th tick also times one in-place pass over a
complex array the size of a state of that many qubits (memory speed), the
traffic of one statevector gate.  That array stays allocated, and so
resident, from the probe's creation to the process's end: ``resident_bytes``
is what it adds to the process's peak memory.

``normalize`` subtracts the probe's own time from the interval and divides
by the host's speed: the geometric mean, over the probe kinds taken, of the
mean sample over its reference duration.  A program that gets no faster
reads the same at any host speed, and one that does less work reads less in
proportion.  Nothing here imports ``spinsim``.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

PYTHON_LOOPS = 20_000
STATE_EVERY = 5
# Median durations on the 2-vCPU Xeon (2.0 GHz) development VM; they only
# set the scale of the reported seconds.
PYTHON_REFERENCE_S = 0.0012
STATE_REFERENCE_S_PER_AMPLITUDE = 2.5e-9


def python_step() -> float:
    """Duration of one fixed pure-Python loop."""
    start = time.perf_counter()
    total = 0
    for i in range(PYTHON_LOOPS):
        total += i
    return time.perf_counter() - start


class Probe:
    """Samples the host's speed from a real-time interval timer."""

    def __init__(self, state_qubits: int | None = None) -> None:
        self.python: list[float] = []
        self.state: list[float] = []
        self.inside_s = 0.0
        self._ticks = 0
        self._amps = None
        self.resident_bytes = 0
        if state_qubits is not None:
            import numpy as np

            self._multiply = np.multiply
            self._phase = complex(0.6, 0.8)
            self._amps = np.full(2**state_qubits, 2 ** (-state_qubits / 2), dtype=complex)
            self.resident_bytes = self._amps.nbytes

    def _state_step(self) -> float:
        start = time.perf_counter()
        self._multiply(self._amps, self._phase, out=self._amps)
        return time.perf_counter() - start

    def sample(self, state: bool = True) -> float:
        """Take one sample of each kind due; returns the time it took.

        Called once more after the interval, outside it, so that a short
        interval still has a sample of each kind.
        """
        start = time.perf_counter()
        self.python.append(python_step())
        if self._amps is not None and state:
            self.state.append(self._state_step())
        return time.perf_counter() - start

    def _fire(self, signum, frame) -> None:
        self._ticks += 1
        self.inside_s += self.sample(state=self._ticks % STATE_EVERY == 0)

    def start(self, interval: float) -> None:
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def summary(self) -> dict:
        summary = {"python": self.python, "inside_s": self.inside_s}
        if self._amps is not None:
            summary["state"] = self.state
            summary["state_amplitudes"] = self._amps.size
        return summary


def speed(summary: dict) -> float:
    """Host time per unit of work, relative to the reference; 1.0 at the reference speed."""
    ratios = [statistics.fmean(summary["python"]) / PYTHON_REFERENCE_S]
    if "state" in summary:
        reference = STATE_REFERENCE_S_PER_AMPLITUDE * summary["state_amplitudes"]
        ratios.append(statistics.fmean(summary["state"]) / reference)
    return math.prod(ratios) ** (1 / len(ratios))


def normalize(elapsed: float, summary: dict) -> float:
    """``elapsed`` less the probe's own time, at the reference host speed."""
    return (elapsed - summary["inside_s"]) / speed(summary)
