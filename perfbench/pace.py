"""Gauge how fast the shared host runs while a block of work is timed.

The benchmark shares a few cores of a host whose speed wanders by a third
in phases of seconds to minutes, whatever the benchmark itself does. A
probe is a fixed, tiny job: small dense solves and array arithmetic on
12 x 12 matrices driven from a Python loop, the same kind of work the
package's samplers do, and it never touches the package. ``Pace`` runs a
probe right before and right after a block and, if asked, every
``PERIOD_S`` seconds inside it from a SIGALRM handler, so that the probes
see the host at the same moments as the block. The probes' own time is
taken out of the block's wall time, and scaling what is left by
``REFERENCE_S`` over the probes' mean CPU time gives the wall time the
block would have taken on a host where a probe takes ``REFERENCE_S``.
A change to the package moves the block's time and not the probes', so
it shows in full.

A probe is timed by its thread's CPU time, so waiting for the GIL or for
a CPU the block's own workers hold does not read as a slow host.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter, thread_time

import numpy as np

# A probe's CPU time on a quiet 2 GHz Xeon vCPU with single-threaded
# OpenBLAS (5th percentile of 2000 probes), so that scaled times read
# about as wall times there; a fixed constant, so that they stay
# comparable between commits.
REFERENCE_S = 0.0032
ROUNDS = 300
PERIOD_S = 0.1

_rng = np.random.default_rng(20060)
_A = _rng.standard_normal((12, 12))
_S = _A @ _A.T + 12.0 * np.eye(12)
_V = _rng.standard_normal(12)


def probe() -> tuple[float, float]:
    """Wall and CPU seconds of one pass of the probe job."""
    w0, c0 = perf_counter(), thread_time()
    x = _V.copy()
    for _ in range(ROUNDS):
        x = np.linalg.solve(_S, x + _V)
        x = x / (1.0 + np.abs(x).sum())
    if not np.all(np.isfinite(x)):
        raise FloatingPointError("probe job produced non-finite values")
    return perf_counter() - w0, thread_time() - c0


class Pace:
    """Time a block net of its probes; ``scaled()`` is that at reference speed.

    With ``during=False`` only the probes around the block run, for
    blocks that must not be interrupted (traced runs, whose spans would
    count the probes) or that wait on other processes.
    """

    def __init__(self, during: bool = True):
        self.during = during
        self.cpu: list[float] = []
        self.wall = float("nan")
        self._in_block = 0.0

    def _tick(self, signum, frame) -> None:
        wall, cpu = probe()
        self._in_block += wall
        self.cpu.append(cpu)

    def __enter__(self) -> "Pace":
        self.cpu.append(probe()[1])
        if self.during:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        elapsed = perf_counter() - self._t0
        if self.during:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        self.wall = elapsed - self._in_block
        self.cpu.append(probe()[1])
        return False

    def scaled(self) -> float:
        return at_reference(self.wall, self.cpu)


def at_reference(wall: float, probe_cpu: list[float]) -> float:
    """``wall`` on a host where a probe takes ``REFERENCE_S`` of CPU time."""
    return wall * REFERENCE_S / statistics.mean(probe_cpu)
