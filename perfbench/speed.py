"""Machine-speed sampling, and the scaling of job times to reference speed.

Shared virtual machines (measured: a 2-vCPU VM) switch between speed
modes that differ by up to ~1.6x, on a scale of seconds, whatever the
benchmark does; wall time alone then measures the box more than the
program. While the timed rounds run, a SIGALRM interval timer makes the
workload's own main thread run a fixed ~0.3 ms chunk of small numpy
ops and Python arithmetic (incflow's own mix) twice about every 20 ms
(~3 % of the run) and time the second, warm run, so each sample
measures the core the work runs on at that moment rather than the cache
state the interrupted work left behind. ``scale`` turns a job's wall
interval into reference-speed seconds: wall time times the mean of
REF_CHUNK_S / chunk time over the samples taken during the job. Set-up
time, over before sampling can start, is scaled by a burst of chunks
taken right after it.
"""

from __future__ import annotations

import signal
import time

import numpy as np

REF_CHUNK_S = 300e-6  # chunk time that defines "reference speed"
PERIOD_S = 0.02


def _chunk(x: np.ndarray) -> float:
    s = 0.0
    for _ in range(40):
        s += float(np.maximum(x * 1.5 - 0.2, 0.0).sum())
    for k in range(2000):
        s += k * 0.5
    return s


class Sampler:
    """Records (start, duration) of the chunk on every timer tick."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._x = np.random.default_rng(0).random((64, 2))

    def _tick(self, signum, frame) -> None:
        _chunk(self._x)  # warm the caches the interrupted work left cold
        t = time.monotonic()
        _chunk(self._x)
        self.samples.append((t, time.monotonic() - t))

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def factor_now(chunks: int = 64) -> float:
    """Mean REF_CHUNK_S / chunk time over a burst of chunks (~20 ms): the
    factor that turns a wall time measured just before into reference-speed
    seconds."""
    x = np.random.default_rng(0).random((64, 2))
    ratios = []
    for _ in range(chunks):
        t = time.monotonic()
        _chunk(x)
        ratios.append(REF_CHUNK_S / (time.monotonic() - t))
    return float(np.mean(ratios))


def scale(samples: np.ndarray, start: float, end: float) -> float:
    """Reference-speed seconds of the wall interval [start, end].

    ``samples`` is an (k, 2) array of (start, duration). A job too short
    to hold a sample uses the sample nearest to it.
    """
    t, c = samples[:, 0], samples[:, 1]
    inside = (t >= start) & (t <= end)
    if not inside.any():
        inside[np.argmin(np.abs(t - 0.5 * (start + end)))] = True
    return (end - start) * float(np.mean(REF_CHUNK_S / c[inside]))
