"""Host-speed reference, so that figures from a shared host compare.

On a host shared with other tenants the CPU speed one process gets
drifts: by up to a third over minutes, and as much over a few seconds,
moving every workload with it (see README.md, Noise). A fixed reference
kernel, timed about twice a second between pieces of the measured work
all through a run, measures that speed. A measured span's host factor is
the median time of the ticks within ``HostClock.reach`` seconds of it,
divided by ``NOMINAL_S``, and speed figures are given in reference
seconds: measured seconds divided by the host factor, that is, seconds on
a host where the kernel takes ``NOMINAL_S``.

The kernel mixes pure-Python integer work with numpy elementwise float32
work on cache-resident arrays, the two kinds of work rtar's hot paths mix.
It calls no rtar code and no BLAS, so neither a change to rtar nor a BLAS
thread setting made inside rtar moves it. Its time is never counted in a
measured figure.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

# Kernel time that defines one reference second: about what it took on the
# 2-core x86_64 host the benchmark was built on.
NOMINAL_S = 0.04

_A = np.linspace(0.5, 1.5, 256 * 256, dtype=np.float32).reshape(256, 256)


def kernel() -> None:
    s = 0
    for i in range(220_000):
        s += i * i % 7
    b = _A.copy()
    c = np.empty_like(b)
    for _ in range(250):
        np.multiply(_A, b, out=c)
        np.sqrt(c, out=c)
        c -= c.min()
        np.add(_A, c, out=b)
        b *= np.float32(0.5)


class HostClock:
    """Reference-kernel ticks of one measured phase."""

    every = 0.5  # seconds of measured work between ticks
    reach = 1.0  # seconds around a span whose ticks give its host factor

    def __init__(self):
        self.ticks: list[tuple[float, float]] = []  # (start, end)

    def tick(self, times: int = 1) -> None:
        for _ in range(times):
            t0 = perf_counter()
            kernel()
            self.ticks.append((t0, perf_counter()))

    def maybe_tick(self) -> None:
        """Tick when ``every`` seconds have passed since the last tick."""
        if not self.ticks or perf_counter() - self.ticks[-1][1] >= self.every:
            self.tick()

    def factor(self, t0: float = -math.inf, t1: float = math.inf) -> float:
        """Median kernel time over NOMINAL_S (above 1 on a slower host) of
        the ticks within ``reach`` of [t0, t1]; of all ticks when none is
        that near or no span is given."""
        near = [b - a for a, b in self.ticks if a >= t0 - self.reach and b <= t1 + self.reach]
        return statistics.median(near or [b - a for a, b in self.ticks]) / NOMINAL_S

    def ref(self, t0: float, t1: float) -> float:
        """The span [t0, t1], less the ticks inside it, in reference seconds."""
        ticked = sum(b - a for a, b in self.ticks if a >= t0 and b <= t1)
        return (t1 - t0 - ticked) / self.factor(t0, t1)
