"""Host speed, sampled between rounds, so that op times read in reference time.

The benchmark runs on a few cores of a shared host whose speed moves by a
quarter or more within a minute: fixed work and the program's ops slow
down and speed up together. After every round the benchmark times a fixed
calibration unit: many numpy calls on small arrays, or numpy over large
arrays (a slab test of rays against boxes, as a renderer does). Each
workload names its unit, the one whose time tracked that workload's op
times most closely on the host the benchmark was built on (see NOTES.md).

A round's factor is the median of the samples of the rounds around it
over the unit's reference time; an op's time divided by its round's
factor is its *reference time*, the time it would take on a host where
the unit runs in its reference time. The units are fixed code of the
benchmark, so a change to the program moves reference times as it moves
wall times.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# Each unit's reference time is its median time on the 2-core host the
# benchmark was built on, in a process set up as run.py sets it up.
SAMPLE_MS = 30.0  # a sample times the unit this long, and keeps the median unit time
WINDOW = 2  # a round's factor uses the samples of the rounds up to this far away


class NumpySmallUnit:
    """Call-bound numpy: many calls on arrays of a few hundred elements."""

    reference_ms = 0.8

    def __init__(self):
        rng = np.random.default_rng(0)
        self._values = rng.random(600)
        self._keys = rng.integers(0, 50, 600)
        self._points = rng.random((200, 3))

    def __call__(self) -> float:
        total = 0.0
        for _ in range(20):
            keys, counts = np.unique(self._keys, return_counts=True)
            sums = np.zeros(50)
            np.add.at(sums, self._keys, self._values)
            total += float(sums.max()) + int(counts.sum()) + float(np.linalg.norm(self._points.mean(axis=0)))
        return total


class NumpyLargeUnit:
    """Bandwidth-bound numpy: a slab test of 1400 rays against 12 boxes."""

    reference_ms = 2.7

    def __init__(self):
        rng = np.random.default_rng(0)
        rays = rng.normal(size=(1400, 3))
        inv = 1.0 / np.where(np.abs(rays) < 1e-12, 1e-12, rays)
        lo = rng.uniform(-4.0, 4.0, size=(12, 3))
        hi = lo + rng.uniform(0.1, 2.0, size=(12, 3))
        origin = rng.uniform(-1.0, 1.0, size=3)
        self._inv = inv[:, None, :]
        self._lo, self._hi = (lo - origin)[None, :, :], (hi - origin)[None, :, :]
        # The unit writes into these buffers and allocates next to nothing,
        # so its time does not depend on the allocator's state.
        self._a, self._b, self._c = (np.empty((1400, 12, 3)) for _ in range(3))
        self._near, self._far, self._dist = (np.empty((1400, 12)) for _ in range(3))
        self._hit = np.empty((1400, 12), dtype=bool)

    def __call__(self) -> int:
        np.multiply(self._lo, self._inv, out=self._a)
        np.multiply(self._hi, self._inv, out=self._b)
        np.minimum(self._a, self._b, out=self._c)
        self._c.max(axis=2, out=self._near)
        np.maximum(self._a, self._b, out=self._c)
        self._c.min(axis=2, out=self._far)
        np.less_equal(self._near, self._far, out=self._hit)
        self._dist.fill(np.inf)
        np.copyto(self._dist, self._near, where=self._hit)
        return int(self._dist.argmin(axis=1).sum())


UNITS = {"numpy_small": NumpySmallUnit, "numpy_large": NumpyLargeUnit}


class HostSpeed:
    def __init__(self, unit: str):
        self.unit = UNITS[unit]()
        self.samples: dict[int, float] = {}  # round index -> median unit time, ms

    def sample(self, round_index: int) -> None:
        """Time the calibration unit after a round.

        The collector is off meanwhile: when it runs, and for how long,
        depends on the objects the program left behind, so with it on the
        unit's time would read the heap as well as the host.
        """
        times = []
        collecting = gc.isenabled()
        gc.disable()
        try:
            end = time.perf_counter() + SAMPLE_MS / 1e3
            while not times or time.perf_counter() < end:
                start = time.perf_counter()
                self.unit()
                times.append(time.perf_counter() - start)
        finally:
            if collecting:
                gc.enable()
        self.samples[round_index] = 1e3 * statistics.median(times)

    def factors(self) -> dict[int, float]:
        """Per round, how much slower than the reference the host ran around it."""
        out = {}
        for round_index in self.samples:
            near = [ms for index, ms in self.samples.items() if abs(index - round_index) <= WINDOW]
            out[round_index] = statistics.median(near) / self.unit.reference_ms
        return out
