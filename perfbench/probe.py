"""Machine-speed probe: fixed work that runs no code of the package.

The benchmark runs on shared machines whose speed drifts by up to 2x
within a minute (neighbours on the same cores), and interpreter-bound
code drifts more than numpy-bound code.  Each timed sample is paired
with a probe run just before it, and the gated timings are scaled to
the probe's nominal speed:

    scaled = raw * (nominal_s / probe_s)      for a duration,
    scaled = raw * (probe_s / nominal_s)      for a rate.

Two kernels cover the two kinds of code the workloads run:
``numpy`` (uint64 multiply/shift/mask passes, 16 times over a
64K-element array: the shape of the prime-field hash on one ingest
chunk, and a footprint under 2 MiB, so the probe never sets the
process's peak RSS) and ``python`` (an interpreter loop
of dict lookups, small-object creation and method calls, the shape of
the query and per-item paths).  ``mixed`` is their geometric mean.
Raw timings are printed next to the scaled ones.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: Nominal probe durations (about a fast phase of a 2-vCPU VM); they
#: only fix the scale of the scaled metrics and must never change.
NOMINAL_S = {"numpy": 0.009, "python": 0.008}

_ARRAY = np.random.default_rng(0).integers(
    0, 2**31, size=1 << 16, dtype=np.int64
).astype(np.uint64)
_TABLE = {i: i for i in range(4096)}


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def get(self) -> int:
        return self.value


def _numpy_kernel() -> None:
    for _ in range(16):
        acc = _ARRAY * np.uint64(3)
        for _ in range(3):
            acc = (acc >> np.uint64(31)) + (
                acc & np.uint64(2**31 - 1)
            ) * np.uint64(7)


def _python_kernel() -> None:
    table = _TABLE
    x = 0
    for i in range(20000):
        x = (x * 31 + _Cell(table[i & 4095]).get()) % 1000003


def _timed(kernel) -> float:
    started = time.perf_counter()
    kernel()
    return time.perf_counter() - started


class Probe:
    """Paired probe samples for one run."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {"numpy": [], "python": []}

    def sample(self) -> dict[str, float]:
        """Run both kernels once; returns the speed factors
        (``probe_s / nominal_s``; above 1 means a slow machine)."""
        numpy_s = _timed(_numpy_kernel)
        python_s = _timed(_python_kernel)
        self.samples["numpy"].append(numpy_s)
        self.samples["python"].append(python_s)
        factors = {
            "numpy": numpy_s / NOMINAL_S["numpy"],
            "python": python_s / NOMINAL_S["python"],
        }
        factors["mixed"] = math.sqrt(factors["numpy"] * factors["python"])
        return factors
