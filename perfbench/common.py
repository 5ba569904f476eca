"""Shared pieces of the benchmark: sizes, inputs, statistics, header.

Every input is generated here from the workload seed; the program
under test receives only the generated items (its own sketch seed is
the fixed :data:`SKETCH_SEED`).
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

#: Checkout root (the directory holding ``BENCHMARK.json``).
ROOT = Path(__file__).resolve().parent.parent
#: Where the package under test lives inside the checkout.
SRC = ROOT / "src"
#: The sketch randomness seed handed to the program: a constant (the
#: library's default), so the workload seed reaches only the inputs.
SKETCH_SEED = 0
#: The library scenario every stream is drawn from (default skew).
STREAM_SCENARIO = "zipf"
#: Prefix of the traced server's last stdout line (span aggregates).
TRACE_PREFIX = "PERFBENCH_TRACE "
#: serve-mixed's queries per append: ``generate_load``'s default.  Half
#: are point queries, the first of which reads the append back
#: (``max_staleness=0``); half are ``query-batch`` calls.
QUERIES_PER_APPEND = 8


@dataclass(frozen=True)
class Sizes:
    """Every size a workload depends on.  ``full`` is the benchmark;
    ``tiny`` exists for the benchmark's own tests."""

    n: int = 1 << 16
    #: batch-hashed: items per pass (each family ingests all of them).
    hashed_items: int = 1 << 20
    #: batch-few-writes: items per pass.
    few_writes_items: int = 1 << 17
    #: Engine.run chunk size for the batch workloads.
    chunk_size: int = 1 << 16
    #: Point-query items drawn per pass, and the query-batch size.
    query_items: int = 2048
    batch_items: int = 64
    #: Set-up repetitions whose median is ``setup_s`` (batch: stream
    #: and engines; serve-mixed: server spawn to ready line).
    setup_repeats: int = 9
    #: serve-mixed: append size and offered appends/s.  The mix
    #: (:data:`QUERIES_PER_APPEND`) is offered at half its closed-loop
    #: rate over the socket (``capacity.py``: median 78 rounds/s over
    #: five runs on a 2-vCPU VM), so 39 appends/s and 156/s of each
    #: query verb.
    append_items: int = 2048
    append_rate: float = 39.0
    #: serve-mixed drain phase: bursts of pipelined appends (a multiple
    #: of 4 each, so the run ends on a snapshot-cadence boundary).
    drain_bursts: int = 24
    drain_burst_appends: int = 48
    #: The most frequent items, whose answers give
    #: ``estimate_rel_error`` (and, served, the snapshot comparison).
    top_items: int = 256
    #: Shards for the hashed workloads and the server.
    shards: int = 8


FULL = Sizes()
TINY = replace(
    FULL,
    n=1 << 12,
    hashed_items=1 << 14,
    few_writes_items=1 << 12,
    chunk_size=1 << 12,
    query_items=64,
    batch_items=16,
    setup_repeats=1,
    append_rate=20.0,
    drain_bursts=2,
    drain_burst_appends=4,
    top_items=32,
)
SIZES = {"full": FULL, "tiny": TINY}


def materialize(sizes: Sizes, m: int, seed: int) -> np.ndarray:
    """The workload stream: ``m`` items over ``[0, n)`` from the
    library's registered ``zipf`` scenario, seeded by ``seed``."""
    from repro.workloads import Workload

    return Workload(STREAM_SCENARIO, n=sizes.n, m=m, seed=seed).materialize(
    ).to_array()


def draw_queries(stream: np.ndarray, count: int, seed: int) -> np.ndarray:
    """``count`` query items drawn from the stream's own occurrences,
    so hot items are asked about as often as they arrive."""
    rng = np.random.default_rng([seed, 1])
    return stream[rng.integers(0, len(stream), size=count)]


def top_items(freq: np.ndarray, count: int) -> np.ndarray:
    """The ``count`` most frequent items (ties broken by item)."""
    order = np.lexsort((np.arange(len(freq)), -freq))
    return order[:count][freq[order[:count]] > 0]


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation); 0 when empty."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def own_peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of process ``pid``, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", *args],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def header(workload: str, seed: int, seconds: int, trace: bool,
           size: str) -> dict:
    """Provenance of one result: code, interpreter, CPUs, run."""
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    return {
        "git_sha": sha or "unknown",
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "usable_cpus": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
        "run_seconds": seconds,
        "trace": trace,
        "size": size,
    }


@dataclass
class Outcome:
    """What one workload run produced.

    ``attempted``/``failed`` count operations (runs, queries, requests,
    correctness checks); ``failures`` names every failed one.
    """

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        """Count one correctness check; record it when it fails."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def fail(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.failures.append(what)


def child_env() -> dict[str, str]:
    """Environment for subprocesses: the checkout's ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def import_repro() -> None:
    """Put the checkout's ``src`` first on ``sys.path``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
