"""The closed batch workloads: ``Engine.run`` over a seeded stream.

``batch-hashed``   count-min and count-sketch, 8 hash-partitioned
                   shards each: routing, k-wise hashing, linear kernels.
``batch-few-writes`` sample-and-hold, pstable-fp and count-min-morris,
                   unsharded: Morris counters, Philox coins, p-stable
                   variates — the paper's few-state-change families.

A *pass* runs every family of the workload once over the whole stream
(serial executor, chunked ingest), then asks its moment query and a
fixed set of point queries, one at a time (``Engine.query``) and in
64-item batches (``Engine.query_many``).  Query latencies are kept per
family and pass; a workload's latency percentile is the geometric mean
over its point families of the median over passes of each pass's
percentile, so one slow family does not decide which family a pooled
percentile lands in.  Every timed block is paired with a machine-speed
probe run just before it (:mod:`probe`); the gated timings are scaled
by it, and the raw ones are printed as ``<metric>.raw``.  ``estimate_rel_error`` is, in
the same way, the geometric mean over point families of the median
relative error on the most frequent items; moment errors are checked
and printed per family.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from checks import (
    PointBound,
    check_moment,
    check_points,
    check_stable_moment,
    exact_moment,
)
from common import (
    SKETCH_SEED,
    Outcome,
    Sizes,
    draw_queries,
    materialize,
    median,
    own_peak_rss_mb,
    percentile,
    top_items,
)
from probe import Probe


@dataclass(frozen=True)
class Family:
    name: str
    shards: int
    epsilon: float
    #: Point-query guarantee (``None``: the family answers no points).
    point: PointBound | None = None
    #: Moment guarantee: the accuracy the registry sizes the family for.
    moment_epsilon: float | None = None
    #: Whether the moment is Indyk's median of p-stable rows, checked
    #: against the sketch's row count (:func:`check_stable_moment`).
    stable_moment: bool = False
    #: Share of the workload's query items this family is asked about
    #: per pass (sample-and-hold answers a point query in ~30-60 ms).
    query_share: float = 1.0
    #: Whether its query latencies enter the workload's percentiles.
    #: Sample-and-hold's query cost follows the state the stream leaves
    #: behind, so it moves by a third from one seed to the next; it is
    #: printed per family instead.
    timed: bool = True


def families(workload: str, sizes: Sizes) -> tuple[Family, ...]:
    """The families a batch workload runs, with their guarantees.

    Epsilons are the registry's effective ones (count-sketch and
    pstable-fp clamp theirs to at least 0.2; count-min-morris cells
    use the default Morris base ``a = 0.125``).
    """
    if workload == "batch-hashed":
        return (
            Family(
                "count-min",
                sizes.shards,
                0.05,
                point=PointBound(0.05, "m", never_under=True),
            ),
            Family(
                "count-sketch",
                sizes.shards,
                0.2,
                point=PointBound(0.2, "l2"),
                moment_epsilon=0.2,
            ),
        )
    if workload == "batch-few-writes":
        return (
            Family(
                "sample-and-hold",
                1,
                0.5,
                point=PointBound(0.5, "l2", delta=1 / 3),
                query_share=1 / 32,
                timed=False,
            ),
            Family(
                "pstable-fp", 1, 0.5, moment_epsilon=0.5, stable_moment=True
            ),
            Family(
                "count-min-morris",
                1,
                0.05,
                point=PointBound(0.05, "m", morris_a=0.125),
            ),
        )
    raise ValueError(f"not a batch workload: {workload!r}")


def _geomean(values: list[float]) -> float:
    positive = [value for value in values if value > 0]
    if not positive:
        return 0.0
    return math.exp(sum(math.log(value) for value in positive) / len(positive))


class BatchJob:
    """One batch workload, set up once and run pass after pass."""

    def __init__(self, workload: str, sizes: Sizes, seed: int) -> None:
        from repro.api import Engine

        self.workload = workload
        self.sizes = sizes
        self.seed = seed
        self.families = families(workload, sizes)
        self.length = (
            sizes.hashed_items
            if workload == "batch-hashed"
            else sizes.few_writes_items
        )
        self.probe = Probe()
        #: (raw seconds, probe factor) per set-up
        self.setup_samples: list[tuple[float, float]] = []
        for _ in range(sizes.setup_repeats):
            # Free the previous set-up first, so two streams are never
            # held at once (the peak RSS is the program's, not ours).
            stream = engines = None
            factor = self.probe.sample()["mixed"]
            started = time.perf_counter()
            stream = materialize(sizes, self.length, seed)
            engines = [
                Engine(
                    family.name,
                    n=sizes.n,
                    m=self.length,
                    epsilon=family.epsilon,
                    seed=SKETCH_SEED,
                    shards=family.shards,
                    partition="hash",
                    executor="serial",
                )
                for family in self.families
            ]
            self.setup_samples.append(
                (time.perf_counter() - started, factor)
            )
        self.stream = stream
        self.engines = engines
        self.freq = np.bincount(stream, minlength=sizes.n)
        self.l2 = float(np.sqrt(np.sum(self.freq.astype(np.float64) ** 2)))
        self.query_items = draw_queries(stream, sizes.query_items, seed)
        #: family -> per pass: (raw Engine.run seconds, probe-scaled)
        self.ingest_walls: dict[str, list[tuple[float, float]]] = {}
        self.pass_walls: list[float] = []
        #: family -> per pass: (latencies in ms, probe factor)
        self.point_ms: dict[str, list[tuple[list[float], float]]] = {}
        self.batch_ms: dict[str, list[tuple[list[float], float]]] = {}
        self.state_changes: list[int] = []
        #: family -> median relative error on its most frequent items
        self.point_errors: dict[str, float] = {}
        self.moment_errors: dict[str, float] = {}
        self.audits: list[list[tuple]] = []
        #: Peak RSS after the first two passes (see :func:`run_untraced`)
        self.peak_rss_mb = 0.0

    def _queries(self, family: Family) -> tuple[list[int], list[tuple]]:
        """The point items and 64-item batches ``family`` is asked."""
        size = self.sizes.batch_items
        count = max(size, int(len(self.query_items) * family.query_share))
        items = self.query_items[:count].tolist()
        batches = [
            tuple(items[lo:lo + size])
            for lo in range(0, count - size + 1, size)
        ]
        if family.query_share < 1:
            items = items[:max(1, count // 4)]
        return items, batches

    def clear_timings(self) -> None:
        self.ingest_walls.clear()
        self.pass_walls.clear()
        self.point_ms.clear()
        self.batch_ms.clear()

    # ------------------------------------------------------------------
    def _factors(self, probed: bool) -> dict[str, float]:
        if not probed:
            return {"numpy": 1.0, "python": 1.0, "mixed": 1.0}
        return self.probe.sample()

    def run_pass(self, outcome: Outcome, check: bool,
                 probed: bool = True) -> float:
        """Run every family once; returns the pass wall time.

        ``probed=False`` skips the machine-speed probes (the traced run
        compares pass walls and must not count probe time).
        """
        from repro.query import Moment, MultiPointQuery, PointQuery

        started = time.perf_counter()
        state_changes = 0
        audits = []
        for family, engine in zip(self.families, self.engines):
            queries = [Moment()] if family.moment_epsilon else []
            before = self._factors(probed)
            t0 = time.perf_counter()
            report = engine.run(
                self.stream,
                queries=queries,
                chunk_size=self.sizes.chunk_size,
            )
            elapsed = time.perf_counter() - t0
            # Probed on both sides: the run is long enough for the
            # machine's speed to move while it lasts.
            after = self._factors(probed)
            self.ingest_walls.setdefault(family.name, []).append(
                (elapsed, elapsed / ((before["mixed"] + after["mixed"]) / 2))
            )
            outcome.attempted += 1
            state_changes += report.audit.state_changes
            audits.append(
                (
                    family.name,
                    report.audit.state_changes,
                    report.audit.total_writes,
                    report.audit.peak_words,
                )
            )
            if check:
                outcome.check(
                    report.items_processed == self.length,
                    f"{family.name}: ingested {report.items_processed} "
                    f"of {self.length} items",
                )
            if family.moment_epsilon and check:
                answer = report.answers[0][1]
                exact = exact_moment(self.freq, answer.p)
                if family.stable_moment:
                    error = check_stable_moment(
                        outcome,
                        family.name,
                        float(answer.value),
                        exact,
                        family.moment_epsilon,
                        engine.merged.num_rows,
                    )
                else:
                    error = check_moment(
                        outcome,
                        family.name,
                        float(answer.value),
                        exact,
                        family.moment_epsilon,
                        answer.p,
                    )
                self.moment_errors[family.name] = error
            if family.point is None:
                continue
            points, batches = self._queries(family)
            point_ms: list[float] = []
            self.point_ms.setdefault(family.name, []).append(
                (point_ms, after["python"])
            )
            estimates = []
            for item in points:
                t0 = time.perf_counter()
                answer = engine.query(PointQuery(item))
                point_ms.append((time.perf_counter() - t0) * 1e3)
                estimates.append(answer.value)
            batch_ms: list[float] = []
            self.batch_ms.setdefault(family.name, []).append(
                (batch_ms, after["python"])
            )
            batched: list[float] = []
            for items in batches:
                t0 = time.perf_counter()
                answers = engine.query_many(MultiPointQuery(items))
                batch_ms.append((time.perf_counter() - t0) * 1e3)
                batched.extend(answer.value for answer in answers)
            outcome.attempted += len(points) + len(batches)
            if check:
                outcome.check(
                    batched[:len(estimates)] == estimates,
                    f"{family.name}: query_many disagrees with scalar "
                    f"point queries",
                )
                asked = np.asarray(
                    [item for items in batches for item in items],
                    dtype=np.int64,
                )
                check_points(
                    outcome,
                    family.name,
                    asked,
                    np.asarray(batched),
                    self.freq[asked],
                    family.point,
                    self.length,
                    self.l2,
                )
                top = top_items(self.freq, self.sizes.top_items)
                answers = engine.query_many(
                    MultiPointQuery(tuple(top.tolist()))
                )
                self.point_errors[family.name] = median(
                    check_points(
                        outcome,
                        family.name,
                        top,
                        np.asarray([answer.value for answer in answers]),
                        self.freq[top],
                        family.point,
                        self.length,
                        self.l2,
                    ).tolist()
                )
        wall = time.perf_counter() - started
        if self.audits:
            outcome.check(
                audits == self.audits[0],
                f"audit changed between passes: {audits} vs "
                f"{self.audits[0]}",
            )
        self.audits.append(audits)
        self.pass_walls.append(wall)
        self.state_changes.append(state_changes)
        return wall

    def _latency(self, per_family, q: float, raw: bool = False) -> float:
        timed = {family.name for family in self.families if family.timed}
        return _geomean(
            [
                self._percentile(passes, q, raw)
                for name, passes in per_family.items()
                if name in timed
            ]
        )

    @staticmethod
    def _percentile(passes, q: float, raw: bool = False) -> float:
        """Median over passes of each pass's percentile (scaled by the
        pass's probe factor unless ``raw``), so one disturbed pass
        cannot move it."""
        return median(
            [
                percentile(values, q) / (1.0 if raw else factor)
                for values, factor in passes
            ]
        )

    def _ingest_rate(self, raw: bool = False) -> float:
        """Items over the summed per-family median ``Engine.run`` time."""
        seconds = sum(
            median([walls[0 if raw else 1] for walls in runs])
            for runs in self.ingest_walls.values()
        )
        return self.length * len(self.families) / seconds

    def end_to_end(self) -> dict[str, float]:
        return {
            "setup_s": median([raw / f for raw, f in self.setup_samples]),
            "ingest_items_per_s": self._ingest_rate(),
            "query_p50_ms": self._latency(self.point_ms, 50),
            "query_p99_ms": self._latency(self.point_ms, 99),
            "batch_p50_ms": self._latency(self.batch_ms, 50),
            "batch_p99_ms": self._latency(self.batch_ms, 99),
            "state_changes": float(self.state_changes[0]),
            "estimate_rel_error": _geomean(list(self.point_errors.values())),
            "peak_rss_mb": self.peak_rss_mb,
        }

    def report(self) -> dict[str, float]:
        """Raw timings and per-family figures (printed, not gated)."""
        out = {
            "setup_s.raw": median([raw for raw, _ in self.setup_samples]),
            "ingest_items_per_s.raw": self._ingest_rate(raw=True),
        }
        for q in (50, 99):
            out[f"query_p{q}_ms.raw"] = self._latency(self.point_ms, q, True)
            out[f"batch_p{q}_ms.raw"] = self._latency(self.batch_ms, q, True)
        for kind, per in (("query", self.point_ms), ("batch", self.batch_ms)):
            for name, passes in per.items():
                for q in (50, 99):
                    out[f"{kind}_p{q}_ms.{name}"] = self._percentile(
                        passes, q
                    )
        for name, error in self.point_errors.items():
            out[f"estimate_rel_error.{name}"] = error
        for name, error in self.moment_errors.items():
            out[f"moment_rel_error.{name}"] = error
        return out

    def samples(self) -> dict[str, int]:
        out = {
            "passes": len(self.pass_walls),
            "setup_repeats": len(self.setup_samples),
            "probes": len(self.probe.samples["numpy"]),
        }
        for name, passes in self.point_ms.items():
            out[f"point_queries.{name}"] = sum(len(v) for v, _ in passes)
        for name, passes in self.batch_ms.items():
            out[f"batch_queries.{name}"] = sum(len(v) for v, _ in passes)
        return out


def run_untraced(
    workload: str, sizes: Sizes, seed: int, seconds: float,
    outcome: Outcome,
) -> BatchJob:
    """Set up, run one checked warm-up pass, then time passes until
    ``seconds`` have gone by (at least one).

    ``peak_rss_mb`` is read after the warm-up and the first timed
    pass: the heap still creeps by a few MiB over later passes, and a
    peak read at the end would follow how many passes fit in the run.
    """
    job = BatchJob(workload, sizes, seed)
    job.run_pass(outcome, check=True)
    job.clear_timings()
    deadline = time.perf_counter() + seconds
    while len(job.pass_walls) < 1 or time.perf_counter() < deadline:
        job.run_pass(outcome, check=False)
        if len(job.pass_walls) == 1:
            job.peak_rss_mb = own_peak_rss_mb()
    return job
