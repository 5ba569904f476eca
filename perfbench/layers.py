"""Per-layer metrics of the traced run, assembled from span aggregates.

Every workload reports every metric; a layer a workload bypasses reads
0, which is the prediction for that pairing.  Batch workloads report
per pass (totals divided by traced passes); ``serve-mixed`` reports
per run.
"""

from __future__ import annotations

#: Families whose kernels get a ``kernel.<name>.*`` pair.
KERNEL_FAMILIES = (
    "count-min",
    "count-sketch",
    "sample-and-hold",
    "pstable-fp",
    "count-min-morris",
)

#: Tolerance on the unaccounted share of traced wall time.
UNACCOUNTED_TOLERANCE = 0.05


def _span(spans: dict, name: str) -> tuple[float, float, float, float]:
    calls, total, self_s, items = spans.get(name, (0, 0.0, 0.0, 0))
    return float(calls), float(total), float(self_s), float(items)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def from_spans(trace: dict, per: float) -> dict[str, float]:
    """Layer metrics read from one tracer snapshot, divided by ``per``
    (the traced passes) where they are totals."""
    spans = trace["spans"]
    gauges = trace["gauges"]
    out: dict[str, float] = {}

    def total(name: str) -> float:
        return _span(spans, name)[1] / per

    def self_time(name: str) -> float:
        return _span(spans, name)[2] / per

    def calls(name: str) -> float:
        return _span(spans, name)[0] / per

    def items(name: str) -> float:
        return _span(spans, name)[3] / per

    out["api.run_self_s"] = self_time("api.run")
    out["api.query_self_s"] = self_time("api.query")
    out["workloads.materialize_s"] = total("workloads.materialize")

    out["runtime.ingest_self_s"] = self_time("runtime.ingest")
    kernel_calls = sum(calls(f"kernel.{f}") for f in KERNEL_FAMILIES)
    kernel_items = sum(items(f"kernel.{f}") for f in KERNEL_FAMILIES)
    out["runtime.parts"] = kernel_calls
    out["runtime.part_items_mean"] = _ratio(kernel_items, kernel_calls)
    out["runtime.shard_skew"] = float(gauges.get("runtime.shard_skew", 0.0))
    out["runtime.merge_s"] = total("runtime.merge")
    out["runtime.snapshot_cut_s"] = total("runtime.snapshot_cut")
    out["runtime.merged_from_cut_s"] = total("runtime.merged_from_cut")

    out["hashing.kwise_s"] = total("hashing.kwise")
    out["hashing.kwise_calls"] = calls("hashing.kwise")
    out["hashing.kwise_items_per_call"] = _ratio(
        items("hashing.kwise"), calls("hashing.kwise")
    )
    out["hashing.coins_s"] = total("hashing.coins")
    out["hashing.coins_calls"] = calls("hashing.coins")
    out["hashing.pstable_s"] = total("hashing.pstable")

    out["core.morris_s"] = total("core.morris")
    out["core.morris_calls"] = calls("core.morris")
    for family in KERNEL_FAMILIES:
        out[f"kernel.{family}.self_s"] = self_time(f"kernel.{family}")
        out[f"kernel.{family}.items"] = items(f"kernel.{family}")

    out["state.record_s"] = total("state.record")
    out["state.clone_s"] = total("state.clone")
    out["state.merge_s"] = total("state.merge")

    out["query.answer_s"] = total("query.answer")
    out["query.point_items"] = items("query.answer")

    out["serve.codec_s"] = total("serve.codec")
    out["serve.dispatch_self_s"] = self_time("serve.dispatch")
    out["serve.read_self_s"] = self_time("serve.read")
    out["serve.socket_self_s"] = self_time("serve.send")
    out["serve.recv_wait_s"] = total("serve.recv")
    out["serve.append_s"] = total("serve.append")
    out["serve.requests"] = calls("serve.dispatch")
    return out


def accounting(trace: dict, wall: float, roots: tuple[str, ...],
               per: float) -> dict[str, float]:
    """Unaccounted remainder: traced wall time not covered by any
    layer span — the self time of the benchmark's own root spans."""
    spans = trace["spans"]
    unaccounted = sum(_span(spans, root)[2] for root in roots)
    return {
        "trace.unaccounted_s": unaccounted / per,
        "trace.unaccounted_frac": _ratio(unaccounted, wall),
    }


def defaults() -> dict[str, float]:
    """Metrics a workload fills from outside the spans, zeroed."""
    return {
        "runtime.leaves_cloned": 0.0,
        "runtime.leaves_reused": 0.0,
        "runtime.nodes_built": 0.0,
        "runtime.nodes_reused": 0.0,
        "runtime.tree_reuse_ratio": 0.0,
        "serve.refresh_count": 0.0,
        "serve.refresh_mean_ms": 0.0,
        "serve.append_lock_wait_ms": 0.0,
        "serve.append_lock_held_ms": 0.0,
        "serve.answer_cache_hit_ratio": 0.0,
        "serve.errors": 0.0,
        "state.state_changes": 0.0,
        "state.writes": 0.0,
        "state.write_ratio": 0.0,
        "state.peak_words": 0.0,
        "client.lateness_p99_ms": 0.0,
        "client.outstanding_max": 0.0,
        "client.encode_s": 0.0,
        "trace.overhead_frac": 0.0,
    }


def from_server_stats(stats: dict) -> dict[str, float]:
    """Serving-plane counters read from the ``stats`` verb."""
    cloned = float(stats.get("snapshot_leaves_cloned", 0))
    reused = float(stats.get("snapshot_leaves_reused", 0))
    built = float(stats.get("snapshot_nodes_built", 0))
    nodes_reused = float(stats.get("snapshot_nodes_reused", 0))
    cache = stats.get("answer_cache") or {}
    hits = float(cache.get("hits", 0))
    misses = float(cache.get("misses", 0))
    return {
        "runtime.leaves_cloned": cloned,
        "runtime.leaves_reused": reused,
        "runtime.nodes_built": built,
        "runtime.nodes_reused": nodes_reused,
        "runtime.tree_reuse_ratio": _ratio(
            reused + nodes_reused, cloned + reused + built + nodes_reused
        ),
        "serve.refresh_count": float(stats.get("refresh_count", 0)),
        "serve.refresh_mean_ms": float(stats.get("refresh_mean_ms", 0.0)),
        "serve.append_lock_wait_ms": float(
            stats.get("append_lock_wait_ms", 0.0)
        ),
        "serve.append_lock_held_ms": float(
            stats.get("append_lock_held_ms", 0.0)
        ),
        "serve.answer_cache_hit_ratio": _ratio(hits, hits + misses),
    }
