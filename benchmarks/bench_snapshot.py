"""Snapshot refresh: memoized incremental merge tree vs full rebuild.

The incremental snapshot plane's promise is that a refresh costs what
*changed*, not what *exists*: with ``k`` of ``S`` shards dirty since
the last cut, the memoized merge tree re-clones ``k`` leaves and
re-merges ``O(k log S)`` nodes instead of copying and reducing all
``S`` shards.  This benchmark measures that promise in its sweet spot
— a heavy pre-ingested state, then repeated refreshes with exactly
one dirty shard — and records the refresh latency distribution (p50 /
p99) for the incremental plane and for a full rebuild, plus their
speedup, **gated at >= 3x**.  The full rebuild is the reference reduce
the equivalence tests use (``tests/snapshot_oracle.py``: fresh copies
of every shard, reduced from scratch).  Bit-identity between the two
is asserted on every single refresh; a fast wrong snapshot counts for
nothing.

A second section measures the serving engine's append stall: cadence
refreshes now capture only a cheap epoch cut under the ingest lock
and run the merge after release, so the time appends hold the lock no
longer includes merge work.  The report compares the measured in-lock
time against what the legacy design would have held (in-lock time +
merge time) and records the reduction.

Setting ``REPRO_BENCH_QUICK=1`` shrinks the stream (used by the CI
benchmark job); the ``BENCH_snapshot_refresh.json`` trend file is
committed to the repo so the trajectory is visible in-tree.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import time

import numpy as np

from repro.runtime.sharded import ShardedRunner
from repro.serve import LiveEngine
from repro.streams import zipf_stream

# The full-rebuild arm is the test suite's oracle, shared so the gate
# and the equivalence sweep measure against one definition.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))
from snapshot_oracle import reference_snapshot  # noqa: E402


def _quick(m: int, floor: int = 40_000) -> int:
    """Shrink a stream length when REPRO_BENCH_QUICK is set."""
    if os.environ.get("REPRO_BENCH_QUICK"):
        return max(floor, m // 10)
    return m


def _percentile(samples: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples), q))


def _timing_row(samples_s: list[float]) -> dict:
    """p50/p99/mean/max of a latency sample list, in milliseconds."""
    ms = [s * 1000.0 for s in samples_s]
    return {
        "p50_ms": _percentile(ms, 50),
        "p99_ms": _percentile(ms, 99),
        "mean_ms": float(np.mean(ms)),
        "max_ms": max(ms),
        "samples": len(ms),
    }


def run_refresh_speedup(
    m: int = 400_000,
    n: int = 4096,
    epsilon: float = 0.05,
    skew: float = 1.2,
    seed: int = 0,
    shards: int = 8,
    rounds: int = 25,
    sketch: str = "count-min",
) -> dict:
    """Refresh latency with 1-of-``shards`` dirty: incremental plane
    vs full rebuild.

    Both runners pre-ingest the identical stream and take one warm-up
    snapshot.  Each round then appends a small batch routed entirely
    to **one** shard (items filtered by the runner's own partition
    hash) and times one refresh per arm — ``merged_snapshot()`` on the
    incremental runner, :func:`reference_snapshot` over the full
    runner's shards; the two snapshots' serialized states are
    compared bit for bit every round.
    """
    stream = zipf_stream(n, m, skew=skew, seed=seed).materialize()
    refresh = {
        "incremental": lambda runner: runner.merged_snapshot(),
        "full": lambda runner: reference_snapshot(runner.shards),
    }
    runners = {
        mode: ShardedRunner.from_registry(
            sketch, shards, n=n, m=m, epsilon=epsilon, seed=seed
        )
        for mode in refresh
    }
    for mode, runner in runners.items():
        runner.ingest(stream)
        refresh[mode](runner)  # warm the caches / level the field

    # Items that all route to one shard: the per-round dirty set.
    probe = runners["incremental"]
    target = probe.shard_of(0)
    dirty_pool = np.asarray(
        [item for item in range(n) if probe.shard_of(item) == target],
        dtype=np.int64,
    )[:64]

    times: dict[str, list[float]] = {mode: [] for mode in refresh}
    identical = True
    for _ in range(rounds):
        states = {}
        for mode, runner in runners.items():
            runner.ingest(dirty_pool)
            started = time.perf_counter()
            merged = refresh[mode](runner)
            times[mode].append(time.perf_counter() - started)
            states[mode] = json.dumps(merged.to_state(), sort_keys=True)
        identical = identical and (
            states["incremental"] == states["full"]
        )

    speedup_p50 = _percentile(times["full"], 50) / max(
        _percentile(times["incremental"], 50), 1e-9
    )
    speedup_mean = float(
        np.mean(times["full"]) / max(np.mean(times["incremental"]), 1e-9)
    )
    return {
        "benchmark": "snapshot-refresh",
        "sketch": sketch,
        "stream": {"n": n, "m": m, "skew": skew, "seed": seed},
        "shards": shards,
        "rounds": rounds,
        "dirty_shards_per_round": 1,
        "refresh": {
            mode: _timing_row(samples)
            for mode, samples in times.items()
        },
        "snapshot_stats": runners["incremental"].snapshot_stats(),
        "speedup_p50": speedup_p50,
        "speedup_mean": speedup_mean,
        "bit_identical": identical,
    }


def run_append_stall(
    m: int = 200_000,
    n: int = 4096,
    epsilon: float = 0.05,
    skew: float = 1.2,
    seed: int = 0,
    shards: int = 8,
    snapshot_every: int = 8192,
    append_size: int = 2048,
) -> dict:
    """In-lock append time now vs the legacy in-lock-merge design.

    The engine's ``stats()`` separate the time appends spend holding
    the ingest lock (routing + shard ingest + epoch cuts) from the
    merge time, which now runs after the lock is released.  The
    legacy engine ran those merges *inside* ``append``'s lock hold,
    so ``in_lock + merge`` is exactly what it would have held — the
    reduction column is measured, not modeled.
    """
    stream = zipf_stream(n, m, skew=skew, seed=seed).materialize()
    engine = LiveEngine(
        "count-min",
        n=n,
        m=m,
        epsilon=epsilon,
        seed=seed,
        shards=shards,
        snapshot_every=snapshot_every,
    )
    for low in range(0, len(stream), append_size):
        engine.append(stream[low : low + append_size])
    engine.finish()
    stats = engine.stats()
    in_lock = stats["append_lock_held_ms"]
    merge = stats["refresh_mean_ms"] * stats["refresh_count"]
    arms = {
        "incremental": {
            "append_lock_held_ms": in_lock,
            "append_lock_wait_ms": stats["append_lock_wait_ms"],
            "off_lock_merge_ms": merge,
            "legacy_equivalent_hold_ms": in_lock + merge,
            "hold_reduction": (in_lock + merge) / in_lock
            if in_lock
            else float("inf"),
            "refresh_count": stats["refresh_count"],
            "refresh_mean_ms": stats["refresh_mean_ms"],
            "refresh_max_ms": stats["refresh_max_ms"],
        }
    }
    return {
        "benchmark": "snapshot-append-stall",
        "stream": {"n": n, "m": m, "skew": skew, "seed": seed},
        "shards": shards,
        "snapshot_every": snapshot_every,
        "append_size": append_size,
        "arms": arms,
    }


def format_snapshot_refresh(payload: dict) -> str:
    """Render the refresh measurements as an aligned text table."""
    lines = [
        f"Snapshot refresh — memoized incremental vs full rebuild "
        f"({payload['sketch']}, {payload['shards']} shards, "
        f"{payload['dirty_shards_per_round']} dirty per round)",
        f"{'mode':>14}{'p50 ms':>10}{'p99 ms':>10}{'mean ms':>10}"
        f"{'max ms':>10}",
    ]
    for mode, row in payload["refresh"].items():
        lines.append(
            f"{mode:>14}{row['p50_ms']:>10.3f}{row['p99_ms']:>10.3f}"
            f"{row['mean_ms']:>10.3f}{row['max_ms']:>10.3f}"
        )
    lines.append(
        f"speedup: p50 {payload['speedup_p50']:.1f}x, "
        f"mean {payload['speedup_mean']:.1f}x "
        f"(bit-identical: {payload['bit_identical']})"
    )
    stall = payload["append_stall"]["arms"]["incremental"]
    lines.append(
        f"append in-lock time {stall['append_lock_held_ms']:.1f}ms vs "
        f"legacy in-lock-merge {stall['legacy_equivalent_hold_ms']:.1f}ms "
        f"({stall['hold_reduction']:.2f}x reduction)"
    )
    return "\n".join(lines)


def test_snapshot_refresh(save_result):
    payload = run_refresh_speedup(m=_quick(400_000))
    payload["append_stall"] = run_append_stall(
        m=_quick(200_000, floor=40_000)
    )
    save_result(
        "BENCH_snapshot_refresh_table", format_snapshot_refresh(payload)
    )
    results_path = (
        pathlib.Path(__file__).parent
        / "results"
        / "BENCH_snapshot_refresh.json"
    )
    results_path.write_text(json.dumps(payload, indent=2) + "\n")
    # Bit-identity is unconditional: the incremental plane must match
    # the full rebuild on every refresh, in quick mode too.
    assert payload["bit_identical"], payload
    # With 1 of S shards dirty the memoized tree re-merges one root
    # path instead of rebuilding everything — the refresh must be at
    # least 3x faster at the median.
    assert payload["speedup_p50"] >= 3.0, payload["refresh"]
    # The memoization must actually be memoizing: per round, one leaf
    # cloned and log2(shards) nodes rebuilt, the rest served cached.
    stats = payload["snapshot_stats"]
    assert stats["leaves_reused"] > 0 and stats["nodes_reused"] > 0, stats
    # Append-stall: the merge work measurably left the lock hold.
    for mode, arm in payload["append_stall"]["arms"].items():
        assert arm["off_lock_merge_ms"] > 0.0, (mode, arm)
        assert (
            arm["legacy_equivalent_hold_ms"] > arm["append_lock_held_ms"]
        ), (mode, arm)


if __name__ == "__main__":
    payload = run_refresh_speedup()
    payload["append_stall"] = run_append_stall()
    print(format_snapshot_refresh(payload))
