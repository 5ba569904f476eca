"""The repository benchmark: one command, three workloads.

Usage::

    python3 perfbench/run.py --workload <name> --seed <n> \\
        --seconds <s> --trace <0|1> [--size full|tiny]

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):
``batch-hashed``, ``batch-few-writes`` (``Engine.run`` in process) and
``serve-mixed`` (open-loop traffic against a ``repro serve``
subprocess over its TCP socket).

``--trace 0`` measures the end-to-end metrics with no spans installed;
``--trace 1`` runs the workload once untraced and once with layer
spans installed, and reports the per-layer metrics, the unaccounted
remainder and the tracing overhead.  Every run checks the program's
answers.  The human-readable report goes to standard output; its last
line is one JSON object with ``correct``, ``attempted``, ``failed``
and the ``metrics`` that ``BENCHMARK.json`` names for the mode, each
with its unit.  A failed correctness check makes the exit status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    ROOT,
    SIZES,
    SRC,
    Outcome,
    header,
    import_repro,
)

WORKLOADS = ("batch-hashed", "batch-few-writes", "serve-mixed")

#: Units of the metrics printed beyond those ``BENCHMARK.json`` gates.
EXTRA_UNITS = {
    "error_rate": "ratio",
    "query_p99_ms": "ms",
    "batch_p50_ms": "ms",
    "batch_p99_ms": "ms",
    "append_p50_ms": "ms",
    "append_p99_ms": "ms",
    "staleness_mean_updates": "updates",
    "drain_items_per_s": "items/s",
    "trace.unaccounted_frac": "ratio",
}


def _declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


# ----------------------------------------------------------------------
# Workload runners: each returns (gated metrics, further metrics to
# print, sample counts).  A traced run reports no end-to-end metric:
# those come from untraced runs only.
# ----------------------------------------------------------------------
def run_batch(workload, sizes, seed, seconds, trace, outcome):
    import batch
    import layers

    # The serial executor uses one CPU; staying on one keeps each timed
    # block and the probe paired with it on the same core.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not trace:
        job = batch.run_untraced(workload, sizes, seed, seconds, outcome)
        return job.end_to_end(), job.report(), job.samples()

    from common import materialize
    from tracing import Tracer, install

    job = batch.BatchJob(workload, sizes, seed)
    job.run_pass(outcome, check=True, probed=False)
    # Probes around each phase (outside its passes) scale the two
    # phases' walls: they run seconds apart, and the machine's speed
    # moves meanwhile.
    factors = [job.probe.sample()["mixed"]]
    deadline = time.perf_counter() + seconds / 2
    untraced: list[float] = []
    while not untraced or time.perf_counter() < deadline:
        untraced.append(job.run_pass(outcome, check=False, probed=False))
    factors.append(job.probe.sample()["mixed"])
    tracer = Tracer()
    install(tracer)
    started = time.perf_counter()
    tracer.call("bench.setup", materialize, (sizes, job.length, seed), {})
    traced = [
        tracer.call("bench.pass", job.run_pass, (outcome, False, False), {})
        for _ in untraced
    ]
    wall = time.perf_counter() - started
    factors.append(job.probe.sample()["mixed"])
    snapshot = tracer.snapshot()
    passes = float(len(traced))
    per_layer = layers.defaults()
    per_layer.update(layers.from_spans(snapshot, passes))
    # Set-up ran once under the tracer, not once per pass.
    per_layer["workloads.materialize_s"] = snapshot["spans"].get(
        "workloads.materialize", [0, 0.0]
    )[1]
    per_layer.update(
        layers.accounting(snapshot, wall, ("bench.setup", "bench.pass"),
                          passes)
    )
    untraced_med = sorted(untraced)[len(untraced) // 2]
    traced_med = sorted(job.pass_walls[-len(traced):])[len(traced) // 2]
    per_layer["trace.overhead_frac"] = (
        traced_med / (factors[1] + factors[2])
        / (untraced_med / (factors[0] + factors[1]))
        - 1.0
    )
    audits = job.audits[0]
    updates = float(job.length * len(audits))
    changes = float(sum(audit[1] for audit in audits))
    per_layer["state.state_changes"] = changes
    per_layer["state.writes"] = float(sum(audit[2] for audit in audits))
    per_layer["state.write_ratio"] = changes / updates
    per_layer["state.peak_words"] = float(sum(audit[3] for audit in audits))
    samples = job.samples()
    samples["traced_passes"] = len(traced)
    return {}, per_layer, samples


def run_serve(workload, sizes, seed, seconds, trace, outcome):
    import layers
    import serve_mixed

    open_seconds = max(1.0, seconds * serve_mixed.OPEN_SHARE)
    if not trace:
        session = serve_mixed.run_session(sizes, seed, open_seconds, outcome)
        return (
            serve_mixed.end_to_end(sizes, session),
            {},
            serve_mixed.samples(session),
        )
    plain = serve_mixed.run_session(
        sizes, seed, open_seconds / 2, outcome, setup_repeats=1
    )
    traced = serve_mixed.run_session(
        sizes, seed, open_seconds / 2, outcome, traced=True, setup_repeats=1
    )
    payload = serve_mixed.server_trace(traced)
    trace_data = payload["trace"]
    per_layer = layers.defaults()
    per_layer.update(layers.from_spans(trace_data, 1.0))
    connections = trace_data["spans"].get("serve.connection", [0, 0.0])[1]
    per_layer.update(
        layers.accounting(trace_data, connections, ("serve.connection",),
                          1.0)
    )
    per_layer.update(
        layers.from_server_stats(traced.traffic.final.get("stats", {}))
    )
    per_layer.update(serve_mixed.client_layers(traced))
    per_layer["serve.errors"] = traced.checks["errors"]
    state = payload.get("state") or {}
    updates = float(state.get("updates", 0)) or 1.0
    per_layer["state.state_changes"] = float(state.get("state_changes", 0))
    per_layer["state.writes"] = float(state.get("writes", 0))
    per_layer["state.write_ratio"] = (
        float(state.get("state_changes", 0)) / updates
    )
    per_layer["state.peak_words"] = float(state.get("peak_words", 0))
    # Drain walls are probe-scaled: the two sessions run some seconds
    # apart, and the machine's speed moves meanwhile.
    per_layer["trace.overhead_frac"] = (
        sum(wall / f for wall, f in traced.traffic.drain_s)
        / sum(wall / f for wall, f in plain.traffic.drain_s)
        - 1.0
    )
    return {}, per_layer, serve_mixed.samples(traced)


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)

    declared = _declared()
    mode = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in declared[mode]}

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no package under test at {SRC / 'repro'}; run from the "
              f"root of a checkout", file=sys.stderr)
        return 2
    import_repro()

    sizes = SIZES[args.size]
    info = header(args.workload, args.seed, args.seconds, bool(args.trace),
                  args.size)
    print("# " + json.dumps(info, sort_keys=True))
    outcome = Outcome()
    runner = run_serve if args.workload == "serve-mixed" else run_batch
    started = time.perf_counter()
    try:
        end_to_end, further, samples = runner(
            args.workload, sizes, args.seed, args.seconds,
            bool(args.trace), outcome,
        )
    except Exception as error:  # noqa: BLE001 - the run's boundary
        traceback.print_exc()
        outcome.fail(f"run aborted: {type(error).__name__}: {error}")
        end_to_end, further, samples = {}, {}, {}
    elapsed = time.perf_counter() - started
    error_rate = outcome.failed / max(outcome.attempted, 1)
    end_to_end["error_rate"] = error_rate

    report = dict(end_to_end)
    report.update(further)
    all_units = dict(EXTRA_UNITS)
    for kind in ("end_to_end", "per_layer"):
        all_units.update(
            {metric["name"]: metric["unit"] for metric in declared[kind]}
        )
    print(f"# samples: {json.dumps(samples, sort_keys=True)}; "
          f"elapsed {elapsed:.1f}s")
    for name in sorted(report):
        unit = all_units.get(name, all_units.get(name.split(".raw")[0], ""))
        print(f"{name:34s} {report[name]:>16.6g} {unit}")
    for note in outcome.notes:
        print(f"# WARNING: {note}")
    for failure in outcome.failures:
        print(f"# FAILED: {failure}")
    if args.trace:
        frac = further.get("trace.unaccounted_frac", 0.0)
        from layers import UNACCOUNTED_TOLERANCE

        verdict = "within" if abs(frac) <= UNACCOUNTED_TOLERANCE else "OUTSIDE"
        print(f"# unaccounted remainder {frac:.2%} of traced wall time, "
              f"{verdict} the {UNACCOUNTED_TOLERANCE:.0%} tolerance")

    source = further if args.trace else end_to_end
    correct = outcome.failed == 0
    metrics = {}
    for name, unit in units.items():
        if name in source:
            metrics[name] = {"value": float(source[name]), "unit": unit}
        elif correct:
            correct = False
            outcome.fail(f"metric {name} was not measured")
    result = {
        "correct": correct,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
