"""``serve-mixed``: open-loop mixed traffic against ``repro serve``.

The server is a subprocess (``python -m repro serve``, or the traced
launcher) running count-min at 8 hash shards with the default snapshot
cadence.  One client thread runs one asyncio event loop over two
connections — appends on one, queries on the other — so the client
never uses more connections than the box has CPUs.

Open loop: 2048-item appends, point queries (a fixed share with
``max_staleness=0``) and 64-item ``query-batch`` calls are sent on a
fixed schedule at fixed offered rates, whether or not earlier
responses have arrived; each request is timed from its *scheduled*
send, so a stall also charges the requests queued behind it.  Then a
drain phase pipelines a fixed backlog of appends in bursts, and the
run ends with ``snapshot``, a fresh ``query-batch`` over the most
frequent items, ``stats`` and ``shutdown``.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import queue
import re
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checks import PointBound, check_points
from common import (
    QUERIES_PER_APPEND,
    ROOT,
    SKETCH_SEED,
    TRACE_PREFIX,
    Outcome,
    Sizes,
    child_env,
    draw_queries,
    materialize,
    median,
    percentile,
    process_peak_rss_mb,
    top_items,
)
from probe import Probe

HERE = Path(__file__).resolve().parent
SKETCH = "count-min"
EPSILON = 0.05
BOUND = PointBound(EPSILON, "m", never_under=True)
READY = re.compile(r"^serving \S+ on ([\d.]+):(\d+)")
#: Seconds to wait for the ready line, a response, or the exit.
READY_TIMEOUT = 60.0
RESPONSE_TIMEOUT = 60.0
EXIT_TIMEOUT = 15.0
#: Share of the run length spent in the open-loop phase.
OPEN_SHARE = 0.5


class ServerError(RuntimeError):
    """The server process failed to start, answer or stop."""


class ServerProcess:
    """One ``repro serve`` subprocess, reaped on every exit path."""

    def __init__(self, sizes: Sizes, traced: bool,
                 extra_args: tuple[str, ...] = ()) -> None:
        args = [
            "--algorithm", SKETCH,
            "--shards", str(sizes.shards),
            "--n", str(sizes.n),
            "--epsilon", str(EPSILON),
            "--seed", str(SKETCH_SEED),
            "--port", "0",
            *extra_args,
        ]
        if traced:
            command = [sys.executable, str(HERE / "serve_launcher.py"), *args]
        else:
            command = [sys.executable, "-m", "repro", "serve", *args]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            command,
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        self._lines: queue.Queue = queue.Queue()
        self.stderr: deque[str] = deque(maxlen=50)
        self._readers = [
            threading.Thread(
                target=self._pump, args=(self.proc.stdout, self._lines.put),
                daemon=True,
            ),
            threading.Thread(
                target=self._pump, args=(self.proc.stderr, self.stderr.append),
                daemon=True,
            ),
        ]
        for reader in self._readers:
            reader.start()
        self.address: tuple[str, int] | None = None
        self.ready_s = 0.0

    @staticmethod
    def _pump(stream, sink) -> None:
        for line in stream:
            sink(line)
        stream.close()

    def wait_ready(self) -> tuple[str, int]:
        """Block until the ready line; returns ``(host, port)``."""
        deadline = time.perf_counter() + READY_TIMEOUT
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise ServerError("server sent no ready line in time")
            try:
                line = self._lines.get(timeout=min(remaining, 0.5))
            except queue.Empty:
                if self.proc.poll() is not None:
                    raise ServerError(
                        f"server exited with {self.proc.returncode}: "
                        + "".join(self.stderr)[-2000:]
                    ) from None
                continue
            found = READY.match(line)
            if found:
                self.ready_s = time.perf_counter() - self.started
                self.address = (found.group(1), int(found.group(2)))
                return self.address

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.proc.pid)

    def wait_exit(self) -> list[str]:
        """Wait for a requested shutdown; returns the remaining stdout."""
        try:
            self.proc.wait(timeout=EXIT_TIMEOUT)
        except subprocess.TimeoutExpired:
            raise ServerError("server did not exit after shutdown") from None
        for reader in self._readers:
            reader.join(timeout=EXIT_TIMEOUT)
        lines = []
        while not self._lines.empty():
            lines.append(self._lines.get_nowait())
        return lines

    def close(self) -> None:
        """Stop the process if it still runs, and reap it."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=EXIT_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for reader in self._readers:
            reader.join(timeout=EXIT_TIMEOUT)


def request(address: tuple[str, int], payload: dict) -> dict:
    """One verb over a fresh connection (set-up and teardown only)."""
    from repro.serve.server import request as send

    return send(address[0], address[1], payload, timeout=RESPONSE_TIMEOUT)


# ----------------------------------------------------------------------
# The schedule
# ----------------------------------------------------------------------
@dataclass
class Planned:
    due: float  # seconds after the phase start
    conn: int  # 0 = append connection, 1 = query connection
    kind: str  # "append" | "query" | "batch"
    payload: bytes
    meta: object = None


@dataclass
class Plan:
    stream: np.ndarray
    open_appends: int
    drain_appends: int
    schedule: list[Planned]
    drain: list[list[bytes]]
    encode_s: float


def _line(payload: dict) -> bytes:
    return (json.dumps(payload) + "\n").encode("utf-8")


def plan(sizes: Sizes, seed: int, open_seconds: float) -> Plan:
    """The whole run's traffic, generated and encoded up front."""
    open_appends = max(4, int(open_seconds * sizes.append_rate) // 4 * 4)
    drain_appends = sizes.drain_bursts * sizes.drain_burst_appends
    total = (open_appends + drain_appends) * sizes.append_items
    stream = materialize(sizes, total, seed)
    # Point queries and batches per append; each verb's rate.
    per_verb = QUERIES_PER_APPEND // 2
    query_rate = sizes.append_rate * per_verb
    queries = batches = int(open_seconds * query_rate)
    picks = draw_queries(
        stream[:open_appends * sizes.append_items],
        queries + batches * sizes.batch_items,
        seed,
    )
    started = time.perf_counter()
    schedule: list[Planned] = []
    step = sizes.append_items
    for i in range(open_appends):
        items = stream[i * step:(i + 1) * step].tolist()
        schedule.append(
            Planned(
                i / sizes.append_rate,
                0,
                "append",
                _line({"op": "append", "items": items}),
            )
        )
    for j in range(queries):
        item = int(picks[j])
        request_ = {"op": "query", "kind": "point", "item": item}
        fresh = j % per_verb == 0
        if fresh:
            request_["max_staleness"] = 0
        schedule.append(
            Planned(
                (j + 0.5) / query_rate, 1, "query", _line(request_),
                (item, fresh),
            )
        )
    for b in range(batches):
        lo = queries + b * sizes.batch_items
        items = picks[lo:lo + sizes.batch_items].tolist()
        schedule.append(
            Planned(
                (b + 0.25) / query_rate, 1, "batch",
                _line({"op": "query-batch", "items": items}), items,
            )
        )
    drain = [
        [
            _line(
                {
                    "op": "append",
                    "items": stream[i * step:(i + 1) * step].tolist(),
                }
            )
            for i in range(lo, lo + sizes.drain_burst_appends)
        ]
        for lo in range(
            open_appends,
            open_appends + drain_appends,
            sizes.drain_burst_appends,
        )
    ]
    encode_s = time.perf_counter() - started
    schedule.sort(key=lambda planned: planned.due)
    return Plan(
        stream, open_appends, drain_appends, schedule, drain, encode_s
    )


# ----------------------------------------------------------------------
# The client
# ----------------------------------------------------------------------
@dataclass
class Traffic:
    """What the client saw."""

    latencies: dict[str, list[float]] = field(
        default_factory=lambda: {"append": [], "query": [], "batch": []}
    )
    lateness: list[float] = field(default_factory=list)
    outstanding_max: int = 0
    outstanding_at_send: list[int] = field(default_factory=list)
    responses: list[tuple[str, object, bytes]] = field(default_factory=list)
    #: per drain burst: (wall seconds, probe factor)
    drain_s: list[tuple[float, float]] = field(default_factory=list)
    drain_responses: list[bytes] = field(default_factory=list)
    final: dict = field(default_factory=dict)


class _Conn:
    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.pending: deque = deque()


async def _read_responses(conn: _Conn, traffic: Traffic, state: dict,
                          count: int) -> None:
    """Read ``count`` responses in order, timing each from its due."""
    for _ in range(count):
        line = await asyncio.wait_for(
            conn.reader.readline(), RESPONSE_TIMEOUT
        )
        now = time.perf_counter()
        if not line:
            raise ServerError("server closed a connection mid-run")
        kind, due, meta = conn.pending.popleft()
        state["outstanding"] -= 1
        traffic.latencies[kind].append((now - due) * 1e3)
        traffic.responses.append((kind, meta, line))


async def _call(conn: _Conn, payload: dict) -> dict:
    conn.writer.write(_line(payload))
    await conn.writer.drain()
    line = await asyncio.wait_for(conn.reader.readline(), RESPONSE_TIMEOUT)
    if not line:
        raise ServerError(f"no response to {payload['op']}")
    return json.loads(line)


def _set_affinity(pid: int, cpus: set[int]) -> None:
    """Pin every thread of process ``pid`` to ``cpus``."""
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            os.sched_setaffinity(int(task), cpus)
        except ProcessLookupError:
            pass  # the thread ended meanwhile


@contextlib.contextmanager
def _apart(server_pid: int):
    """Run the server ``server_pid`` on one CPU and this process on
    another (when there are two), so the client never takes the
    server's core; yields the server's CPUs.  Then give both back
    every CPU this process had."""
    mine = os.sched_getaffinity(0)
    if len(mine) < 2:
        yield mine
        return
    _set_affinity(server_pid, {max(mine)})
    os.sched_setaffinity(0, {min(mine)})
    try:
        yield {max(mine)}
    finally:
        os.sched_setaffinity(0, mine)
        if os.path.exists(f"/proc/{server_pid}/task"):
            _set_affinity(server_pid, mine)


def _probe_on(probe: Probe, cpus: set[int]) -> dict[str, float]:
    """One probe sample taken on ``cpus``."""
    mine = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        return probe.sample()
    finally:
        os.sched_setaffinity(0, mine)


@contextlib.contextmanager
def _one_cpu():
    """Run this process (and the children it starts meanwhile) on one
    CPU; then give it back every CPU it had."""
    mine = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(mine)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, mine)


async def _drive(address: tuple[str, int], the_plan: Plan,
                 check_items: list[int], server: ServerProcess,
                 probe: Probe) -> Traffic:
    traffic = Traffic()
    conns = []
    for _ in range(2):
        reader, writer = await asyncio.open_connection(*address)
        # Pipelined small requests must not wait on Nagle's algorithm.
        writer.get_extra_info("socket").setsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
        )
        conns.append(_Conn(reader, writer))
    try:
        state = {"outstanding": 0}
        counts = [0, 0]
        for planned in the_plan.schedule:
            counts[planned.conn] += 1
        readers = [
            asyncio.create_task(
                _read_responses(conn, traffic, state, counts[i])
            )
            for i, conn in enumerate(conns)
        ]
        # Server and client on CPUs of their own: on a shared core the
        # client's sends would queue behind the server's work.
        with _apart(server.proc.pid):
            start = time.perf_counter() + 0.05
            for planned in the_plan.schedule:
                due = start + planned.due
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                sent = time.perf_counter()
                traffic.lateness.append((sent - due) * 1e3)
                conn = conns[planned.conn]
                conn.pending.append((planned.kind, due, planned.meta))
                conn.writer.write(planned.payload)
                state["outstanding"] += 1
                traffic.outstanding_at_send.append(state["outstanding"])
                traffic.outstanding_max = max(
                    traffic.outstanding_max, state["outstanding"]
                )
                if conn.writer.transport.get_write_buffer_size() > 1 << 20:
                    await conn.writer.drain()
            for task in readers:
                await task

        # Drain phase: bursts of appends pipelined on one connection,
        # each timed from its first send to its last response.  Quick
        # ACKs keep the kernel's delayed-ACK timer out of that timing.
        # Client and server stay on CPUs of their own; the probes
        # between bursts run on the server's, and a burst is scaled by
        # the mean of its two probes.
        appends = conns[0]
        sock = appends.writer.get_extra_info("socket")
        with _apart(server.proc.pid) as server_cpu:
            before = _probe_on(probe, server_cpu)["mixed"]
            for burst in the_plan.drain:
                started = time.perf_counter()
                for payload in burst:
                    appends.writer.write(payload)
                await appends.writer.drain()
                for _ in burst:
                    line = await asyncio.wait_for(
                        appends.reader.readline(), RESPONSE_TIMEOUT
                    )
                    sock.setsockopt(
                        socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1
                    )
                    if not line:
                        raise ServerError(
                            "server closed the append connection"
                        )
                    traffic.drain_responses.append(line)
                wall = time.perf_counter() - started
                after = _probe_on(probe, server_cpu)["mixed"]
                traffic.drain_s.append((wall, (before + after) / 2))
                before = after

        queries = conns[1]
        final = traffic.final
        final["snapshot"] = await _call(queries, {"op": "snapshot"})
        final["fresh"] = await _call(
            queries,
            {"op": "query-batch", "items": check_items, "max_staleness": 0},
        )
        final["stats"] = await _call(queries, {"op": "stats"})
        final["peak_rss_mb"] = server.peak_rss_mb()
        final["shutdown"] = await _call(queries, {"op": "shutdown"})
    finally:
        for conn in conns:
            conn.writer.close()
        for conn in conns:
            try:
                await conn.writer.wait_closed()
            except OSError:
                pass
    return traffic


# ----------------------------------------------------------------------
# Checking what came back
# ----------------------------------------------------------------------
def _exact_at(stream: np.ndarray, n: int, items: np.ndarray,
              indices: np.ndarray) -> np.ndarray:
    """Exact frequency of ``items[k]`` in ``stream[:indices[k]]``."""
    exact = np.zeros(len(items), dtype=np.int64)
    counts = np.zeros(n, dtype=np.int64)
    position = 0
    order = np.argsort(indices, kind="stable")
    for k in order.tolist():
        index = int(indices[k])
        if index > position:
            counts += np.bincount(stream[position:index], minlength=n)
            position = index
        exact[k] = counts[items[k]]
    return exact


def check_traffic(sizes: Sizes, the_plan: Plan, traffic: Traffic,
                  outcome: Outcome) -> dict[str, float]:
    """Verify every response; returns the mean staleness and the count
    of error responses."""
    items: list[int] = []
    estimates: list[float] = []
    indices: list[int] = []
    behind: list[int] = []
    errors = 0
    for kind, meta, line in traffic.responses:
        outcome.attempted += 1
        try:
            response = json.loads(line)
        except json.JSONDecodeError:
            outcome.fail(f"{kind}: unparsable response {line[:80]!r}")
            continue
        if not response.get("ok"):
            errors += 1
            outcome.fail(f"{kind}: {response.get('error')}")
            continue
        if kind == "append":
            continue
        index = response["snapshot_index"]
        lag = response["updates_behind"]
        if lag != response["head"] - index or lag < 0:
            outcome.fail(f"{kind}: inconsistent staleness {response}")
            continue
        behind.append(lag)
        if kind == "query":
            item, fresh = meta
            if fresh and lag != 0:
                outcome.fail(f"fresh query answered {lag} updates behind")
            items.append(item)
            estimates.append(response["value"])
            indices.append(index)
        else:
            answers = response["answers"]
            if len(answers) != len(meta):
                outcome.fail("query-batch answer count mismatch")
                continue
            items.extend(meta)
            estimates.extend(answer["value"] for answer in answers)
            indices.extend([index] * len(answers))
    for line in traffic.drain_responses:
        outcome.attempted += 1
        response = json.loads(line)
        if not response.get("ok"):
            errors += 1
            outcome.fail(f"drain append: {response.get('error')}")
    items_a = np.asarray(items, dtype=np.int64)
    indices_a = np.asarray(indices, dtype=np.int64)
    exact = _exact_at(the_plan.stream, sizes.n, items_a, indices_a)
    check_points(
        outcome,
        SKETCH,
        items_a,
        np.asarray(estimates, dtype=np.float64),
        exact,
        BOUND,
        indices_a,
    )
    return {
        "staleness_mean_updates": float(np.mean(behind)) if behind else 0.0,
        "errors": float(errors),
    }


def check_final(sizes: Sizes, the_plan: Plan, traffic: Traffic,
                check_items: list[int], outcome: Outcome) -> dict:
    """The final snapshot equals a fresh ``Engine.run`` over the same
    prefix, in state changes and in the answers for the most frequent
    items; returns the snapshot's state changes and the median
    relative error of those answers."""
    from repro.api import Engine
    from repro.query import MultiPointQuery

    final = traffic.final
    for verb in ("snapshot", "fresh", "stats", "shutdown"):
        outcome.check(
            bool(final.get(verb, {}).get("ok")),
            f"{verb} verb failed: {final.get(verb)}",
        )
    snapshot = final["snapshot"]
    total = len(the_plan.stream)
    outcome.check(
        snapshot.get("snapshot_index") == total
        and snapshot.get("head") == total,
        f"final snapshot at {snapshot.get('snapshot_index')} "
        f"(head {snapshot.get('head')}), expected {total}",
    )
    outcome.check(
        total % 8192 == 0,
        f"run length {total} is not on a snapshot-cadence boundary",
    )
    engine = Engine(
        SKETCH,
        n=sizes.n,
        epsilon=EPSILON,
        seed=SKETCH_SEED,
        shards=sizes.shards,
    )
    report = engine.run(the_plan.stream, queries=[],
                        chunk_size=sizes.append_items)
    outcome.check(
        snapshot.get("state_changes") == report.audit.state_changes,
        f"snapshot state_changes {snapshot.get('state_changes')} != "
        f"fresh run {report.audit.state_changes}",
    )
    expected = [
        answer.value
        for answer in engine.query_many(MultiPointQuery(tuple(check_items)))
    ]
    served = [answer["value"] for answer in final["fresh"].get("answers", [])]
    outcome.check(
        served == expected,
        "served point answers at the final snapshot differ from a "
        "fresh run",
    )
    exact = np.bincount(the_plan.stream, minlength=sizes.n)[check_items]
    relative = check_points(
        outcome,
        SKETCH,
        np.asarray(check_items, dtype=np.int64),
        np.asarray(served if served else expected, dtype=np.float64),
        exact,
        BOUND,
        total,
    )
    return {
        "state_changes": int(snapshot.get("state_changes", 0)),
        "estimate_rel_error": median(relative.tolist()),
    }


def sustained(traffic: Traffic) -> bool:
    """Whether the offered rate was sustained: the number of requests
    outstanding at send time must not grow from the first half of the
    open-loop phase to the second."""
    outstanding = traffic.outstanding_at_send
    half = len(outstanding) // 2
    if half == 0:
        return True
    first = float(np.mean(outstanding[:half]))
    second = float(np.mean(outstanding[half:]))
    return second <= 2.0 * first + 2.0


# ----------------------------------------------------------------------
# Sessions
# ----------------------------------------------------------------------
@dataclass
class Session:
    the_plan: Plan
    traffic: Traffic
    #: (raw seconds, probe factor) per server spawn
    setup_samples: list[tuple[float, float]]
    server_lines: list[str]
    checks: dict[str, float]


def run_session(sizes: Sizes, seed: int, open_seconds: float,
                outcome: Outcome, traced: bool = False,
                setup_repeats: int | None = None,
                tamper=None) -> Session:
    """One server lifetime: set-up, open loop, drain, final checks.

    ``tamper`` (tests only) may rewrite the traffic before it is
    checked, to show that a wrong answer is caught.
    """
    the_plan = plan(sizes, seed, open_seconds)
    check_items = top_items(
        np.bincount(the_plan.stream, minlength=sizes.n), sizes.top_items
    ).tolist()
    repeats = sizes.setup_repeats if setup_repeats is None else setup_repeats
    setup_samples = []
    probe = Probe()
    server = None
    try:
        # Spawned on the probe's CPU, so the probe measures the core the
        # start-up runs on; the served process then gets every CPU back.
        with _one_cpu():
            for attempt in range(repeats):
                factor = probe.sample()["python"]
                server = ServerProcess(sizes, traced)
                address = server.wait_ready()
                setup_samples.append((server.ready_s, factor))
                if attempt < repeats - 1:
                    request(address, {"op": "shutdown"})
                    server.wait_exit()
                    server.close()
                    server = None
        _set_affinity(server.proc.pid, os.sched_getaffinity(0))
        traffic = asyncio.run(
            _drive(address, the_plan, check_items, server, probe)
        )
        lines = server.wait_exit()
    finally:
        if server is not None:
            server.close()
    if not sustained(traffic):
        outcome.notes.append(
            "offered rate not sustained: requests outstanding grew "
            "during the open-loop phase"
        )
    if tamper is not None:
        tamper(traffic)
    checks = check_traffic(sizes, the_plan, traffic, outcome)
    checks.update(
        check_final(sizes, the_plan, traffic, check_items, outcome)
    )
    return Session(the_plan, traffic, setup_samples, lines, checks)


def end_to_end(sizes: Sizes, session: Session) -> dict[str, float]:
    traffic = session.traffic
    burst = sizes.drain_burst_appends * sizes.append_items
    lat = traffic.latencies
    drain_rate = median([burst / wall * f for wall, f in traffic.drain_s])
    return {
        "setup_s": median([raw / f for raw, f in session.setup_samples]),
        "setup_s.raw": median([raw for raw, _ in session.setup_samples]),
        "ingest_items_per_s.raw": median(
            [burst / wall for wall, _ in traffic.drain_s]
        ),
        "ingest_items_per_s": drain_rate,
        "drain_items_per_s": drain_rate,
        "append_p50_ms": percentile(lat["append"], 50),
        "append_p99_ms": percentile(lat["append"], 99),
        "query_p50_ms": percentile(lat["query"], 50),
        "query_p99_ms": percentile(lat["query"], 99),
        "batch_p50_ms": percentile(lat["batch"], 50),
        "batch_p99_ms": percentile(lat["batch"], 99),
        "state_changes": float(session.checks["state_changes"]),
        "estimate_rel_error": session.checks["estimate_rel_error"],
        "staleness_mean_updates": session.checks["staleness_mean_updates"],
        "peak_rss_mb": float(traffic.final.get("peak_rss_mb", 0.0)),
    }


def samples(session: Session) -> dict[str, int]:
    lat = session.traffic.latencies
    return {
        "appends": len(lat["append"]),
        "point_queries": len(lat["query"]),
        "batch_queries": len(lat["batch"]),
        "drain_appends": session.the_plan.drain_appends,
        "setup_repeats": len(session.setup_samples),
    }


def client_layers(session: Session) -> dict[str, float]:
    traffic = session.traffic
    return {
        "client.lateness_p99_ms": percentile(traffic.lateness, 99),
        "client.outstanding_max": float(traffic.outstanding_max),
        "client.encode_s": session.the_plan.encode_s,
    }


def server_trace(session: Session) -> dict:
    """The traced launcher's ``PERFBENCH_TRACE`` payload."""
    for line in session.server_lines:
        if line.startswith(TRACE_PREFIX):
            return json.loads(line[len(TRACE_PREFIX):])
    raise ServerError("traced server printed no trace")
