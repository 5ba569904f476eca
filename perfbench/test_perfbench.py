"""Tests of the benchmark itself (tiny sizes; about half a minute).

Run with ``python -m pytest -q perfbench/test_perfbench.py`` from the
checkout root.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import ROOT, TINY, Outcome, import_repro  # noqa: E402

import_repro()

import serve_mixed  # noqa: E402
from checks import (  # noqa: E402
    PointBound,
    check_moment,
    check_points,
    check_stable_moment,
    stable_median_interval,
)

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in DECLARED["workloads"]]


def _run(workload: str, trace: int) -> tuple[int, dict, str]:
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--size", "tiny",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    lines = done.stdout.strip().splitlines()
    return done.returncode, json.loads(lines[-1]), done.stdout + done.stderr


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    code, result, output = _run(workload, trace)
    assert code == 0, output
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, output
    assert result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], float)
        if not trace:
            assert got["value"] > 0, metric["name"]


def test_underestimate_trips_the_count_min_check():
    outcome = Outcome()
    items = np.arange(4)
    exact = np.array([10, 20, 30, 40])
    estimates = exact.copy()
    check_points(outcome, "count-min", items, estimates, exact,
                 PointBound(0.1, "m", never_under=True), 100)
    assert outcome.failed == 0
    estimates[2] -= 1
    check_points(outcome, "count-min", items, estimates, exact,
                 PointBound(0.1, "m", never_under=True), 100)
    assert outcome.failed == 1
    assert "underestimated" in outcome.failures[0]


def test_error_share_and_moment_checks_trip():
    outcome = Outcome()
    items = np.arange(10)
    exact = np.full(10, 5.0)
    estimates = exact + np.array([0, 0, 0, 0, 0, 0, 0, 0, 0, 50.0])
    check_points(outcome, "count-sketch", items, estimates, exact,
                 PointBound(0.1, "m"), 100)
    assert outcome.failed == 1  # one item in ten is outside eps * m
    check_moment(outcome, "pstable-fp", 180.0, 100.0, 0.5, 1.0)
    assert outcome.failed == 2


def test_stable_moment_check_allows_the_theorems_misses():
    low, high = stable_median_interval(20)
    assert 0.1 < low < 0.5 and 2.0 < high < 10.0
    outcome = Outcome()
    # Off by more than eps = 0.5, as a correct 20-row sketch sometimes
    # is: a note, not a failure.
    check_stable_moment(outcome, "pstable-fp", 45.0, 100.0, 0.5, 20)
    assert outcome.failed == 0 and len(outcome.notes) == 1
    check_stable_moment(outcome, "pstable-fp", 100.0 * low / 2, 100.0,
                        0.5, 20)
    assert outcome.failed == 1
    # More rows narrow the interval.
    assert stable_median_interval(400)[0] > low


def test_corrupted_served_answer_trips_the_check():
    def corrupt(traffic):
        for position, (kind, meta, line) in enumerate(traffic.responses):
            response = json.loads(line)
            if kind == "query" and response.get("value", 0) > 0:
                response["value"] = -1.0
                traffic.responses[position] = (
                    kind, meta, json.dumps(response).encode()
                )
                return
        raise AssertionError("no point answer to corrupt")

    outcome = Outcome()
    serve_mixed.run_session(TINY, 5, 1.0, outcome, tamper=corrupt)
    assert outcome.failed >= 1
    assert any("count-min" in failure for failure in outcome.failures)


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.fixture
def started_pids(monkeypatch):
    """Pids of every server process the test starts."""
    pids: list[int] = []
    spawn = serve_mixed.ServerProcess.__init__

    def recording(self, *args, **kwargs):
        spawn(self, *args, **kwargs)
        pids.append(self.proc.pid)

    monkeypatch.setattr(serve_mixed.ServerProcess, "__init__", recording)
    return pids


def test_no_server_survives_a_failed_run(monkeypatch, started_pids):
    async def broken(address, the_plan, check_items, server, probe):
        raise ConnectionError("client failed mid-run")

    monkeypatch.setattr(serve_mixed, "_drive", broken)
    with pytest.raises(ConnectionError):
        serve_mixed.run_session(TINY, 5, 1.0, Outcome())
    assert started_pids
    assert not any(_alive(pid) for pid in started_pids)


def test_no_server_survives_a_failed_start(started_pids):
    server = serve_mixed.ServerProcess(TINY, traced=False,
                                       extra_args=("--shards", "0"))
    try:
        with pytest.raises(serve_mixed.ServerError):
            server.wait_ready()
    finally:
        server.close()
    assert started_pids and not any(_alive(pid) for pid in started_pids)
