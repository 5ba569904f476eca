"""Closed-loop capacity of ``repro serve`` per verb, over its socket.

Usage (from the root of a checkout)::

    python3 perfbench/capacity.py [--seconds 5] [--seed 1]

Starts the server ``serve-mixed`` uses (count-min, 8 hash shards,
default cadence) and sends requests with one in flight on one
connection, each kind for ``--seconds``, printing how many are
answered per second:

``append``       2048-item appends;
``query``        point queries (on the loaded server, no appends);
``query-batch``  64-item batches (likewise);
``mix``          rounds of ``serve-mixed``'s mix: one append, then
                 ``QUERIES_PER_APPEND`` queries, half point queries
                 (the first with ``max_staleness=0``, reading the
                 append) and half 64-item batches, alternating.

``serve-mixed`` offers the mix at half its closed-loop rate
(``common.Sizes``).
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    FULL,
    QUERIES_PER_APPEND,
    draw_queries,
    import_repro,
    materialize,
)

#: Appends loaded before the query verbs are timed: 1M items, about
#: what the open-loop phase of a 20-second run ingests.
PRELOAD_APPENDS = 512


def _closed_loop(sock: socket.socket, reader, payloads: list[bytes],
                 seconds: float) -> float:
    """Requests answered per second, one in flight, cycling through
    ``payloads``."""
    sent = 0
    started = time.perf_counter()
    deadline = started + seconds
    while time.perf_counter() < deadline:
        sock.sendall(payloads[sent % len(payloads)])
        line = reader.readline()
        if not json.loads(line).get("ok"):
            raise RuntimeError(f"request failed: {line[:200]!r}")
        sent += 1
    return sent / (time.perf_counter() - started)


def measure(seconds: float, seed: int) -> dict[str, float]:
    from serve_mixed import ServerProcess, _line, request

    sizes = FULL
    step = sizes.append_items
    stream = materialize(sizes, PRELOAD_APPENDS * step, seed)
    appends = [
        _line({"op": "append", "items": stream[i:i + step].tolist()})
        for i in range(0, len(stream), step)
    ]
    picks = draw_queries(stream, 4096, seed)
    half = QUERIES_PER_APPEND // 2
    points = [
        _line(
            {"op": "query", "kind": "point", "item": int(item)}
            | ({"max_staleness": 0} if k % half == 0 else {})
        )
        for k, item in enumerate(picks.tolist())
    ]
    batches = [
        _line({"op": "query-batch",
               "items": picks[lo:lo + sizes.batch_items].tolist()})
        for lo in range(0, len(picks), sizes.batch_items)
    ]
    server = ServerProcess(sizes, traced=False)
    try:
        address = server.wait_ready()
        with socket.create_connection(address) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            reader = sock.makefile("rb")
            rates = {"append": _closed_loop(sock, reader, appends, seconds)}
            # Load the whole stream (the append loop may have cycled
            # through only part of it) before timing the reads.
            for payload in appends:
                sock.sendall(payload)
                reader.readline()
            rates["query"] = _closed_loop(sock, reader, points, seconds)
            rates["query-batch"] = _closed_loop(
                sock, reader, batches, seconds
            )
            mix = []
            for i, append in enumerate(appends):
                mix.append(append)
                for k in range(half):
                    mix.append(points[(i * half + k) % len(points)])
                    mix.append(batches[(i * half + k) % len(batches)])
            per_round = 1 + QUERIES_PER_APPEND
            rates["mix"] = (
                _closed_loop(sock, reader, mix, seconds) / per_round
            )
        request(address, {"op": "shutdown"})
        server.wait_exit()
    finally:
        server.close()
    return rates


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    import_repro()
    rates = measure(args.seconds, args.seed)
    for verb, rate in rates.items():
        unit = "rounds" if verb == "mix" else "requests"
        print(f"{verb:12s} {rate:10.1f} {unit}/s closed-loop")
    print(json.dumps(rates, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
