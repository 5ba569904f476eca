"""Run ``repro serve`` with layer spans installed (the traced server).

Usage: ``python perfbench/serve_launcher.py <repro serve arguments>``.

Installs the library-wide spans of :func:`tracing.install`, adds the
serving front end's own — the JSON codec (``serve.codec``), the socket
send (``serve.send``), the wait for and read of each request line
(``serve.recv``) and one root span per connection
(``serve.connection``) — then hands the arguments to the ``repro``
command line.  After the server shuts down it prints one line,
``PERFBENCH_TRACE <json>``, holding the span aggregates and the final
audit of the served engine.
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import TRACE_PREFIX, import_repro  # noqa: E402
from tracing import Tracer, install  # noqa: E402


class _TimedReader:
    """Line iterator over a handler's ``rfile`` whose every read is a
    ``serve.recv`` span (idle wait included: the handler blocks here
    until the client sends)."""

    def __init__(self, tracer: Tracer, rfile) -> None:
        self._tracer = tracer
        self._rfile = rfile

    def __iter__(self):
        return self

    def __next__(self) -> bytes:
        line = self._tracer.call("serve.recv", self._rfile.readline, (), {})
        if not line:
            raise StopIteration
        return line


class _TimedWriter:
    """``wfile`` whose writes are ``serve.send`` spans."""

    def __init__(self, tracer: Tracer, wfile) -> None:
        self._tracer = tracer
        self._wfile = wfile

    def write(self, data: bytes):
        return self._tracer.call("serve.send", self._wfile.write, (data,), {})

    def flush(self) -> None:
        self._wfile.flush()


def install_front_end(tracer: Tracer) -> dict:
    """Spans for the socket front end; returns a holder that receives
    the served engine."""
    from repro.serve import server

    served: dict = {}
    codec = types.SimpleNamespace(
        loads=tracer.wrap(json.loads, "serve.codec"),
        dumps=tracer.wrap(json.dumps, "serve.codec"),
        JSONDecodeError=json.JSONDecodeError,
    )
    server.json = codec

    handler = server._LineHandler
    setup = handler.setup

    def traced_setup(self) -> None:
        setup(self)
        self.rfile = _TimedReader(tracer, self.rfile)
        self.wfile = _TimedWriter(tracer, self.wfile)

    handler.setup = traced_setup
    tracer.patch(handler, "handle", "serve.connection")

    serve = server.serve

    def capture_engine(engine, *args, **kwargs):
        served["engine"] = engine
        return serve(engine, *args, **kwargs)

    server.serve = capture_engine
    return served


def main(argv: list[str]) -> int:
    import_repro()
    from repro.cli import main as repro_main

    tracer = Tracer()
    install(tracer)
    served = install_front_end(tracer)
    code = repro_main(["serve", *argv])
    engine = served.get("engine")
    report = engine.snapshot().report if engine is not None else None
    payload = {
        "trace": tracer.snapshot(),
        "state": None
        if report is None
        else {
            "state_changes": report.state_changes,
            "writes": report.total_writes,
            "peak_words": report.peak_words,
            "updates": engine.head,
        },
    }
    print(TRACE_PREFIX + json.dumps(payload), flush=True)
    return code or 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
