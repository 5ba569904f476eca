"""Layer spans for the traced benchmark run.

A :class:`Tracer` keeps one span stack per thread and folds every
finished span into per-name aggregates: calls, total time, self time
(the span minus the part of it its child spans cover) and items.
Spans are placed from the benchmark's own code, by wrapping the
public entry points of each layer of :mod:`repro` (:func:`install`);
the package itself is never edited.  A nested call into a span of the
same name (``KWiseHash.bucket_many`` calling ``many``) extends the
outer span instead of opening a new one, so ``calls`` counts entries
into the layer.

The aggregates are summed over threads, so self times of spans that
ran concurrently on different threads add up to more than wall time;
the serving handler threads are accounted per connection for that
reason (see ``serve_launcher.py``).
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable


class _Frame:
    __slots__ = ("name", "child_s")

    def __init__(self, name: str) -> None:
        self.name = name
        self.child_s = 0.0


class Tracer:
    """Per-thread span stacks folded into per-name aggregates."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: name -> [calls, total_s, self_s, items]
        self.spans: dict[str, list[float]] = {}
        #: name -> largest value observed
        self.gauges: dict[str, float] = {}

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(
        self, name: str, total: float, self_s: float, items: int
    ) -> None:
        with self._lock:
            entry = self.spans.get(name)
            if entry is None:
                entry = self.spans[name] = [0, 0.0, 0.0, 0]
            entry[0] += 1
            entry[1] += total
            entry[2] += self_s
            entry[3] += items

    def call(
        self,
        name: str,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        items: int = 0,
    ) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        if stack and stack[-1].name == name:
            return fn(*args, **kwargs)
        frame = _Frame(name)
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1].child_s += elapsed
            self._record(name, elapsed, elapsed - frame.child_s, items)

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str | Callable[..., str | None],
        items: Callable[..., int] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span.

        ``name`` may be a callable of the call's arguments, returning
        ``None`` for calls that should not open a span; ``items``
        counts the work a call carries (chunk length, batch size).
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name(*args, **kwargs) if callable(name) else name
            if span is None:
                return fn(*args, **kwargs)
            count = items(*args, **kwargs) if items is not None else 0
            return tracer.call(span, fn, args, kwargs, count)

        traced.__wrapped_by_tracer__ = True
        return traced

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str | Callable[..., str | None],
        items: Callable[..., int] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by its traced wrapper (idempotent)."""
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr
        )
        if getattr(fn, "__wrapped_by_tracer__", False):
            return
        setattr(owner, attr, self.wrap(fn, name, items))

    def gauge_max(self, name: str, value: float) -> None:
        """Keep the largest ``value`` observed under ``name``."""
        with self._lock:
            if value > self.gauges.get(name, float("-inf")):
                self.gauges[name] = value

    def snapshot(self) -> dict:
        """A JSON-safe copy of the aggregates and gauges."""
        with self._lock:
            return {
                "spans": {
                    name: list(entry) for name, entry in self.spans.items()
                },
                "gauges": dict(self.gauges),
            }


def _len_arg(index: int) -> Callable[..., int]:
    """Items counter: ``len()`` of the positional argument ``index``."""

    def count(*args, **kwargs) -> int:
        try:
            return len(args[index])
        except (IndexError, TypeError):
            return 0

    return count


def _query_items(sketch, q, *args, **kwargs) -> int:
    items = getattr(q, "items", None)
    if items is not None:
        return len(items)
    return 1 if getattr(q, "item", None) is not None else 0


def install(tracer: Tracer) -> None:
    """Place spans around the public entry points of every layer.

    Layers and span names (per-layer metrics are read from these):

    - ``api``: ``Engine.run`` (``api.run``), ``Engine.query`` /
      ``query_many`` (``api.query``);
    - ``workloads``: ``Workload.materialize`` and the generators
      (``workloads.materialize``);
    - ``runtime``: ``ShardedRunner.run`` / ``ingest`` / ``merge`` /
      ``snapshot_cut`` / ``merged_from_cut``;
    - ``hashing``: ``KWiseHash.many`` / ``bucket_many`` /
      ``sign_many`` (``hashing.kwise``), ``PhiloxCoins.uniform_block``
      (``hashing.coins``), ``cms_transform`` as bound in the p-stable
      family (``hashing.pstable``);
    - ``core``: Morris counter steps (``core.morris``);
    - family kernels: ``Sketch.process_chunk`` / ``process_many`` of
      each registered family (``kernel.<name>``);
    - ``state``: tracker ``record_chunk`` (``state.record``),
      ``Sketch.clone`` (``state.clone``), ``Sketch.merge``
      (``state.merge``);
    - ``query``: ``Sketch.query`` / ``query_many`` (``query.answer``);
    - ``serve``: ``LiveEngine.append`` (``serve.append``),
      ``LiveEngine.query`` / ``query_batch`` / ``snapshot``
      (``serve.read``), ``LiveSession.handle`` (``serve.dispatch``).
      The codec and socket spans are placed by the server launcher.
    """
    from repro import registry
    from repro.api import Engine
    from repro.core import counters, fp_pstable
    from repro.hashing.coins import PhiloxCoins
    from repro.hashing.prime_field import KWiseHash
    from repro.runtime.sharded import ShardedRunner
    from repro.serve.engine import LiveEngine
    from repro.serve.server import LiveSession
    from repro.state.algorithm import ChunkAudit, Sketch
    from repro.state.tracker import TrackerBackend
    from repro.workloads import Workload

    tracer.patch(Engine, "run", "api.run")
    tracer.patch(Engine, "query", "api.query")
    tracer.patch(Engine, "query_many", "api.query")

    tracer.patch(Workload, "materialize", "workloads.materialize")

    tracer.patch(ShardedRunner, "run", "runtime.run")
    tracer.patch(ShardedRunner, "ingest", "runtime.ingest", _len_arg(1))
    ingest = ShardedRunner.ingest

    def ingest_and_skew(runner, *args, **kwargs):
        consumed = ingest(runner, *args, **kwargs)
        tracer.gauge_max("runtime.shard_skew", runner.skew())
        return consumed

    ingest_and_skew.__wrapped_by_tracer__ = True
    ShardedRunner.ingest = ingest_and_skew
    tracer.patch(ShardedRunner, "merge", "runtime.merge")
    tracer.patch(ShardedRunner, "snapshot_cut", "runtime.snapshot_cut")
    tracer.patch(
        ShardedRunner, "merged_from_cut", "runtime.merged_from_cut"
    )

    for attr in ("many", "bucket_many", "sign_many"):
        tracer.patch(KWiseHash, attr, "hashing.kwise", _len_arg(1))
    tracer.patch(PhiloxCoins, "uniform_block", "hashing.coins")
    tracer.patch(fp_pstable, "cms_transform", "hashing.pstable")

    tracer.patch(counters, "weighted_morris_step", "core.morris")
    tracer.patch(fp_pstable, "weighted_morris_step", "core.morris")
    for cls in (counters.MorrisCounter, counters.SkipMorrisCounter):
        for attr in ("add", "absorb", "merge_weight"):
            if attr in cls.__dict__:
                tracer.patch(cls, attr, "core.morris")

    kernel_names = {
        registry.spec(name).cls: f"kernel.{name}"
        for name in registry.names()
    }

    def kernel_span(sketch, *args, **kwargs) -> str | None:
        return kernel_names.get(type(sketch))

    tracer.patch(Sketch, "process_chunk", kernel_span, _len_arg(1))
    tracer.patch(Sketch, "process_many", kernel_span, _len_arg(1))

    tracer.patch(TrackerBackend, "record_chunk", "state.record")
    tracer.patch(ChunkAudit, "commit", "state.record")
    tracer.patch(Sketch, "clone", "state.clone")
    tracer.patch(Sketch, "merge", "state.merge")

    tracer.patch(Sketch, "query", "query.answer", _query_items)
    tracer.patch(Sketch, "query_many", "query.answer", _query_items)

    tracer.patch(LiveEngine, "append", "serve.append", _len_arg(1))
    for attr in ("query", "query_batch", "snapshot"):
        tracer.patch(LiveEngine, attr, "serve.read")
    tracer.patch(LiveSession, "handle", "serve.dispatch")
