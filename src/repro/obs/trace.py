"""Pipeline tracing: spans, context propagation, Chrome export.

A *span* records one timed operation — a pipeline stage, a job, an
HTTP dispatch — as a plain dict: ``trace_id`` (32 hex chars shared by
every span of one logical run), ``span_id`` (16 hex chars),
``parent_id`` (the enclosing span, ``None`` for the root), name,
attributes, wall time, CPU time, process id and thread name.  Spans
nest through a :mod:`contextvars` variable, so ``with span("map"):``
inside ``with span("point"):`` parents itself automatically, across
threads started the normal way and — via explicit *carriers* —
across worker processes and HTTP hops.

Tracing is **off by default** and the off path is near-free:
:func:`span` returns a shared no-op context manager without
allocating anything when no trace is active.  Turn it on with
:func:`enable_tracing` (the ``repro trace`` command, ``--trace-out``)
or ``REPRO_TRACE=1`` in the environment.

Propagation uses a W3C-``traceparent``-shaped header,
``00-{trace_id}-{span_id}-01``:

- **across processes** — the worker entry wraps its computation in
  :func:`adopt` around a carrier captured by the submitting side and
  returns its recorded spans with the result (see
  :func:`repro.runtime.pool._compute_traced`);
- **across HTTP** — the serve client sends the header, the server
  adopts it, and the finished job ships its spans back inside the
  result payload, so a distributed ``run_distributed`` dispatch
  stitches into one tree with a single ``trace_id``.

Finished spans land in a bounded in-process collector; exporters
(:func:`chrome_trace`) turn them into Chrome trace-event JSON that
Perfetto / ``chrome://tracing`` loads directly.  Wall timestamps are
epoch microseconds (``time.time_ns``), so spans recorded by
different processes and hosts align on one timeline.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import os
import threading
import time
import uuid

#: Environment variable enabling tracing for the whole process.
ENV_TRACE = "REPRO_TRACE"

#: Version prefix / sampled flag of the traceparent header we speak.
_TRACEPARENT_VERSION = "00"
_TRACEPARENT_FLAGS = "01"

#: Upper bound on buffered finished spans.  A forgotten long-lived
#: tracing server must degrade to dropped spans (counted), never to
#: unbounded memory growth.
MAX_BUFFERED_SPANS = 100_000

_HEX = set("0123456789abcdef")


class SpanContext:
    """The propagated identity of an active span (immutable)."""

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id, span_id):
        self.trace_id = trace_id
        self.span_id = span_id

    def __repr__(self):
        return f"SpanContext({self.trace_id!r}, {self.span_id!r})"


#: The currently active span's context, or None.  Contextvars flow
#: into threads only when the Context is copied explicitly, which is
#: why cross-thread/process/HTTP propagation uses carriers instead.
_current = contextvars.ContextVar("repro_trace_current", default=None)


class _Collector:
    """Bounded, locked buffer of finished span dicts."""

    def __init__(self):
        self.enabled = False
        self._lock = threading.Lock()
        self._spans = []
        self.dropped = 0

    def record(self, span_dict):
        with self._lock:
            if len(self._spans) >= MAX_BUFFERED_SPANS:
                self.dropped += 1
                return
            self._spans.append(span_dict)

    def snapshot(self):
        with self._lock:
            return list(self._spans)

    def drain(self):
        with self._lock:
            spans, self._spans = self._spans, []
            return spans

    def for_trace(self, trace_id, drain=False):
        with self._lock:
            matched = [s for s in self._spans
                       if s["trace_id"] == trace_id]
            if drain:
                self._spans = [s for s in self._spans
                               if s["trace_id"] != trace_id]
            return matched

    def reset(self):
        with self._lock:
            self._spans = []
            self.dropped = 0


_collector = _Collector()


def _truthy(value):
    return (value or "").strip().lower() not in ("", "0", "false", "no")


def enable_tracing():
    """Record spans process-wide until :func:`disable_tracing`."""
    _collector.enabled = True


def disable_tracing():
    _collector.enabled = False


def tracing_enabled():
    """Whether this process records spans unconditionally."""
    return _collector.enabled


def tracing_active():
    """Whether a ``span()`` opened *right now* would be recorded.

    True when tracing is enabled process-wide **or** the caller sits
    inside an adopted remote context — a server that is not itself
    tracing still records the spans of a traced client's request.
    """
    return _collector.enabled or _current.get() is not None


def reset_tracing():
    """Disable tracing and drop all buffered spans (test isolation)."""
    _collector.enabled = False
    _collector.reset()


def dropped_spans():
    """How many spans the bounded buffer has refused so far."""
    return _collector.dropped


if _truthy(os.environ.get(ENV_TRACE)):  # pragma: no cover - env path
    enable_tracing()


def new_trace_id():
    return uuid.uuid4().hex


def new_span_id():
    return uuid.uuid4().hex[:16]


def format_traceparent(context):
    """``00-{trace_id}-{span_id}-01`` for a :class:`SpanContext`."""
    return (f"{_TRACEPARENT_VERSION}-{context.trace_id}-"
            f"{context.span_id}-{_TRACEPARENT_FLAGS}")


def parse_traceparent(header):
    """Parse a traceparent header; None on anything malformed.

    Propagation is best-effort by design: a bad header from an old
    client must degrade to "no trace", never to a 500.
    """
    if not isinstance(header, str):
        return None
    parts = header.strip().lower().split("-")
    if len(parts) != 4:
        return None
    version, trace_id, span_id, _flags = parts
    if version != _TRACEPARENT_VERSION:
        return None
    if len(trace_id) != 32 or not set(trace_id) <= _HEX:
        return None
    if len(span_id) != 16 or not set(span_id) <= _HEX:
        return None
    if trace_id == "0" * 32 or span_id == "0" * 16:
        return None
    return SpanContext(trace_id, span_id)


def current_carrier():
    """``{"traceparent": ...}`` for the active span, or None.

    The dict is what crosses process/HTTP boundaries: pickle it into
    a worker submission or copy it into request headers, then
    :func:`adopt` it on the far side.
    """
    context = _current.get()
    if context is None:
        return None
    return {"traceparent": format_traceparent(context)}


@contextlib.contextmanager
def adopt(carrier):
    """Run the body under a remote parent context.

    ``carrier`` is a ``{"traceparent": ...}`` dict (or None / a dict
    without the key, both no-ops).  Spans opened inside become
    children of the remote span, sharing its ``trace_id`` — the
    stitching primitive for workers, job runners and HTTP handlers.
    """
    context = None
    if isinstance(carrier, dict):
        context = parse_traceparent(carrier.get("traceparent"))
    if context is None:
        yield None
        return
    token = _current.set(context)
    try:
        yield context
    finally:
        _current.reset(token)


class _NoopSpan:
    """The shared do-nothing span handed out while tracing is off."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def set(self, **attrs):
        pass


_NOOP = _NoopSpan()


class _ActiveSpan:
    """One live span: times itself, records on exit."""

    __slots__ = ("name", "attrs", "trace_id", "span_id", "parent_id",
                 "_token", "_start_unix_ns", "_start_perf_ns",
                 "_start_cpu_ns")

    def __init__(self, name, attrs):
        self.name = name
        self.attrs = attrs

    def set(self, **attrs):
        """Attach attributes discovered mid-span (counts, outcomes)."""
        self.attrs.update(attrs)

    def __enter__(self):
        parent = _current.get()
        if parent is None:
            self.trace_id = new_trace_id()
            self.parent_id = None
        else:
            self.trace_id = parent.trace_id
            self.parent_id = parent.span_id
        self.span_id = new_span_id()
        self._token = _current.set(
            SpanContext(self.trace_id, self.span_id))
        self._start_unix_ns = time.time_ns()
        self._start_perf_ns = time.perf_counter_ns()
        self._start_cpu_ns = time.thread_time_ns()
        return self

    def __exit__(self, exc_type, exc, tb):
        cpu_ns = time.thread_time_ns() - self._start_cpu_ns
        wall_ns = time.perf_counter_ns() - self._start_perf_ns
        _current.reset(self._token)
        record = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_unix_us": self._start_unix_ns // 1000,
            "wall_us": wall_ns // 1000,
            "cpu_us": cpu_ns // 1000,
            "pid": os.getpid(),
            "thread": threading.current_thread().name,
            "status": "ok" if exc_type is None else "error",
            "attrs": self.attrs,
        }
        if exc_type is not None:
            record["error"] = exc_type.__name__
        _collector.record(record)
        return False


def span(name, **attrs):
    """Context manager timing one operation as a span.

    The hot-path guard: when no trace is active this returns one
    shared no-op object — no allocation, no id generation, no clock
    reads — which is what keeps instrumented code bench-neutral with
    tracing off.
    """
    if not tracing_active():
        return _NOOP
    return _ActiveSpan(name, attrs)


# ----------------------------------------------------------------------
# Reading the buffer / moving spans between processes
# ----------------------------------------------------------------------
def snapshot_spans():
    """Copies of all buffered spans, oldest first."""
    return _collector.snapshot()


def drain_spans():
    """Remove and return all buffered spans (the worker hand-off)."""
    return _collector.drain()


def spans_for_trace(trace_id, drain=False):
    """Buffered spans of one trace; ``drain`` removes them too."""
    return _collector.for_trace(trace_id, drain=drain)


def ingest(spans, observe_stages=False):
    """Add spans recorded elsewhere (worker process, remote server).

    Only minimally well-formed dicts are kept — remote data crosses a
    pickle or JSON boundary and must not be able to corrupt the local
    buffer.  ``observe_stages=True`` additionally feeds each span
    carrying a ``stage`` attribute into the local per-stage latency
    histogram: a worker process's metrics registry dies with the
    process, so its stage timings are only observable here.
    """
    from repro.obs import metrics

    accepted = 0
    for item in spans or ():
        if not isinstance(item, dict):
            continue
        if not all(isinstance(item.get(key), str)
                   for key in ("name", "trace_id", "span_id")):
            continue
        _collector.record(item)
        accepted += 1
        if observe_stages:
            stage = (item.get("attrs") or {}).get("stage")
            if stage is not None:
                metrics.STAGE_SECONDS.observe(
                    item.get("wall_us", 0) / 1e6, stage=str(stage))
    return accepted


# ----------------------------------------------------------------------
# Export
# ----------------------------------------------------------------------
def chrome_trace(spans):
    """Chrome trace-event JSON (a dict) from span dicts.

    Complete events (``ph: "X"``) on the epoch-microsecond timeline;
    load the written file in Perfetto (ui.perfetto.dev) or
    ``chrome://tracing``.  Span identities ride along in ``args`` so
    a flame row can be traced back to its tree position.
    """
    events = []
    for item in spans:
        args = dict(item.get("attrs") or {})
        args.update({
            "trace_id": item.get("trace_id"),
            "span_id": item.get("span_id"),
            "parent_id": item.get("parent_id"),
            "cpu_ms": round(item.get("cpu_us", 0) / 1000.0, 3),
            "status": item.get("status", "ok"),
        })
        events.append({
            "ph": "X",
            "cat": "repro",
            "name": item.get("name", "?"),
            "ts": item.get("start_unix_us", 0),
            "dur": max(1, item.get("wall_us", 0)),
            "pid": item.get("pid", 0),
            "tid": item.get("thread", "main"),
            "args": args,
        })
    events.sort(key=lambda event: event["ts"])
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path, spans):
    """Write :func:`chrome_trace` of ``spans`` to ``path``."""
    with open(path, "w") as handle:
        json.dump(chrome_trace(spans), handle, indent=2)
        handle.write("\n")
    return path
