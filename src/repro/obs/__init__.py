"""repro.obs — tracing, metrics and structured logging (stdlib only).

The telemetry layer every later perf PR reads from:

- :mod:`repro.obs.trace` — spans around every pipeline stage, with
  context propagation across worker processes and HTTP, and Chrome
  trace-event export (``--trace-out``, ``REPRO_TRACE=1``);
- :mod:`repro.obs.metrics` — counters/gauges/histograms on one
  process-wide registry, rendered in the Prometheus text format
  (``GET /metrics`` on the serve tier, ``repro metrics`` locally);
- :mod:`repro.obs.logs` — levelled structured logging to stderr
  (``REPRO_LOG=level[:json]``), replacing ad-hoc prints;
- :mod:`repro.obs.analyze` — trace analytics over a span tree:
  critical path, per-stage self time, worker occupancy, straggler
  shards of a saved capture (``repro trace FILE``);
- :mod:`repro.obs.flame` — the zero-dependency sampling profiler,
  the repo's only one, with collapsed-stack flame output
  (``--flame-out`` on ``sweep``/``bench``);
- :mod:`repro.obs.report` — the self-contained HTML dashboard
  (``repro report``, ``GET /dashboard``).

:func:`stage` is the composite used at every pipeline stage: it
always feeds the per-stage latency histogram (metrics are
permanently on and near-free) and *additionally* records a span when
a trace is active.
"""

from __future__ import annotations

import contextlib
import time

from repro.obs import logs, metrics, trace
from repro.obs.logs import get_logger
from repro.obs.metrics import REGISTRY
from repro.obs.trace import span

__all__ = ["logs", "metrics", "trace", "get_logger", "REGISTRY",
           "span", "stage", "analyze", "flame", "report"]


def __getattr__(name):
    # analyze/flame/report are lazy: flame imports threading machinery
    # and report is render-only — neither belongs on the hot import
    # path of every traced worker process.
    if name in ("analyze", "flame", "report"):
        import importlib
        module = importlib.import_module(f"repro.obs.{name}")
        globals()[name] = module
        return module
    raise AttributeError(name)


@contextlib.contextmanager
def stage(name, **attrs):
    """Time one pipeline stage: histogram always, span when tracing.

    The span (named after the stage, carrying a ``stage`` attribute
    so ingested worker spans can be re-observed into the local
    histogram) costs nothing when tracing is off; the histogram
    observation is one locked add.
    """
    started = time.perf_counter()
    try:
        with trace.span(name, stage=name, **attrs) as active:
            yield active
    finally:
        metrics.STAGE_SECONDS.observe(
            time.perf_counter() - started, stage=name)
