"""The parallel experiment engine (batch interface).

:func:`run_sweep` executes a batch of
:class:`~repro.runtime.sweep.PointSpec` into one
:class:`~repro.runtime.sweep.SweepResult` with three guarantees:

- **Deterministic ordering** — results come back in the order the
  specs were given, regardless of which worker finished first.
  Duplicate specs within a batch are computed once and fanned back
  out to every requesting position.
- **Exception capture** — the pipeline already folds
  :class:`~repro.errors.UnmappableError` into an error-carrying
  :class:`~repro.runtime.sweep.ExperimentPoint`; any *other*
  exception inside a worker is captured the same way (with its
  traceback in ``point.error``) so one broken point can never kill a
  140-point sweep.  Captured crashes are never persisted to the
  cache — only deterministic outcomes are.
- **Serial fallback** — ``workers=1`` runs the identical code path
  inline, with no executor and no pickling, which is what the
  equivalence tests compare the parallel path against.

The batch path is a thin collector over
:func:`repro.runtime.stream.stream_specs` — the generator owns the
executor, the cache protocol and the progress callbacks, so the
streaming and batch interfaces cannot drift apart.  Workers are plain
``concurrent.futures.ProcessPoolExecutor`` processes; specs and
points cross the boundary by pickling.  The mapping flow seeds every
random stream from ``FlowOptions.seed``, so a point computes
identically in any process.
"""

from __future__ import annotations

import time
import traceback

from repro.runtime.sweep import (
    ExperimentPoint,
    SweepResult,
    compute_point,
    sweep_specs,
)


def _compute_captured(spec):
    """Worker entry point: compute one spec, capture any failure.

    Catches ``Exception``, not ``BaseException``: the serial path
    runs this inline in the main process, where KeyboardInterrupt /
    SystemExit must abort the whole sweep, not burn one point each.
    """
    try:
        return compute_point(spec)
    except Exception as error:  # noqa: BLE001 — capture is the contract
        detail = traceback.format_exc(limit=8)
        return ExperimentPoint(
            spec.kernel_name, spec.config_name, spec.variant,
            error=f"{type(error).__name__}: {error}\n{detail}")


def _compute_job(spec, carrier=None, attempt=0):
    """Worker entry for the supervised parallel path.

    Runs the chaos hook first — an armed ``REPRO_FAULT`` plan may
    crash or stall this very process, which is how the containment
    layer in :mod:`repro.runtime.stream` is exercised — then defers
    to the captured (optionally traced) computation.  ``attempt`` is
    the 0-based resubmission ordinal stamped by the supervisor; it
    only feeds the fault plan's decision hash, so a retried spec
    re-rolls its faults instead of deterministically dying forever.
    """
    from repro.chaos import maybe_fail_point

    maybe_fail_point(spec, attempt)
    if carrier is not None:
        return _compute_traced(spec, carrier)
    return _compute_captured(spec)


def _compute_traced(spec, carrier):
    """Worker entry when the submitting side is tracing.

    Runs the normal captured computation under the parent's adopted
    trace context (so the point's spans stitch into the sweep's
    tree), then returns ``(point, spans)`` — the worker process's
    span buffer dies with the process, so the spans ride home on the
    result.  Kept separate from :func:`_compute_captured` because
    that 1-arg signature is a monkeypatch seam for the whole test
    suite; going through the module attribute here means a patched
    compute function is honoured under tracing too.
    """
    from repro.obs import trace

    trace.enable_tracing()
    with trace.adopt(carrier):
        point = _compute_captured(spec)
    return point, trace.drain_spans()


def run_sweep(specs=None, workers=1, cache=None, progress=None,
              mp_context=None, point_timeout=None):
    """Run a batch (default: the full paper sweep) into a SweepResult.

    The result's points are ordered like ``specs``; a spec given
    twice is computed once and its point fanned out to both
    positions.  ``cache`` is a
    :class:`~repro.runtime.cache.ResultCache` or None (disabled).
    ``progress`` is called with a
    :class:`~repro.runtime.stream.StreamUpdate` as each unique point
    lands, so long batches can report incrementally.
    ``mp_context`` and ``point_timeout`` (the per-point wall-clock
    deadline in seconds; None: ``$REPRO_POINT_TIMEOUT``, else
    unlimited) go to :func:`~repro.runtime.stream.stream_specs`.
    """
    from repro.runtime.stream import stream_specs

    if specs is None:
        specs = sweep_specs()
    specs = [spec.resolve() for spec in specs]
    started = time.perf_counter()
    landed = {}
    cache_hits = 0

    def observe(update):
        nonlocal cache_hits
        if update.from_cache:
            cache_hits += 1
        if progress is not None:
            progress(update)

    for spec, point in stream_specs(specs, workers=workers, cache=cache,
                                    progress=observe,
                                    mp_context=mp_context,
                                    point_timeout=point_timeout):
        landed[spec] = point
    return SweepResult(specs=specs,
                       points=[landed[spec] for spec in specs],
                       cache_hits=cache_hits,
                       computed=len(landed) - cache_hits,
                       elapsed_seconds=time.perf_counter() - started)
