"""Streaming result collection: points as they finish, not at the end.

:func:`stream_specs` is the incremental counterpart of
:func:`repro.runtime.pool.run_sweep`: it yields ``(spec, point)``
pairs *as workers finish them*, so a consumer — a progress bar, an
incrementally rendered figure, a shard writer — can act on each
result while the slowest point is still mapping.  The batch API is a
thin wrapper over this generator, which is what makes
streaming-vs-batch equivalence hold by construction rather than by
luck.

Ordering contract:

- one pair is yielded per *unique resolved* spec (duplicates in the
  input are computed once, exactly like the batch path; callers that
  need per-position fan-out keep their own ``spec -> indices`` map);
- cache hits are yielded first, in input order — they are available
  immediately and a consumer should not wait behind a cold point for
  them;
- computed points follow in completion order, which is
  non-deterministic under ``workers > 1``.  Consumers that need spec
  order collect into a dict and re-walk the input (see
  ``pool.run_sweep``).

Every yielded result is also reported to the optional ``progress``
callback as a :class:`StreamUpdate` carrying running counts, so
callers that only want a heartbeat never have to do bookkeeping.

Self-healing contract (the parallel path):

- a dead worker (segfault, OOM kill, ``os._exit``) breaks the
  process pool; the supervisor restarts it and resubmits every
  undelivered in-flight spec, charging each one crash strike — the
  killer cannot be identified, so every suspect pays one;
- a spec that keeps killing its pool is quarantined after
  ``max_point_attempts`` submissions as a ``worker-crash:`` error
  point instead of sinking the sweep;
- with a point deadline armed (``point_timeout`` /
  ``$REPRO_POINT_TIMEOUT``), a watchdog reaps the pool when a point
  overruns ``deadline + grace``, retries the overdue spec and, once
  its budget is spent, yields it as a ``timeout:`` error point;
  innocent co-flying specs are resubmitted without charge;
- if the pool itself cannot be rebuilt, the remaining specs land as
  ``pool-broken:`` error points.

None of the synthesized error classes (``worker-crash:``,
``timeout:``, ``pool-broken:``, ``worker failure:``) is ever
persisted to the cache — only :data:`DETERMINISTIC_ERRORS` are.
"""

from __future__ import annotations

import collections
import dataclasses
import os
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)

from repro.errors import ReproError
from repro.obs import metrics, trace
from repro.runtime.sweep import DETERMINISTIC_ERRORS, ExperimentPoint

ENV_POINT_TIMEOUT = "REPRO_POINT_TIMEOUT"
ENV_POINT_ATTEMPTS = "REPRO_POINT_ATTEMPTS"

#: Submissions a spec gets before the supervisor gives up on it —
#: the first attempt plus two retries.
DEFAULT_MAX_POINT_ATTEMPTS = 3

#: Slack added to every point deadline: a freshly (re)started pool
#: spawns its workers lazily, so submit-to-start latency must not be
#: billed to the point itself.
TIMEOUT_GRACE_SECONDS = 5.0

#: How long the supervisor waits for a broken pool's remaining
#: futures to settle before cancelling and recharging them anyway.
_SETTLE_SECONDS = 5.0


def point_status(point):
    """One-phrase outcome of a landed point.

    The single definition of the ``N cycles, X uJ`` / first-error-
    line rendering, shared by local progress (:class:`StreamUpdate`)
    and the serve client's remote narration — the two can not drift.
    """
    if point.mapped:
        status = f"{point.cycles} cycles"
        if point.energy_uj is not None:
            status += f", {point.energy_uj:.4f} uJ"
        return status
    return (point.error or "error").splitlines()[0]


@dataclasses.dataclass(frozen=True)
class StreamUpdate:
    """One progress tick: the point that just landed plus counters."""

    spec: object
    point: object
    done: int
    total: int
    from_cache: bool
    elapsed_seconds: float

    def describe(self):
        """``[done/total] kernel@config/variant status`` one-liner."""
        source = "cache" if self.from_cache else "computed"
        return (f"[{self.done}/{self.total}] {self.spec.describe()}: "
                f"{point_status(self.point)} "
                f"({source}, {self.elapsed_seconds:.1f}s)")


def resolve_point_timeout(value=None):
    """The effective per-point deadline in seconds, or None.

    Explicit ``value`` wins; otherwise ``$REPRO_POINT_TIMEOUT`` is
    consulted so deadlines can be armed fleet-wide without touching
    every call site.  Zero or negative disables.
    """
    if value is None:
        raw = os.environ.get(ENV_POINT_TIMEOUT)
        if not raw:
            return None
        try:
            value = float(raw)
        except ValueError:
            raise ReproError(
                f"bad {ENV_POINT_TIMEOUT}={raw!r}: expected seconds "
                f"as a number") from None
    return value if value > 0 else None


def resolve_point_attempts(value=None):
    """The per-spec submission budget (``$REPRO_POINT_ATTEMPTS``)."""
    if value is None:
        raw = os.environ.get(ENV_POINT_ATTEMPTS)
        if not raw:
            return DEFAULT_MAX_POINT_ATTEMPTS
        try:
            value = int(raw)
        except ValueError:
            raise ReproError(
                f"bad {ENV_POINT_ATTEMPTS}={raw!r}: expected an "
                f"integer") from None
    return max(1, value)


def _synthetic(spec, error):
    return ExperimentPoint(
        spec.kernel_name, spec.config_name, spec.variant, error=error)


class _PoolSupervisor:
    """Owns the executor; contains crashes; enforces deadlines.

    Keeps at most ``workers`` specs in flight — a deliberate window:
    every submitted task is (about to be) running on a real worker,
    so a wall-clock deadline measured from submission is honest, and
    a pool death implicates a small, known set of suspects.

    :meth:`drain` yields ``(spec, outcome)`` events where outcome is
    ``("ok", worker_payload)`` for a result that must still be
    unwrapped by the caller, or ``("synthetic", point)`` for a point
    the supervisor manufactured (quarantine, timeout, pool-broken,
    captured worker failure).
    """

    def __init__(self, workers, mp_context=None, carrier=None,
                 point_timeout=None, max_attempts=None):
        self.workers = max(1, workers)
        self.mp_context = mp_context
        self.carrier = carrier
        self.point_timeout = point_timeout
        self.max_attempts = (max_attempts if max_attempts is not None
                             else DEFAULT_MAX_POINT_ATTEMPTS)
        self.queue = collections.deque()
        self.inflight = {}  # future -> (spec, deadline or None)
        self.attempts = {}  # spec -> submissions so far
        self.executor = None
        self.restarts = 0
        self.broken_reason = None

    # -- submission ----------------------------------------------------
    def offer(self, spec):
        """Enqueue a cold spec; starts computing as soon as possible."""
        self.queue.append(spec)
        self._fill()

    def _fill(self):
        while self.queue and len(self.inflight) < self.workers \
                and self.broken_reason is None:
            if self.executor is None:
                try:
                    self.executor = ProcessPoolExecutor(
                        max_workers=self.workers,
                        mp_context=self.mp_context)
                except Exception as error:  # noqa: BLE001 — terminal
                    self.broken_reason = (f"{type(error).__name__}: "
                                          f"{error}")
                    return
            spec = self.queue.popleft()
            attempt = self.attempts.get(spec, 0)
            self.attempts[spec] = attempt + 1
            from repro.runtime import pool
            try:
                future = self.executor.submit(
                    pool._compute_job, spec, self.carrier, attempt)
            except (BrokenExecutor, RuntimeError):
                # The pool died between the last drain and now; put
                # the spec back (uncharged — submission never
                # happened) and let drain's recovery sort it out.
                self.attempts[spec] = attempt
                self.queue.appendleft(spec)
                return
            deadline = None
            if self.point_timeout is not None:
                deadline = (time.monotonic() + self.point_timeout
                            + TIMEOUT_GRACE_SECONDS)
            self.inflight[future] = (spec, deadline)

    # -- the event loop ------------------------------------------------
    def drain(self):
        while self.queue or self.inflight:
            if self.broken_reason is not None:
                yield from self._fail_remaining()
                return
            self._fill()
            if not self.inflight:
                if self.queue:
                    # _fill could not submit: the executor broke on
                    # submit. Recover (restart) and try again.
                    yield from self._recover("crash", charged=set())
                    continue
                return
            done, _ = wait(set(self.inflight),
                           timeout=self._wait_timeout(),
                           return_when=FIRST_COMPLETED)
            suspects = set()
            for future in done:
                spec, _deadline = self.inflight.pop(future)
                if future.cancelled():
                    self.queue.append(spec)
                    continue
                error = future.exception()
                if error is None:
                    yield spec, ("ok", future.result())
                elif isinstance(error, BrokenExecutor):
                    suspects.add(spec)
                else:
                    # The task itself failed to round-trip (e.g. an
                    # unpicklable result) — a per-point defect, not a
                    # pool death: no retry, keep the classic stamp.
                    yield spec, ("synthetic", _synthetic(
                        spec, f"worker failure: "
                              f"{type(error).__name__}: {error}"))
            if suspects:
                yield from self._recover("crash", charged=suspects)
            elif self.point_timeout is not None:
                overdue = self._overdue()
                if overdue:
                    self._kill_workers()
                    yield from self._recover("timeout", charged=overdue)

    def _wait_timeout(self):
        deadlines = [deadline for _, deadline in self.inflight.values()
                     if deadline is not None]
        if not deadlines:
            return None
        return max(0.05, min(deadlines) - time.monotonic())

    def _overdue(self):
        now = time.monotonic()
        return {spec for spec, deadline in self.inflight.values()
                if deadline is not None and now >= deadline}

    # -- recovery ------------------------------------------------------
    def _kill_workers(self):
        """Reap every worker process of the current executor.

        ``ProcessPoolExecutor`` cannot cancel a *running* task, so a
        wedged point is unstuck the only way it can be: by killing
        the worker under it.  The pool is about to be restarted
        anyway; co-running points are resubmitted free of charge.
        (``_processes`` is private but load-bearing across CPython
        versions; guarded so its absence degrades to a slow
        shutdown, not a crash.)
        """
        processes = getattr(self.executor, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except Exception:  # noqa: BLE001 — already-dead races
                pass

    def _recover(self, cause, charged):
        """Restart the pool; charge ``charged``, requeue the rest.

        Yields synthesized quarantine points for specs whose
        submission budget is exhausted.  Completed-but-undelivered
        futures are salvaged and yielded as normal results — work a
        healthy worker finished before a sibling died is not redone.
        """
        remaining = dict(self.inflight)
        self.inflight.clear()
        if remaining:
            wait(set(remaining), timeout=_SETTLE_SECONDS)
        charged = set(charged)
        for future, (spec, _deadline) in remaining.items():
            settled = future.done() and not future.cancelled()
            if settled and future.exception() is None:
                yield spec, ("ok", future.result())
                continue
            future.cancel()
            if spec in charged:
                continue
            if cause == "crash" and settled \
                    and isinstance(future.exception(), BrokenExecutor):
                charged.add(spec)
            else:
                # Collateral: reaped alongside the guilty party (or
                # never started). Requeued without touching its
                # budget — but the resubmission itself is counted.
                self.attempts[spec] = max(
                    0, self.attempts.get(spec, 1) - 1)
                self.queue.append(spec)
                metrics.POINT_RETRIES.inc(reason="collateral")
        for spec in charged:
            attempts = self.attempts.get(spec, 1)
            if attempts >= self.max_attempts:
                metrics.POINT_QUARANTINES.inc(reason=cause)
                yield spec, ("synthetic", _synthetic(
                    spec, self._quarantine_error(cause, attempts)))
            else:
                metrics.POINT_RETRIES.inc(reason=cause)
                self.queue.append(spec)
        self._stop_executor()
        self.restarts += 1
        metrics.POOL_RESTARTS.inc(cause=cause)

    def _quarantine_error(self, cause, attempts):
        if cause == "timeout":
            return (f"timeout: point exceeded the "
                    f"{self.point_timeout:g}s deadline on "
                    f"{attempts} attempt(s)")
        return (f"worker-crash: worker process died computing this "
                f"point on {attempts} attempt(s); quarantined")

    def _fail_remaining(self):
        """Terminal: the pool cannot be rebuilt — stamp what's left."""
        error = (f"pool-broken: worker pool could not be restarted "
                 f"({self.broken_reason})")
        leftovers = [spec for spec, _ in self.inflight.values()]
        self.inflight.clear()
        leftovers.extend(self.queue)
        self.queue.clear()
        for spec in leftovers:
            metrics.POINT_QUARANTINES.inc(reason="pool-broken")
            yield spec, ("synthetic", _synthetic(spec, error))

    def _stop_executor(self):
        if self.executor is None:
            return
        executor, self.executor = self.executor, None
        try:
            executor.shutdown(wait=True, cancel_futures=True)
        except Exception:  # noqa: BLE001 — a broken pool may throw
            pass

    # -- teardown ------------------------------------------------------
    def close(self):
        """Cancel what hasn't started; salvage what finished.

        Returns ``(spec, payload)`` pairs for in-flight work that
        completed but was never delivered (the consumer closed the
        generator early) so the caller can persist it.
        """
        for future in self.inflight:
            future.cancel()
        if self.executor is not None:
            try:
                self.executor.shutdown(wait=True)
            except Exception:  # noqa: BLE001
                pass
            self.executor = None
        salvaged = []
        for future, (spec, _deadline) in self.inflight.items():
            if not future.done() or future.cancelled():
                continue
            try:
                if future.exception() is None:
                    salvaged.append((spec, future.result()))
            except Exception:  # noqa: BLE001 — broken futures
                continue
        self.inflight.clear()
        return salvaged


def stream_specs(specs, workers=1, cache=None, progress=None,
                 mp_context=None, point_timeout=None,
                 max_point_attempts=None):
    """Yield ``(spec, point)`` per unique resolved spec as results land.

    ``cache`` is a :class:`~repro.runtime.cache.ResultCache` or None;
    hits stream out first and deterministic outcomes are persisted as
    they complete.  ``progress`` is called with a
    :class:`StreamUpdate` just before each pair is yielded.
    ``workers=1`` computes inline (no executor, no pickling) —
    identical results, serial completion order.  ``mp_context`` is
    an optional :mod:`multiprocessing` context for the executor:
    multithreaded callers (the HTTP service) must pass a non-fork
    context, because forking a process with live threads can leave a
    worker child holding an inherited lock forever.

    ``point_timeout`` (None: ``$REPRO_POINT_TIMEOUT``) arms a
    per-point wall-clock deadline; an overrunning point's worker is
    reaped and the point retried, then yielded as a ``timeout:``
    error point once ``max_point_attempts`` (None:
    ``$REPRO_POINT_ATTEMPTS``, default 3) submissions are spent.
    A deadline needs a reappable worker, so it forces the executor
    path even at ``workers=1``.
    """
    from repro.runtime import pool

    point_timeout = resolve_point_timeout(point_timeout)
    max_point_attempts = resolve_point_attempts(max_point_attempts)

    started = time.perf_counter()
    unique = []
    seen = set()
    for spec in specs:
        spec = spec.resolve()
        if spec not in seen:
            seen.add(spec)
            unique.append(spec)

    total = len(unique)
    done = 0

    def ticked(spec, point, from_cache):
        nonlocal done
        done += 1
        metrics.POINTS.inc(
            source="cache" if from_cache else "computed")
        if progress is not None:
            progress(StreamUpdate(
                spec=spec, point=point, done=done, total=total,
                from_cache=from_cache,
                elapsed_seconds=time.perf_counter() - started))
        return spec, point

    def finished(spec, point):
        if cache is not None and point.error in DETERMINISTIC_ERRORS:
            cache.store_point(spec, point)
        return ticked(spec, point, False)

    # When a trace is active (locally enabled, or adopted from a
    # remote submitter), the whole generator runs inside one "sweep"
    # span: inline computes parent to it through the context
    # variable, and worker submissions carry its context explicitly —
    # worker processes start with fresh contexts, so nothing
    # propagates by accident.
    traced = trace.tracing_active()
    sweep_span = trace.span("sweep", points=total) if traced else None
    carrier = None

    def worker_point(payload):
        """Unwrap a worker result, folding returned spans in.

        Traced submissions return ``(point, spans)`` — the spans are
        ingested here (stitching the tree) and their stage timings
        fed to the local histograms, which the worker's own
        (about-to-die) registry never could.
        """
        if not traced:
            return payload
        point, spans = payload
        trace.ingest(spans, observe_stages=True)
        return point

    pooled = workers > 1 or point_timeout is not None
    pending = []
    supervisor = None
    try:
        if sweep_span is not None:
            sweep_span.__enter__()
            carrier = trace.current_carrier()
        # One pass over the specs: hits are yielded as they are read,
        # misses start computing immediately (the supervisor and its
        # executor are created lazily at the first miss), so on a
        # mixed warm/cold sweep the workers churn through cold points
        # while the remaining warm entries are still being read.
        for spec in unique:
            cached = (cache.get_point(spec) if cache is not None
                      else None)
            if cached is not None:
                if traced:
                    with trace.span("cache_hit",
                                    spec=spec.describe()):
                        pass
                yield ticked(spec, cached, True)
            elif pooled:
                if supervisor is None:
                    supervisor = _PoolSupervisor(
                        workers=workers, mp_context=mp_context,
                        carrier=carrier,
                        point_timeout=point_timeout,
                        max_attempts=max_point_attempts)
                supervisor.offer(spec)
            else:
                pending.append(spec)

        if not pooled:
            # Attribute lookup on the module keeps the serial path
            # monkeypatchable, exactly like the old batch engine.
            for spec in pending:
                yield finished(spec, pool._compute_captured(spec))
            return

        if supervisor is not None:
            for spec, (kind, value) in supervisor.drain():
                point = (worker_point(value) if kind == "ok"
                         else value)
                yield finished(spec, point)
    finally:
        if supervisor is not None:
            # A consumer that stops iterating early (closes the
            # generator) must not block behind every queued point:
            # cancel what hasn't started, wait only for in-flight
            # work — and persist what those in-flight workers
            # finished, so the minutes already paid for are not
            # thrown away.
            salvaged = supervisor.close()
            if cache is not None:
                for spec, payload in salvaged:
                    try:
                        point = worker_point(payload)
                    except Exception:  # noqa: BLE001
                        continue
                    if point.error in DETERMINISTIC_ERRORS:
                        cache.store_point(spec, point)
        if sweep_span is not None:
            sweep_span.__exit__(None, None, None)
