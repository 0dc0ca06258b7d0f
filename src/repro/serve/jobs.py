"""Sweep jobs: the unit of work behind the HTTP service.

A :class:`SweepJob` is one submitted sweep (whole, one shard of a
larger sweep, or a figure's prewarm set) moving through
``queued -> running -> done/failed``.  While it runs, every landed
point is appended to an in-order record log — the same
``{"pos", "spec", "point"}`` record the shard JSON payload of
:mod:`repro.runtime.shard` carries, plus ``from_cache`` — which is
what the ``/stream`` endpoint replays line by line: a reader attached
at any moment first drains everything already landed, then blocks on
a condition variable until the next point (or the end of the job).

The :class:`JobManager` schedules jobs *concurrently*: up to
:data:`MAX_CONCURRENT_JOBS` runner threads pull from one priority queue
(higher ``priority`` first, FIFO within a priority), and each job
draws a worker-process budget from one shared :class:`WorkerPool` —
so a giant exploration can saturate the pool while a one-point probe
submitted after it still starts immediately (with an inline budget)
instead of starving behind it.  Every job executes through
:func:`repro.runtime.stream.stream_specs`, so the service inherits
the runtime's whole contract for free: cache hits stream out first,
crashes are captured per point, deterministic outcomes persist to
the shared :class:`ResultCache`.  A finished job's ``payload`` is
exactly a ``sweep/figure --json`` payload, so anything the service
computes can be merged offline with ``repro merge`` — the service is
a transport, not a new format.

Admission is bounded: when :data:`MAX_QUEUED_JOBS` jobs are already
waiting, :meth:`JobManager.submit` raises :class:`BusyError` — the
HTTP layer answers ``429`` with a ``Retry-After`` hint — instead of
queueing unboundedly, and :data:`MAX_SPECS_PER_JOB` caps how much
work a single request may claim.  Backpressure over buffering: a client
told "busy" can retry a survivor; a request buried in an unbounded
queue just times out minutes later with no information.

Two kinds of job share that machinery.  A *sweep* job
(:class:`~repro.runtime.shard.SweepRequest`, the type CLI shard runs
carve with too) is a fixed spec list; an *exploration* job
(:class:`ExplorationRequest`, ``POST /v1/explorations``) runs a
:mod:`repro.dse` search whose strategy decides point by point what to
evaluate — its record stream carries the points in evaluation order,
and its final payload is the exploration document
(:meth:`~repro.dse.runner.ExplorationResult.payload`) instead of a
mergeable sweep payload.

The manager is bounded for long-lived servers: finished jobs beyond
:data:`MAX_FINISHED_JOBS`, or older than :data:`FINISHED_TTL_SECONDS`,
are evicted (oldest-finished first) on every submission and listing;
the listing endpoints report how many were dropped.  Eviction is
restricted to *terminal* jobs — a queued or running job is never
dropped, however hard the retention pressure, because evicting it
would orphan a job the scheduler still intends to run.

These bounds are module constants, not settings: no deployment has
needed other values, and a test that does patches the constant.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
import uuid

from repro.errors import ReproError
from repro.obs import get_logger, metrics, trace
from repro.serve.journal import TERMINAL_EVENTS
from repro.runtime.shard import (
    SweepRequest,
    parse_shard,
    spec_from_json,
    spec_to_json,
    sweep_json_payload,
)
from repro.runtime.sweep import (
    SweepResult,
    point_to_json,
    validated_sweep_specs,
)

_log = get_logger("repro.serve.jobs")

#: Job lifecycle states.
QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"

#: States a job can never leave.
TERMINAL = (DONE, FAILED)

#: Retention of finished jobs (count and age): an unbounded job table
#: on a long-lived server is a slow memory leak, one payload per sweep
#: ever submitted.  Read at each eviction scan.
MAX_FINISHED_JOBS = 64
FINISHED_TTL_SECONDS = 6 * 3600.0

#: Scheduler shape: how many jobs run at once (runner threads, read
#: when a manager starts), and how many may wait before submissions
#: bounce with ``429`` (read at each submission).
MAX_CONCURRENT_JOBS = 4
MAX_QUEUED_JOBS = 128

#: Largest spec list one job may claim (the full paper sweep is 140
#: points; the biggest exploration grids are a few thousand).  A
#: request beyond this is a mistake or abuse, not a sweep.
MAX_SPECS_PER_JOB = 50_000

#: ``Retry-After`` hint handed to clients bounced by backpressure.
DEFAULT_RETRY_AFTER_SECONDS = 5

#: Accepted ``priority`` range (higher runs first; default 0).
PRIORITY_MIN, PRIORITY_MAX = -100, 100


class RequestError(ReproError):
    """A malformed or invalid sweep submission (HTTP 400)."""


class BusyError(ReproError):
    """The job queue is at capacity (HTTP 429 + ``Retry-After``)."""

    def __init__(self, message, retry_after=DEFAULT_RETRY_AFTER_SECONDS):
        super().__init__(message)
        self.retry_after = retry_after


class UnknownJobError(ReproError):
    """A job id the manager has never issued (HTTP 404)."""


def validated_priority(value):
    """Check one request's ``priority`` field (default 0)."""
    if value is None:
        return 0
    if not isinstance(value, int) or isinstance(value, bool):
        raise RequestError(
            f"'priority' must be an integer, got {value!r}")
    if not PRIORITY_MIN <= value <= PRIORITY_MAX:
        raise RequestError(
            f"'priority' must be between {PRIORITY_MIN} and "
            f"{PRIORITY_MAX}, got {value}")
    return value


class ExplorationRequest(SweepRequest):
    """A validated ``POST /v1/explorations`` submission.

    Wraps one :class:`~repro.dse.runner.ExplorationConfig`.  The
    ``specs`` it advertises are the exhaustive design x kernel grid —
    an *upper bound* on what the strategy will actually evaluate, so
    status snapshots and stream consumers know the most points they
    could see; streams simply end earlier when the strategy prunes
    (completion is "the stream closed", exactly as for sweeps).
    """

    kind = "exploration"

    def __init__(self, config, priority=0):
        from repro.dse.runner import exploration_grid_specs

        specs = exploration_grid_specs(config)
        if not specs:
            raise RequestError("exploration resolves to zero points")
        super().__init__(specs, label=f"explore:{config.strategy}",
                         priority=priority)
        self.config = config


#: ``POST /v1/explorations`` body keys (all optional).
EXPLORATION_KEYS = ("space", "depths", "samples", "kernels", "variant",
                    "strategy", "budget", "seed", "objectives", "rows",
                    "cols", "backend", "priority")


def resolve_exploration_request(body):
    """Parse one ``POST /v1/explorations`` JSON body.

    Every field is optional — ``{}`` explicitly requests the default
    exploration (ladder + Table I space, all kernels, exhaustive) —
    and every axis is validated by the same
    :func:`~repro.dse.runner.validated_exploration_config` the CLI
    uses, so a typo fails identically through either door.
    """
    if not isinstance(body, dict):
        raise RequestError("request body must be a JSON object")
    unknown = set(body) - set(EXPLORATION_KEYS)
    if unknown:
        raise RequestError(
            f"unknown request keys {sorted(unknown)}; expected "
            f"{', '.join(EXPLORATION_KEYS)}")
    for key in ("space", "depths", "kernels", "objectives"):
        value = body.get(key)
        if value is not None and not isinstance(value, (list, tuple)):
            raise RequestError(
                f"{key!r} must be a list, got {value!r}")
    for key in ("samples", "budget", "seed", "rows", "cols"):
        value = body.get(key)
        if value is not None and (not isinstance(value, int)
                                  or isinstance(value, bool)):
            raise RequestError(
                f"{key!r} must be an integer, got {value!r}")
    backend = body.get("backend")
    if backend is not None and not isinstance(backend, str):
        raise RequestError(f"'backend' must be a string, "
                           f"got {backend!r}")
    priority = validated_priority(body.get("priority"))
    from repro.dse.runner import validated_exploration_config

    try:
        config = validated_exploration_config(
            space=body.get("space"), depths=body.get("depths"),
            samples=body.get("samples"), kernels=body.get("kernels"),
            variant=body.get("variant"), strategy=body.get("strategy"),
            budget=body.get("budget"), seed=body.get("seed"),
            objectives=body.get("objectives"), rows=body.get("rows"),
            cols=body.get("cols"), backend=body.get("backend"))
    except RequestError:
        raise
    except (ReproError, TypeError, ValueError) as error:
        # Axis typos and malformed values are user input, hence 400.
        raise RequestError(str(error)) from None
    return ExplorationRequest(config, priority=priority)


def _string_list(body, key):
    """An optional list-of-strings field, strictly typed."""
    value = body.get(key)
    if value is None:
        return None
    if not isinstance(value, (list, tuple)) \
            or not all(isinstance(item, str) for item in value):
        raise RequestError(
            f"{key!r} must be a list of strings, got {value!r}")
    return tuple(value)


def resolve_request(body):
    """Parse one ``POST /v1/sweeps`` JSON body into a request.

    Three submission shapes, mutually exclusive:

    - ``{"figure": "fig6"}`` — the named figure's prewarm specs;
    - ``{"specs": [{...}, ...]}`` — explicit spec dicts in the shard
      JSON encoding (what ``spec_to_json`` emits);
    - axes — ``kernels``/``configs``/``variants``/``seed``/
      ``backend``, each optional, exactly like ``repro sweep``.

    ``"shard": [i, N]`` (or ``"i/N"``) restricts the job to one
    deterministic slice of the resolved sweep; ``"priority"`` (an
    integer, higher first) orders it against other queued jobs.
    """
    if not isinstance(body, dict):
        raise RequestError("request body must be a JSON object")
    unknown = set(body) - {"figure", "specs", "kernels", "configs",
                           "variants", "seed", "backend", "shard",
                           "priority"}
    if unknown:
        # A typo'd key ({"kernals": ...}) must 400, not silently
        # widen to the full default sweep.
        raise RequestError(
            f"unknown request keys {sorted(unknown)}; expected "
            f"figure, specs, kernels, configs, variants, seed, "
            f"backend, shard, priority")
    # Presence, not truthiness: {"specs": []} must mean "zero specs"
    # (a hard error) — never silently fall through to the full
    # default sweep and burn hours of unrequested mapping.
    modes = [key for key in ("figure", "specs")
             if body.get(key) is not None]
    axes = [key for key in ("kernels", "configs", "variants")
            if body.get(key) is not None]
    if len(modes) > 1 or (modes and axes):
        raise RequestError(
            "pick one of 'figure', 'specs' or the "
            "kernels/configs/variants axes — they are exclusive")
    for pinned in ("seed", "backend"):
        if modes and body.get(pinned) is not None:
            raise RequestError(
                f"{pinned!r} only applies to axes sweeps; "
                f"{modes[0]!r} submissions pin their own specs")
    priority = validated_priority(body.get("priority"))
    shard = body.get("shard")
    if shard is not None:
        try:
            if isinstance(shard, str):
                shard = parse_shard(shard)
            elif (isinstance(shard, (list, tuple)) and len(shard) == 2
                    and all(isinstance(v, int)
                            and not isinstance(v, bool)
                            for v in shard)):
                shard = parse_shard(f"{shard[0]}/{shard[1]}")
            else:
                raise RequestError(
                    f"'shard' must be [index, total] or \"i/N\", "
                    f"got {shard!r}")
        except RequestError:
            raise
        except ReproError as error:
            raise RequestError(str(error)) from None
    try:
        if "figure" in modes:
            name = body["figure"]
            from repro.eval.experiments import (
                FIGURE_NAMES, figure_point_specs)
            if not isinstance(name, str):
                raise RequestError(f"'figure' must be a string, "
                                   f"got {name!r}")
            if name not in FIGURE_NAMES:
                # Distinct from the render-only case below: a typo
                # for a servable figure deserves "unknown", not "has
                # no prewarmable points".
                raise RequestError(
                    f"unknown figure {name!r}; choose from "
                    f"{', '.join(FIGURE_NAMES)}")
            specs = figure_point_specs(name)
            if not specs:
                raise RequestError(
                    f"figure {name!r} has no prewarmable experiment "
                    f"points; see GET /v1/figures for the servable "
                    f"set")
            return SweepRequest(specs, shard=shard, label=name,
                                priority=priority)
        if "specs" in modes:
            raw = body["specs"]
            if not isinstance(raw, list):
                raise RequestError("'specs' must be a list of spec "
                                   "objects")
            try:
                specs = [spec_from_json(item) for item in raw]
            except (AttributeError, KeyError, TypeError,
                    ValueError) as error:
                raise RequestError(
                    f"malformed spec in 'specs': {error}") from None
            return SweepRequest(specs, shard=shard, label="specs",
                                priority=priority)
        seed = body.get("seed")
        if seed is not None and (not isinstance(seed, int)
                                 or isinstance(seed, bool)):
            raise RequestError(f"'seed' must be an integer, "
                               f"got {seed!r}")
        backend = body.get("backend")
        if backend is not None and not isinstance(backend, str):
            raise RequestError(f"'backend' must be a string, "
                               f"got {backend!r}")
        specs = validated_sweep_specs(
            kernels=_string_list(body, "kernels"),
            configs=_string_list(body, "configs"),
            variants=_string_list(body, "variants"),
            seed=seed, backend=backend)
        return SweepRequest(specs, shard=shard, label="sweep",
                            priority=priority)
    except RequestError:
        raise
    except ReproError as error:
        # Axis typos, bad shard maths: user input, hence 400.
        raise RequestError(str(error)) from None


class SweepJob:
    """One submitted sweep and its incrementally landing results."""

    def __init__(self, job_id, request, trace_carrier=None):
        self.id = job_id
        self.request = request
        # The submitting request's trace context, if it carried one:
        # the runner adopts it so the job's spans stitch under the
        # remote caller's trace (and ship home in the payload).
        self.trace_carrier = trace_carrier
        self.status = QUEUED
        self.error = None
        self.created = time.time()
        self.started = None
        self.finished = None
        self.cache_hits = 0
        self.computed = 0
        self.workers_granted = None
        #: Whether the submission was journaled (a recorded body
        #: exists to replay from); lifecycle events follow suit.
        self.journaled = False
        self.records = []
        # Only the JSON payload is retained after completion: the
        # SweepResult's points carry heavy mapping/activity graphs
        # that no endpoint serves, and jobs live for the server's
        # lifetime — keeping them would leak memory per sweep.
        self.payload = None
        self._cond = threading.Condition()

    # ------------------------------------------------------------------
    # Lifecycle (called by the manager's runner threads)
    # ------------------------------------------------------------------
    def mark_running(self, workers_granted=None):
        with self._cond:
            self.status = RUNNING
            self.started = time.time()
            self.workers_granted = workers_granted
            self._cond.notify_all()

    def add_update(self, update, positions):
        """Record one landed point at each of its full-sweep positions."""
        spec_json = spec_to_json(update.spec)
        point_json = point_to_json(update.point)
        with self._cond:
            if update.from_cache:
                self.cache_hits += 1
            else:
                self.computed += 1
            for pos in positions:
                self.records.append({
                    "pos": pos,
                    "spec": spec_json,
                    "point": point_json,
                    "from_cache": update.from_cache,
                })
            self._cond.notify_all()

    def finish(self, payload):
        with self._cond:
            self.payload = payload
            self.status = DONE
            self.finished = time.time()
            self._cond.notify_all()

    def fail(self, message):
        with self._cond:
            self.error = message
            self.status = FAILED
            self.finished = time.time()
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    @property
    def is_terminal(self):
        return self.status in TERMINAL

    def snapshot(self):
        """Status dict for ``GET /v1/sweeps/{id}`` (payload excluded)."""
        with self._cond:
            elapsed = None
            if self.started is not None:
                end = self.finished if self.finished is not None \
                    else time.time()
                elapsed = end - self.started
            return {
                "id": self.id,
                "status": self.status,
                "kind": self.request.kind,
                "label": self.request.label,
                "priority": self.request.priority,
                "shard": ({"index": self.request.shard[0],
                           "total": self.request.shard[1]}
                          if self.request.shard is not None else None),
                "points": len(self.request.specs),
                "spec_total": self.request.spec_total,
                "landed": len(self.records),
                "cache_hits": self.cache_hits,
                "computed": self.computed,
                "workers": self.workers_granted,
                "elapsed_seconds": elapsed,
                "error": self.error,
            }

    def iter_records(self, heartbeat=None):
        """Yield records in landing order; block until the job ends.

        Records already landed replay immediately, then the iterator
        waits on the job's condition for each new point.  Because
        records are only appended before the job turns terminal, an
        empty remainder after a terminal snapshot means the stream is
        complete.

        ``heartbeat`` (seconds) makes the iterator yield ``None``
        whenever that long passes with nothing landing — a queued job
        behind a long sweep, or one very slow point, would otherwise
        leave a network reader staring at a silent socket until its
        read timeout kills a perfectly healthy dispatch.  The
        ``/stream`` endpoint turns each ``None`` into a blank
        keepalive line.
        """
        index = 0
        last_yield = time.monotonic()
        while True:
            idle = False
            with self._cond:
                while index >= len(self.records) \
                        and not self.is_terminal:
                    if heartbeat is None:
                        self._cond.wait(timeout=0.5)
                        continue
                    # Wake in time for the heartbeat deadline, not a
                    # fixed 0.5s later — a reader whose idle timeout
                    # is shorter than 0.5s would otherwise die
                    # waiting for a keepalive we promised sooner.
                    remaining = heartbeat \
                        - (time.monotonic() - last_yield)
                    if remaining <= 0:
                        idle = True
                        break
                    self._cond.wait(timeout=min(0.5, remaining))
                batch = self.records[index:]
                terminal = self.is_terminal
            if idle and not batch and not terminal:
                last_yield = time.monotonic()
                yield None
                continue
            yield from batch
            index += len(batch)
            last_yield = time.monotonic()
            if terminal and not batch:
                return


class WorkerPool:
    """Allocator for the shared worker-process budget.

    A runner taking a job asks for as many workers as the job has
    unique specs; the pool grants a slice of what is free, capped at
    an even share of the total across the runners currently holding
    budget.  ``take`` never blocks: a grant of zero means "compute
    inline in the runner thread" (``workers=1``, no processes), so a
    one-point probe still starts immediately while a giant
    exploration holds the whole pool — latency over parallelism for
    the small job, the reverse for the big one.
    """

    def __init__(self, total):
        self.total = max(1, int(total))
        self._free = self.total
        self._holders = 0
        self._lock = threading.Lock()
        metrics.WORKERS_TOTAL.set(self.total)
        metrics.WORKERS_FREE.set(self._free)

    def take(self, want):
        """Grant between 0 and ``want`` workers; pair with give_back."""
        with self._lock:
            self._holders += 1
            share = max(1, self.total // self._holders)
            grant = max(0, min(int(want), self._free, share))
            self._free -= grant
            metrics.WORKERS_FREE.set(self._free)
            return grant

    def give_back(self, grant):
        with self._lock:
            self._free += grant
            self._holders -= 1
            metrics.WORKERS_FREE.set(self._free)

    @property
    def free(self):
        with self._lock:
            return self._free


class JobManager:
    """Concurrent executor of sweep jobs over one shared runtime cache.

    :data:`MAX_CONCURRENT_JOBS` daemon runner threads drain one
    priority queue (higher ``priority`` first, submission order within
    a priority — "queued" in a status response is literal), each job
    drawing its worker budget from the shared :class:`WorkerPool` of
    ``workers`` processes.  :data:`MAX_QUEUED_JOBS` bounds the queue:
    beyond it, :meth:`submit` raises :class:`BusyError` so the HTTP
    layer can answer ``429`` instead of buffering unboundedly.
    """

    def __init__(self, workers=1, cache=None, journal=None,
                 point_timeout=None):
        self.workers = max(1, int(workers))
        self.cache = cache
        # Durable job journal (a :class:`~repro.serve.journal.
        # JobJournal` or None): lifecycle transitions are recorded
        # best-effort, and :meth:`resume_from_journal` requeues what
        # a killed predecessor left queued or running.
        self.journal = journal
        self.replay_stats = None
        # Per-point deadline forwarded to every job's streaming engine,
        # so one wedged point cannot hang a job forever.
        self.point_timeout = point_timeout
        self.evicted = 0
        self.pool = WorkerPool(self.workers)
        # The server is multithreaded (HTTP handlers + the runners),
        # so worker processes must never plain-fork: a child forked
        # while another thread holds a lock inherits it locked and
        # hangs, wedging the scheduler forever.  forkserver forks
        # workers from a clean single-threaded helper; spawn is the
        # fallback where it does not exist.
        # (A point deadline forces the executor path even at one
        # worker — the watchdog needs a reappable child — so the
        # non-fork context matters then too.)
        self._mp_context = None
        if self.workers > 1 or point_timeout is not None:
            import multiprocessing
            try:
                self._mp_context = multiprocessing.get_context(
                    "forkserver")
            except ValueError:
                self._mp_context = multiprocessing.get_context(
                    "spawn")
        self.jobs = {}  # insertion-ordered
        self._heap = []  # (-priority, seq, job): higher first, FIFO ties
        self._running = set()  # job ids currently held by a runner
        self._idle_runners = 0  # runner threads parked on the heap
        self._lock = threading.Condition()
        self._closed = False
        self._ids = itertools.count(1)
        self._seq = itertools.count()
        self._threads = [
            threading.Thread(target=self._run,
                             name=f"repro-serve-jobs-{index}",
                             daemon=True)
            for index in range(MAX_CONCURRENT_JOBS)]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # Submission / lookup
    # ------------------------------------------------------------------
    def submit_request(self, body, trace_carrier=None, job_id=None):
        """Validate one POST body and enqueue its sweep job."""
        return self.submit(resolve_request(body),
                           trace_carrier=trace_carrier,
                           job_id=job_id, journal_body=body)

    def submit_exploration_request(self, body, trace_carrier=None,
                                   job_id=None):
        """Validate one POST body and enqueue its exploration job."""
        return self.submit(resolve_exploration_request(body),
                           trace_carrier=trace_carrier,
                           job_id=job_id, journal_body=body)

    def submit(self, request, trace_carrier=None, job_id=None,
               journal_body=None):
        """Enqueue one resolved request.

        ``job_id`` pins the identifier (journal replay reuses the
        crashed server's IDs so clients re-attach); ``journal_body``
        is the raw request body persisted with the ``submitted``
        event — without it the job runs normally but cannot be
        replayed after a crash (programmatic submissions have no
        body; every HTTP submission does).
        """
        if len(request.specs) > MAX_SPECS_PER_JOB:
            raise RequestError(
                f"job of {len(request.specs)} specs exceeds this "
                f"server's {MAX_SPECS_PER_JOB}-spec limit; "
                f"shard the request")
        if job_id is None:
            job_id = f"job-{next(self._ids)}-{uuid.uuid4().hex[:8]}"
        job = SweepJob(job_id, request, trace_carrier=trace_carrier)
        with self._lock:
            if self._closed:
                raise ReproError("job manager is shut down")
            if job_id in self.jobs:
                raise ReproError(
                    f"job id {job_id!r} already exists; a pinned id "
                    f"may only be replayed once")
            # "Queued" means waiting: a submission an idle runner
            # will pick up immediately never counts against the
            # bound (otherwise a bound of 0 could not accept any
            # work at all).
            if self._idle_runners == 0 \
                    and len(self._heap) >= MAX_QUEUED_JOBS:
                metrics.SCHED_REJECTIONS.inc()
                raise BusyError(
                    f"job queue is full ({len(self._heap)} waiting, "
                    f"bound {MAX_QUEUED_JOBS}); retry in "
                    f"{DEFAULT_RETRY_AFTER_SECONDS}s or submit to "
                    f"another server")
            self._evict_locked()
            self.jobs[job_id] = job
            heapq.heappush(self._heap,
                           (-request.priority, next(self._seq), job))
            metrics.SCHED_QUEUE_DEPTH.set(len(self._heap))
            self._lock.notify_all()
        if self.journal is not None and journal_body is not None:
            # Only journaled submissions get lifecycle events too:
            # a programmatic job has no recorded body to replay from,
            # so journalling its transitions would just litter replay
            # stats with unrestorable entries.
            job.journaled = True
            self.journal.record(
                "submitted", job_id, job_kind=request.kind,
                body=journal_body, priority=request.priority,
                label=request.label, points=len(request.specs))
        _log.debug("job submitted", job_id=job_id, kind=request.kind,
                  label=request.label, points=len(request.specs),
                  priority=request.priority)
        return job

    def resume_from_journal(self):
        """Requeue every journaled job that never reached a terminal
        state, under its original ID.

        The durable half of ``repro serve --resume``: the journal is
        reduced to the last event per job (and its file compacted to
        the unfinished jobs); ``finished`` / ``failed`` jobs are left
        to rest, anything still ``submitted`` or
        ``started`` when the previous server died is resubmitted by
        re-resolving its recorded request body.  Jobs whose body was
        never recorded, no longer validates, or trips admission
        control are counted ``unrestorable`` rather than aborting
        the boot — a recovering server must come up with whatever it
        can save.  Returns (and stores) the replay stats that
        ``/healthz`` reports.
        """
        stats = {"journaled": 0, "requeued": 0, "completed": 0,
                 "unrestorable": 0, "skipped_lines": 0}
        if self.journal is None:
            self.replay_stats = stats
            return stats
        states, skipped = self.journal.replay(compact=True)
        stats["journaled"] = len(states)
        stats["skipped_lines"] = skipped
        for job_id, state in states.items():
            if state.get("event") in TERMINAL_EVENTS:
                stats["completed"] += 1
                continue
            body = state.get("body")
            if body is None or job_id in self.jobs:
                stats["unrestorable"] += 1
                continue
            try:
                if state.get("job_kind") == "exploration":
                    self.submit_exploration_request(body,
                                                    job_id=job_id)
                else:
                    self.submit_request(body, job_id=job_id)
            except ReproError as error:
                stats["unrestorable"] += 1
                _log.warning("journal.unrestorable_job",
                             job_id=job_id, error=str(error))
                continue
            stats["requeued"] += 1
            metrics.JOBS_REPLAYED.inc()
            _log.info("journal.job_requeued", job_id=job_id,
                      kind=state.get("job_kind", "sweep"))
        self.replay_stats = stats
        return stats

    def get(self, job_id):
        job = self.jobs.get(job_id)
        if job is None:
            raise UnknownJobError(
                f"no such sweep job: {job_id!r} (never submitted, or "
                f"finished and already evicted)")
        return job

    def list_jobs(self, kind=None):
        """Snapshots in submission order (oldest first).

        ``kind`` filters to one job kind (``"sweep"`` /
        ``"exploration"``); listing also sweeps the retention policy,
        so a long-lived server's job table stays bounded even if
        nobody submits.
        """
        with self._lock:
            self._evict_locked()
            jobs = list(self.jobs.values())
        return [job.snapshot() for job in jobs
                if kind is None or job.request.kind == kind]

    def counts(self):
        """``{status: count}`` over the retained jobs."""
        totals = {QUEUED: 0, RUNNING: 0, DONE: 0, FAILED: 0}
        for job in list(self.jobs.values()):
            totals[job.status] += 1
        return totals

    def queue_depth(self):
        """How many submitted jobs are waiting for a runner."""
        with self._lock:
            return len(self._heap)

    def _evict_locked(self):
        """Apply the retention policy (caller holds ``_lock``).

        TTL first (a finished job older than the TTL goes regardless
        of count), then the count bound, oldest-finished first.
        Only *terminal* jobs are eligible: a job still queued (in the
        heap) or held by a runner must survive any retention
        pressure — evicting it would orphan work the scheduler still
        intends to run, and its submitter would watch a live job
        404.  The live-set check makes that hold even if a job's
        status write races this scan.
        """
        live = {job.id for _, _, job in self._heap}
        live.update(self._running)
        terminal = [job for job in self.jobs.values()
                    if job.is_terminal and job.id not in live]
        horizon = time.time() - FINISHED_TTL_SECONDS
        drop = [job for job in terminal
                if job.finished is not None and job.finished < horizon]
        kept = [job for job in terminal if job not in drop]
        excess = len(kept) - MAX_FINISHED_JOBS
        if excess > 0:
            kept.sort(key=lambda job: (job.finished or 0.0, job.id))
            drop += kept[:excess]
        for job in drop:
            del self.jobs[job.id]
        self.evicted += len(drop)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _run(self):
        while True:
            with self._lock:
                self._idle_runners += 1
                try:
                    while not self._heap and not self._closed:
                        self._lock.wait()
                finally:
                    self._idle_runners -= 1
                if self._closed:
                    return
                _, _, job = heapq.heappop(self._heap)
                metrics.SCHED_QUEUE_DEPTH.set(len(self._heap))
                self._running.add(job.id)
            try:
                grant = self.pool.take(len(job.request.specs))
                try:
                    self._execute(job, workers=max(1, grant))
                finally:
                    self.pool.give_back(grant)
            finally:
                # Normally a no-op by now; covers a runner torn down
                # mid-job.
                self._release(job)

    def _release(self, job):
        with self._lock:
            self._running.discard(job.id)

    def _execute(self, job, workers):
        """Run one job, then persist, release and publish its outcome.

        In that order: the journal's ``finished``/``failed`` line is
        written, the runner lets go of the job, and only then does
        ``job.finish``/``fail`` wake waiters and serve the payload —
        so a job a client has collected is never requeued by a
        resume, and a job that looks done is already evictable.  A
        job must never kill its runner thread, so any exception is
        the job's result; a non-terminal exit (BaseException tearing
        the runner down) records nothing: the journal's last word
        stays "started", so a resume requeues the job.
        """
        started = time.perf_counter()
        _log.debug("job started", job_id=job.id,
                  kind=job.request.kind, workers=workers)
        if self.journal is not None and job.journaled:
            self.journal.record("started", job.id)
        payload = error = None
        try:
            if job.request.kind == "exploration":
                payload = self._execute_exploration(job, workers)
            else:
                payload = self._execute_sweep(job, workers)
        except Exception as failure:  # noqa: BLE001
            error = f"{type(failure).__name__}: {failure}"
        status = DONE if error is None else FAILED
        elapsed = time.perf_counter() - started
        metrics.JOB_SECONDS.observe(elapsed)
        metrics.JOBS.inc(status=status)
        if self.journal is not None and job.journaled:
            self.journal.record(
                "finished" if error is None else "failed",
                job.id, status=status, error=error)
        self._release(job)
        if error is None:
            job.finish(payload)
        else:
            job.fail(error)
        _log.debug("job finished", job_id=job.id, status=status,
                  elapsed_seconds=round(elapsed, 3), error=error)

    def _attach_trace(self, job, payload):
        """Ship the job's spans home inside its finished payload.

        Only for jobs submitted with a trace carrier — the remote
        caller owns the trace, so its spans are handed over (drained,
        not copied: they must not linger in this server's buffer) as
        an additive ``"trace"`` key the client pops before use.
        Must run before ``job.finish`` — the payload is read
        concurrently the moment the job turns terminal.
        """
        context = trace.parse_traceparent(
            (job.trace_carrier or {}).get("traceparent", ""))
        if context is not None:
            payload["trace"] = trace.spans_for_trace(
                context.trace_id, drain=True)

    def _execute_exploration(self, job, workers):
        """Run one :mod:`repro.dse` search as a job; its payload.

        Landed points stream in evaluation order (their ``pos`` is
        the landing index — an exploration has no "full sweep" to
        position against); the finished payload is the exploration
        document, not a mergeable sweep payload.
        """
        from repro.dse.runner import run_exploration

        job.mark_running(workers_granted=workers)
        landed = itertools.count()

        def observe(update):
            job.add_update(update, [next(landed)])

        # The job span must close before _attach_trace drains the
        # buffer, or it would miss the shipment and orphan every
        # child span on the caller's side.
        with trace.adopt(job.trace_carrier):
            with trace.span("job", kind="exploration", job_id=job.id,
                            label=job.request.label):
                result = run_exploration(
                    job.request.config, workers=workers,
                    cache=self.cache, progress=observe,
                    mp_context=self._mp_context,
                    point_timeout=self.point_timeout)
        payload = result.payload()
        self._attach_trace(job, payload)
        return payload

    def _execute_sweep(self, job, workers):
        """Run one sweep job; its mergeable payload."""
        from repro.runtime.stream import stream_specs

        job.mark_running(workers_granted=workers)
        request = job.request
        fanout = {}
        for local, spec in enumerate(request.specs):
            fanout.setdefault(spec, []).append(local)
        landed = {}

        def observe(update):
            landed[update.spec] = update.point
            job.add_update(update,
                           [request.positions[i]
                            for i in fanout[update.spec]])

        started = time.perf_counter()
        # Close the job span before _attach_trace drains the buffer —
        # a still-open span would miss the shipment and orphan every
        # child on the caller's side.
        with trace.adopt(job.trace_carrier):
            with trace.span("job", kind="sweep", job_id=job.id,
                            label=request.label,
                            points=len(request.specs)):
                for _ in stream_specs(
                        request.specs, workers=workers,
                        cache=self.cache, progress=observe,
                        mp_context=self._mp_context,
                        point_timeout=self.point_timeout):
                    pass
        result = SweepResult(
            specs=request.specs,
            points=[landed[spec] for spec in request.specs],
            cache_hits=job.cache_hits, computed=job.computed,
            elapsed_seconds=time.perf_counter() - started)
        payload = sweep_json_payload(
            result, shard=request.shard,
            positions=request.positions,
            spec_total=request.spec_total,
            fingerprint=request.fingerprint)
        self._attach_trace(job, payload)
        return payload

    def close(self):
        """Stop the runners; fail whatever never got to run."""
        with self._lock:
            self._closed = True
            pending = [job for _, _, job in self._heap]
            self._heap.clear()
            self._lock.notify_all()
        for job in pending:
            job.fail("job manager shut down before the job ran")
        for thread in self._threads:
            thread.join(timeout=5.0)
