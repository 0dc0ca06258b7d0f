"""The ``REPRO_FAULT`` grammar and the injection hooks.

Grammar (clauses separated by ``;``, parameters by ``,``)::

    REPRO_FAULT="worker_crash:p=0.05;point_hang:p=0.01,seconds=60;
                 cache_corrupt:p=0.02;http_cut:p=0.05;seed=7"

- ``worker_crash`` — the worker process computing a point calls
  ``os._exit`` mid-compute, breaking the process pool exactly like a
  segfault or the OOM killer would.
- ``point_hang`` — the worker stalls ``seconds`` (default 3600)
  before computing, wedging the point past any ``--point-timeout``.
- ``cache_corrupt`` — a result-cache entry is garbled on disk just
  before it is read, exercising the corrupt-entry discard path.
- ``http_cut`` — a serve-client request fails with a connection
  error before reaching the server, exercising dispatch retries.
- ``seed=N`` — perturbs every decision hash (default 0).

Every clause takes ``p`` (injection probability, required) and
optionally ``attempts=N``: inject only on the first ``N`` attempts
of a subject, which is how a test scripts "crash once, then heal".

Decisions are pure hashes — no RNG state, no ordering sensitivity —
keyed per subject: a point fault is keyed by ``spec.describe()``
plus the attempt number stamped by the resubmitting supervisor, a
cache fault by the entry key, an HTTP fault by the request path plus
a per-path call counter.  The process-level faults only ever fire
inside a real worker child (``multiprocessing.parent_process()`` is
set); an inline compute in the main process is never crashed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import multiprocessing
import os
import threading
import time

from repro.errors import ReproError

ENV_FAULT = "REPRO_FAULT"

#: Fault kinds the grammar accepts, and where each one is injected.
FAULT_KINDS = ("worker_crash", "point_hang", "cache_corrupt", "http_cut")

#: Exit status of an injected worker crash — distinctive in ``wait``
#: output, and far from the interpreter's own 0/1/2 conventions.
CRASH_EXIT_CODE = 87

#: Default stall of ``point_hang`` when ``seconds=`` is not given:
#: effectively forever next to any sane point deadline.
DEFAULT_HANG_SECONDS = 3600.0


@dataclasses.dataclass(frozen=True)
class FaultClause:
    """One parsed ``kind:p=...`` clause of a fault plan."""

    kind: str
    probability: float
    attempts: int | None = None
    seconds: float = DEFAULT_HANG_SECONDS

    def describe(self):
        text = f"{self.kind}:p={self.probability:g}"
        if self.attempts is not None:
            text += f",attempts={self.attempts}"
        if self.kind == "point_hang" and \
                self.seconds != DEFAULT_HANG_SECONDS:
            text += f",seconds={self.seconds:g}"
        return text


class FaultPlan:
    """A parsed fault plan: per-kind clauses plus the decision seed."""

    def __init__(self, clauses, seed=0):
        self.clauses = {clause.kind: clause for clause in clauses}
        self.seed = seed

    def clause(self, kind):
        return self.clauses.get(kind)

    def should(self, kind, key, attempt=0):
        """Deterministically decide one injection.

        ``key`` identifies the subject (spec description, cache key,
        request path); ``attempt`` is the 0-based retry ordinal so a
        resubmitted subject re-rolls rather than deterministically
        dying forever — unless the clause pins ``attempts``, in which
        case later attempts are never injected (the "heals on retry"
        script used by the chaos harness and CI).
        """
        clause = self.clauses.get(kind)
        if clause is None or clause.probability <= 0:
            return False
        if clause.attempts is not None and attempt >= clause.attempts:
            return False
        digest = hashlib.sha256(
            f"{self.seed}|{kind}|{key}|{attempt}".encode()).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2.0 ** 64
        return fraction < clause.probability

    def describe(self):
        """Canonical grammar text that re-parses to this plan."""
        parts = [self.clauses[kind].describe()
                 for kind in FAULT_KINDS if kind in self.clauses]
        if self.seed:
            parts.append(f"seed={self.seed}")
        return ";".join(parts)


def parse_fault_plan(text):
    """Parse a ``REPRO_FAULT`` string; None when empty.

    Raises :class:`~repro.errors.ReproError` on an unknown fault
    kind, a malformed parameter or a probability outside ``[0, 1]``
    — a chaos run with a typo'd plan must refuse to start, not
    silently inject nothing.
    """
    clauses = []
    seed = 0
    for raw in (text or "").split(";"):
        raw = raw.strip()
        if not raw:
            continue
        if raw.startswith("seed="):
            try:
                seed = int(raw[len("seed="):])
            except ValueError:
                raise ReproError(f"bad fault seed: {raw!r}") from None
            continue
        kind, separator, params = raw.partition(":")
        kind = kind.strip()
        if kind not in FAULT_KINDS:
            raise ReproError(
                f"unknown fault kind {kind!r} "
                f"(expected one of {', '.join(FAULT_KINDS)})")
        if not separator:
            raise ReproError(
                f"fault clause {raw!r} needs parameters, e.g. "
                f"{kind}:p=0.05")
        fields = {}
        for param in params.split(","):
            name, separator, value = param.partition("=")
            name = name.strip()
            if not separator or name not in ("p", "attempts", "seconds"):
                raise ReproError(
                    f"bad fault parameter {param!r} in clause {raw!r}")
            try:
                fields[name] = (int(value) if name == "attempts"
                                else float(value))
            except ValueError:
                raise ReproError(
                    f"bad fault parameter {param!r} in clause "
                    f"{raw!r}") from None
        if "p" not in fields:
            raise ReproError(f"fault clause {raw!r} is missing p=")
        if not 0.0 <= fields["p"] <= 1.0:
            raise ReproError(
                f"fault probability must be in [0, 1]: {raw!r}")
        clauses.append(FaultClause(
            kind=kind,
            probability=fields["p"],
            attempts=fields.get("attempts"),
            seconds=fields.get("seconds", DEFAULT_HANG_SECONDS)))
    if not clauses:
        return None
    return FaultPlan(clauses, seed=seed)


# One (text -> plan) pair memoises the common case — the env var is
# stable for the life of a run — while still noticing a test that
# monkeypatches the variable mid-process.
_cached = (None, None)
_cache_lock = threading.Lock()


def active_plan():
    """The plan from ``$REPRO_FAULT``, or None when unset/empty.

    The environment is the carrier deliberately: worker processes
    inherit it, so one exported variable arms the hooks on both
    sides of the process-pool boundary.
    """
    text = os.environ.get(ENV_FAULT)
    if not text:
        return None
    global _cached
    with _cache_lock:
        if _cached[0] == text:
            return _cached[1]
    plan = parse_fault_plan(text)
    with _cache_lock:
        _cached = (text, plan)
    return plan


# ----------------------------------------------------------------------
# Injection hooks.  Each is a no-op costing one env lookup unless a
# plan is armed, so production paths pay nothing.
# ----------------------------------------------------------------------
def maybe_fail_point(spec, attempt=0):
    """Worker-side hook: crash or stall before computing ``spec``.

    Only ever fires inside a worker child — the same hook runs on
    the inline (``workers=1``) path, where killing the process would
    take the whole CLI down with it.
    """
    plan = active_plan()
    if plan is None:
        return
    if multiprocessing.parent_process() is None:
        return
    key = spec.describe()
    if plan.should("worker_crash", key, attempt):
        # os._exit skips every finally/atexit: indistinguishable from
        # a segfault as far as the parent's ProcessPoolExecutor can
        # tell, which is exactly the point.
        os._exit(CRASH_EXIT_CODE)
    clause = plan.clause("point_hang")
    if clause is not None and plan.should("point_hang", key, attempt):
        time.sleep(clause.seconds)


def maybe_corrupt_cache_entry(path, key):
    """Cache-read hook: garble the entry at ``path`` before the read.

    Returns True when it corrupted the file, so the harness can log
    it; the cache itself notices nothing special — it just finds an
    entry that no longer decodes, which is the path under test.  A
    missing entry is left missing: ``r+b`` refuses to create it.
    """
    plan = active_plan()
    if plan is None or not plan.should("cache_corrupt", key):
        return False
    try:
        with open(path, "r+b") as handle:
            handle.write(b"\x80repro-chaos-garbage")
            handle.truncate()
    except OSError:
        return False
    _count_injection("cache_corrupt")
    return True


_http_calls = {}
_http_lock = threading.Lock()


def maybe_cut_http(path):
    """Serve-client hook: sever one request before it leaves.

    Keyed by request path plus a per-path call counter, so "the
    second POST to /v1/sweeps dies" is reproducible for a fixed call
    sequence.  Raises OSError — the client's transport-error handling
    turns it into the same retryable failure a yanked cable would.
    """
    plan = active_plan()
    if plan is None or plan.clause("http_cut") is None:
        return
    with _http_lock:
        ordinal = _http_calls.get(path, 0)
        _http_calls[path] = ordinal + 1
    if plan.should("http_cut", path, ordinal):
        _count_injection("http_cut")
        raise OSError(f"chaos: injected http_cut on {path}")


def _count_injection(kind):
    # Imported lazily: metrics pulls in the obs stack, which the
    # worker-side hooks must not pay for on the no-plan fast path.
    from repro.obs import metrics
    metrics.FAULTS_INJECTED.inc(kind=kind)
