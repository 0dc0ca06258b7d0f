"""Durable job journal: serve jobs survive the server that took them.

A :class:`~repro.serve.jobs.JobManager` is in-memory; a SIGKILL (or
an OOM kill, or a deploy) used to silently drop every queued and
running job.  The journal fixes that with the cheapest durable
structure the repo already trusts: an append-only JSONL file in the
cache directory, next to ``ledger.jsonl`` and under the same
contract — one self-describing JSON object per line, schema-tagged,
writers best-effort (journalling must never fail the job it
records), readers skip-and-count malformed or foreign lines.

One line per job *transition*::

    {"kind": "job-event", "schema": 1, "event": "submitted",
     "job_id": "job-3-4fe21a09", "job_kind": "sweep",
     "body": {...original POST body...}, "priority": 0, ...}

``submitted`` carries the client's original request body — the whole
reason replay works: a restarted server re-resolves the body exactly
like the HTTP layer would have, under the *original* job ID, so a
client that noted ``job-3-4fe21a09`` before the crash re-attaches
after it.  ``started`` / ``finished`` / ``failed`` are bare
transitions; :meth:`JobJournal.replay` reduces the log to the last
event per job, and only jobs whose last event is non-terminal are
requeued.

``REPRO_JOB_JOURNAL=0`` opts out, mirroring ``REPRO_LEDGER=0``.
"""

from __future__ import annotations

import datetime
import os
import pathlib
import threading
import time

from repro import jsonl

#: Version of a job-event line.
JOURNAL_SCHEMA = 1

#: Set to ``0``/``false``/``no`` to disable job journalling.
ENV_JOURNAL = "REPRO_JOB_JOURNAL"

#: File name of the journal inside the cache directory.
JOURNAL_FILENAME = "jobs.jsonl"

#: Events a journal line may carry; the last one seen per job wins.
EVENTS = ("submitted", "started", "finished", "failed")

#: Events after which a job needs no replay.
TERMINAL_EVENTS = ("finished", "failed")


def journal_path(cache_dir=None):
    """Journal location: ``<cache dir>/jobs.jsonl``."""
    from repro.runtime.cache import default_cache_dir

    base = pathlib.Path(cache_dir) if cache_dir else default_cache_dir()
    return base / JOURNAL_FILENAME


def journalling_enabled():
    """False when ``REPRO_JOB_JOURNAL`` opts out."""
    return os.environ.get(ENV_JOURNAL, "").strip().lower() \
        not in ("0", "false", "no")


class JobJournal:
    """Append-only recorder + replayer of job lifecycle events."""

    def __init__(self, path):
        self.path = pathlib.Path(path)
        # One lock per journal: interleaved appends from the HTTP
        # threads and the runner threads must not tear lines.
        self._lock = threading.Lock()
        #: Appends that failed (filesystem trouble); exposed on
        #: /healthz so silent journal loss is at least visible.
        self.write_errors = 0

    def record(self, event, job_id, **fields):
        """Best-effort append of one transition; returns the entry.

        Never raises: the journal observes the job table, it must
        not be able to fail a submission or wedge a runner.  Returns
        None when journalling is disabled or the write failed.
        """
        if not journalling_enabled():
            return None
        now = time.time()
        entry = {
            "kind": "job-event",
            "schema": JOURNAL_SCHEMA,
            "event": event,
            "job_id": job_id,
            "recorded_unix": round(now, 3),
            "recorded_at": datetime.datetime.fromtimestamp(
                now, datetime.timezone.utc).isoformat(),
        }
        entry.update(fields)
        try:
            with self._lock:
                jsonl.append(entry, self.path)
        except OSError:
            self.write_errors += 1
            return None
        return entry

    def replay(self):
        """``(jobs, skipped)``: last known state per journaled job.

        ``jobs`` maps ``job_id`` to a dict with the last ``event``
        seen plus whatever the ``submitted`` line carried (``body``,
        ``job_kind``, ``priority``) — enough to resubmit.  Malformed
        or foreign lines are counted in ``skipped`` and ignored, the
        same reader contract as the run ledger.
        """
        entries, skipped = jsonl.read(
            self.path, "job-event",
            valid=lambda entry: entry.get("event") in EVENTS
            and isinstance(entry.get("job_id"), str))
        jobs = {}
        for entry in entries:
            state = jobs.setdefault(entry["job_id"], {})
            state["event"] = entry["event"]
            if entry["event"] == "submitted":
                state["job_kind"] = entry.get("job_kind", "sweep")
                state["body"] = entry.get("body")
                state["priority"] = entry.get("priority", 0)
        return jobs, skipped
