"""Durable serve jobs: the journal and ``--resume`` replay.

The crash scenarios never kill a real process here (the CI
chaos-smoke lane does that); instead they construct the exact
artifact a SIGKILL leaves behind — a journal whose last word for a
job is ``submitted`` or ``started`` — and assert a fresh manager
resurrects the job under its original ID.  Everything runs on the
fake compute stand-in and synchronises on terminal status, never
sleeps.
"""

import json
import urllib.request

import pytest

from repro.errors import ReproError
from repro.serve.jobs import JobManager
from repro.serve.journal import (
    ENV_JOURNAL,
    JOURNAL_FILENAME,
    TERMINAL_EVENTS,
    JobJournal,
    journal_path,
    journalling_enabled,
)

BODY = {"kernels": ["dc_filter"], "configs": ["HOM64"],
        "variants": ["basic"]}


def finished(job):
    list(job.iter_records())
    assert job.is_terminal
    return job


@pytest.fixture
def journal(tmp_path):
    return JobJournal(tmp_path / JOURNAL_FILENAME)


@pytest.fixture
def manager(fake_compute, journal):
    manager = JobManager(workers=1, cache=None, journal=journal)
    yield manager
    manager.close()


class TestJournalFile:
    def test_path_lives_in_the_cache_dir(self, tmp_path):
        assert journal_path(tmp_path) \
            == tmp_path / JOURNAL_FILENAME

    def test_env_opt_out(self, monkeypatch):
        monkeypatch.delenv(ENV_JOURNAL, raising=False)
        assert journalling_enabled()
        monkeypatch.setenv(ENV_JOURNAL, "0")
        assert not journalling_enabled()

    def test_record_then_replay_reduces_to_last_event(self, journal):
        journal.record("submitted", "job-1", job_kind="sweep",
                       body=BODY, priority=2)
        journal.record("started", "job-1")
        journal.record("submitted", "job-2", job_kind="sweep",
                       body=BODY, priority=0)
        jobs, skipped = journal.replay()
        assert skipped == 0
        assert jobs["job-1"]["event"] == "started"
        assert jobs["job-1"]["body"] == BODY
        assert jobs["job-1"]["priority"] == 2
        assert jobs["job-2"]["event"] == "submitted"

    def test_reader_skips_and_counts_foreign_lines(self, journal):
        journal.record("submitted", "job-1", job_kind="sweep",
                       body=BODY)
        with open(journal.path, "a") as handle:
            handle.write("not json at all\n")
            handle.write(json.dumps({"kind": "run-ledger"}) + "\n")
            handle.write(json.dumps({"kind": "job-event",
                                     "event": "vanished",
                                     "job_id": "job-1"}) + "\n")
        jobs, skipped = journal.replay()
        assert skipped == 3
        assert jobs["job-1"]["event"] == "submitted"

    def test_missing_file_replays_empty(self, tmp_path):
        jobs, skipped = JobJournal(tmp_path / "never.jsonl").replay()
        assert jobs == {} and skipped == 0

    def test_record_never_raises_on_filesystem_trouble(self, tmp_path):
        blocked = tmp_path / "file"
        blocked.write_text("")
        journal = JobJournal(blocked / "jobs.jsonl")  # parent is a file
        assert journal.record("submitted", "job-1", body=BODY) is None
        assert journal.write_errors == 1


class TestLifecycleRecording:
    def test_http_submission_journals_the_full_lifecycle(self,
                                                         manager,
                                                         journal):
        job = manager.submit_request(dict(BODY))
        finished(job)
        jobs, _ = journal.replay()
        assert jobs[job.id]["event"] == "finished"
        events = [json.loads(line)["event"]
                  for line in open(journal.path)]
        assert events == ["submitted", "started", "finished"]

    def test_programmatic_submission_is_not_journaled(self, manager,
                                                      journal):
        from repro.serve.jobs import resolve_request

        job = manager.submit(resolve_request(dict(BODY)))
        finished(job)
        jobs, _ = journal.replay()
        assert job.id not in jobs

    def test_failed_job_is_terminal_in_the_journal(self, journal,
                                                   monkeypatch):
        from repro.runtime import pool

        def explode(spec):
            raise RuntimeError("kaboom")

        monkeypatch.setattr(pool, "_compute_captured", explode)
        manager = JobManager(workers=1, cache=None, journal=journal)
        try:
            job = manager.submit_request(dict(BODY))
            list(job.iter_records())
            assert job.is_terminal
        finally:
            manager.close()
        jobs, _ = journal.replay()
        assert jobs[job.id]["event"] == "failed"

    @pytest.mark.parametrize("outcome", ["finished", "failed"])
    def test_outcome_is_journaled_before_it_is_published(
            self, fake_compute, tmp_path, monkeypatch, outcome):
        # A job is done only once the journal says so: when the
        # terminal line is written, the runner still holds the job
        # and no waiter can have seen it end.
        from repro.runtime import pool

        if outcome == "failed":
            def explode(spec):
                raise RuntimeError("kaboom")

            monkeypatch.setattr(pool, "_compute_captured", explode)
        seen = {}

        class Observed(JobJournal):
            def record(self, event, job_id, **fields):
                if event in TERMINAL_EVENTS:
                    job = manager.jobs[job_id]
                    seen[event] = {"terminal": job.is_terminal,
                                   "held": job_id in manager._running}
                return super().record(event, job_id, **fields)

        manager = JobManager(workers=1, cache=None,
                             journal=Observed(tmp_path / "jobs.jsonl"))
        try:
            finished(manager.submit_request(dict(BODY)))
        finally:
            manager.close()
        assert seen == {outcome: {"terminal": False, "held": True}}


class TestResume:
    def crashed_journal(self, journal):
        """What a SIGKILLed server leaves: no terminal events."""
        journal.record("submitted", "job-queued-1", job_kind="sweep",
                       body=dict(BODY), priority=0)
        journal.record("submitted", "job-running-1", job_kind="sweep",
                       body=dict(BODY), priority=0)
        journal.record("started", "job-running-1")
        journal.record("submitted", "job-done-1", job_kind="sweep",
                       body=dict(BODY), priority=0)
        journal.record("started", "job-done-1")
        journal.record("finished", "job-done-1")
        return journal

    def test_non_terminal_jobs_requeue_under_their_original_ids(
            self, fake_compute, journal):
        self.crashed_journal(journal)
        manager = JobManager(workers=1, cache=None, journal=journal)
        try:
            stats = manager.resume_from_journal()
            assert stats == {"journaled": 3, "requeued": 2,
                             "completed": 1, "unrestorable": 0,
                             "skipped_lines": 0}
            assert manager.replay_stats is stats
            for job_id in ("job-queued-1", "job-running-1"):
                job = finished(manager.get(job_id))
                assert job.id == job_id
                assert job.status == "done"
            with pytest.raises(ReproError):
                manager.get("job-done-1")
        finally:
            manager.close()

    def test_replayed_job_finishes_in_the_journal_too(self,
                                                      fake_compute,
                                                      journal):
        journal.record("submitted", "job-x", job_kind="sweep",
                       body=dict(BODY))
        manager = JobManager(workers=1, cache=None, journal=journal)
        try:
            manager.resume_from_journal()
            finished(manager.get("job-x"))
        finally:
            manager.close()
        jobs, _ = journal.replay()
        assert jobs["job-x"]["event"] == "finished"

    def test_invalid_recorded_body_is_unrestorable_not_fatal(
            self, fake_compute, journal):
        journal.record("submitted", "job-bad", job_kind="sweep",
                       body={"kernels": ["warp_drive"]})
        journal.record("submitted", "job-bodyless")
        # A spec naming a flow option that is now a constant.
        journal.record("submitted", "job-old-spec", job_kind="sweep",
                       body={"specs": [{
                           "kernel": "fir", "config": "HOM64",
                           "variant": "basic", "seed": 7,
                           "options": {"cycle_window": 8}}]})
        manager = JobManager(workers=1, cache=None, journal=journal)
        try:
            stats = manager.resume_from_journal()
            assert stats["requeued"] == 0
            assert stats["unrestorable"] == 3
        finally:
            manager.close()

    def test_pinned_duplicate_id_is_rejected(self, manager):
        job = manager.submit_request(dict(BODY))
        with pytest.raises(ReproError, match="already exists"):
            manager.submit_request(dict(BODY), job_id=job.id)

    def test_no_journal_resume_is_a_noop(self, fake_compute):
        manager = JobManager(workers=1, cache=None)
        try:
            stats = manager.resume_from_journal()
            assert stats["journaled"] == 0
        finally:
            manager.close()


class TestHealthz:
    def test_healthz_reports_journal_state(self, fake_compute,
                                           start_server, tmp_path):
        journal = JobJournal(tmp_path / JOURNAL_FILENAME)
        journal.record("submitted", "job-lost", job_kind="sweep",
                       body=dict(BODY))
        url, server = start_server(journal=journal, resume=True)
        with urllib.request.urlopen(f"{url}/healthz") as response:
            payload = json.load(response)
        block = payload["journal"]
        assert block["path"] == str(journal.path)
        assert block["write_errors"] == 0
        assert block["replay"]["requeued"] == 1
        finished(server.manager.get("job-lost"))

    def test_journalless_server_reports_null(self, fake_compute,
                                             server_url):
        with urllib.request.urlopen(f"{server_url}/healthz") \
                as response:
            payload = json.load(response)
        assert payload["journal"] is None


class TestCompaction:
    """``serve --resume`` rewrites the journal down to unfinished jobs."""

    def lines(self, journal):
        return journal.path.read_text().splitlines()

    def test_resume_keeps_only_the_pending_jobs_lines(self, fake_compute,
                                                      journal):
        for index in range(50):
            job_id = f"job-done-{index}"
            journal.record("submitted", job_id, job_kind="sweep",
                           body=dict(BODY), priority=0)
            journal.record("started", job_id)
            journal.record("finished", job_id, status="done",
                           error=None)
        journal.record("submitted", "job-pending", job_kind="sweep",
                       body=dict(BODY), priority=0)
        with open(journal.path, "a") as handle:
            handle.write("not json at all\n")
            handle.write(json.dumps({"kind": "job-event",
                                     "event": "vanished",
                                     "job_id": "job-done-0"}) + "\n")
        journal.record("started", "job-pending")
        pending = [line for line in self.lines(journal)
                   if '"job-pending"' in line]
        manager = JobManager(workers=1, cache=None, journal=journal)
        try:
            stats = manager.resume_from_journal()
            # The stats describe the journal as found, not as kept.
            assert stats == {"journaled": 51, "requeued": 1,
                             "completed": 50, "unrestorable": 0,
                             "skipped_lines": 2}
            finished(manager.get("job-pending"))
        finally:
            manager.close()
        lines = self.lines(journal)
        # The original lines first, then the requeued run's own.
        assert lines[:2] == pending
        assert {json.loads(line)["job_id"] for line in lines} \
            == {"job-pending"}
        assert journal.write_errors == 0

    def test_unrestorable_jobs_keep_their_lines(self, fake_compute,
                                                journal):
        journal.record("submitted", "job-bodyless", job_kind="sweep")
        journal.record("submitted", "job-done", job_kind="sweep",
                       body=dict(BODY))
        journal.record("finished", "job-done")
        kept = self.lines(journal)[:1]
        manager = JobManager(workers=1, cache=None, journal=journal)
        try:
            assert manager.resume_from_journal()["unrestorable"] == 1
        finally:
            manager.close()
        assert self.lines(journal) == kept

    def test_failed_rewrite_leaves_the_file_and_counts(self, journal,
                                                       monkeypatch):
        journal.record("submitted", "job-done", job_kind="sweep",
                       body=dict(BODY))
        journal.record("finished", "job-done")
        before = journal.path.read_bytes()

        def refuse(*_args):
            raise OSError("disk full")

        monkeypatch.setattr("repro.jsonl.os.replace", refuse)
        jobs, skipped = journal.replay(compact=True)
        assert jobs["job-done"]["event"] == "finished" and skipped == 0
        assert journal.path.read_bytes() == before
        assert journal.write_errors == 1
        assert list(journal.path.parent.iterdir()) == [journal.path]
