"""Job-manager unit tests: request parsing, lifecycle, streaming.

Everything here runs on the fake compute stand-in — these tests are
about the job machinery, not the mapper.  Synchronisation is always
``iter_records()`` / terminal status, never a sleep.
"""

import pytest

from repro.errors import ReproError
from repro.runtime.shard import (
    merge_sweep_payloads,
    spec_to_json,
    sweep_json_payload,
)
from repro.runtime.sweep import PointSpec, sweep_specs
from repro.serve.jobs import (
    JobManager,
    RequestError,
    resolve_request,
)


def finished(job):
    """Drain the record stream (returns at terminal) and return job."""
    list(job.iter_records())
    assert job.is_terminal
    return job


@pytest.fixture
def manager(fake_compute):
    manager = JobManager(workers=1, cache=None)
    yield manager
    manager.close()


class TestResolveRequest:
    def test_default_axes_are_the_full_sweep(self):
        request = resolve_request({})
        assert len(request.specs) == len(sweep_specs())
        assert request.shard is None
        assert request.positions == list(range(len(request.specs)))

    def test_axes_restrict_the_sweep(self):
        request = resolve_request({"kernels": ["fir"],
                                   "configs": ["hom64"],
                                   "variants": ["basic", "full"],
                                   "seed": 3})
        assert len(request.specs) == 2
        assert {spec.config_name for spec in request.specs} \
            == {"HOM64"}
        assert {spec.seed for spec in request.specs} == {3}

    def test_unknown_axis_is_a_request_error(self):
        with pytest.raises(RequestError, match="unknown kernels"):
            resolve_request({"kernels": ["warp_drive"]})

    def test_axis_must_be_a_string_list(self):
        with pytest.raises(RequestError, match="list of strings"):
            resolve_request({"kernels": "fir"})

    def test_figure_resolves_its_prewarm_specs(self):
        from repro.eval.experiments import figure_point_specs
        request = resolve_request({"figure": "fig6"})
        assert request.label == "fig6"
        assert len(request.specs) == len(figure_point_specs("fig6"))

    def test_render_only_figure_rejected(self):
        with pytest.raises(RequestError, match="v1/figures"):
            resolve_request({"figure": "fig9"})

    def test_unknown_figure_gets_its_own_diagnostic(self):
        with pytest.raises(RequestError, match="unknown figure"):
            resolve_request({"figure": "fig12"})

    def test_typod_request_key_rejected(self):
        # {"kernals": ...} must 400, never silently widen to the
        # full 140-point default sweep.
        with pytest.raises(RequestError, match="unknown request"):
            resolve_request({"kernals": ["fir"]})
        with pytest.raises(RequestError, match="unknown request"):
            resolve_request({"figures": "fig8"})

    def test_explicit_specs_round_trip(self):
        specs = [PointSpec("fir", "HET1", "full").resolve()]
        request = resolve_request(
            {"specs": [spec_to_json(spec) for spec in specs]})
        assert request.specs == specs

    def test_malformed_spec_is_a_request_error(self):
        with pytest.raises(RequestError, match="malformed spec"):
            resolve_request({"specs": [{"kernel": "fir"}]})

    @pytest.mark.parametrize("field,value", [
        ("kernel", 7), ("config", None), ("variant", ["full"]),
        ("backend", 1), ("seed", None), ("seed", True), ("seed", 1.5),
        ("seed", "x"), ("rows", True), ("cols", 4.0),
        ("cm_depths", "16"), ("cm_depths", [16] * 15 + [0]),
        ("cm_depths", [True] * 16), ("options", [1]),
        ("options.acmap", 1), ("options.prune_cap", True),
        ("options.seed", None), ("options.traversal", 3),
    ])
    def test_mistyped_spec_field_is_a_request_error_naming_it(
            self, field, value):
        spec = spec_to_json(PointSpec("fir", "HOM16", "full",
                                      cm_depths=(16,) * 16))
        if field.startswith("options."):
            spec["options"][field.removeprefix("options.")] = value
        else:
            spec[field] = value
        with pytest.raises(RequestError, match=f"'{field}'"):
            resolve_request({"specs": [spec]})

    @pytest.mark.parametrize("field,value", [
        ("options.max_attempts", 0), ("options.max_attempts", -2),
        ("options.prune_cap", 0), ("options.seed", -1),
        ("options.traversal", "bogus"), ("seed", -1), ("kernel", "nope"),
        ("config", "NOPE"), ("variant", "bogus"),
    ])
    def test_out_of_range_spec_field_is_a_request_error_naming_it(
            self, field, value):
        # Each of these used to be accepted and then answer a wrong
        # "unmappable" without a real attempt, crash the point, or map
        # it as another value under a key of its own.
        spec = spec_to_json(PointSpec("dc_filter", "HOM64", "full"))
        if field.startswith("options."):
            field = field.removeprefix("options.")
            spec["options"][field] = value
        else:
            spec[field] = value
        with pytest.raises(RequestError, match=f"'{field}'"):
            resolve_request({"specs": [spec]})

    def test_negative_axes_seed_is_a_request_error(self):
        with pytest.raises(RequestError, match="seed must be >= 0"):
            resolve_request({"kernels": ["fir"], "seed": -1})

    def test_unknown_variant_without_options_is_a_request_error(self):
        # Without options the variant picks them; an unknown one used
        # to surface as a bare KeyError naming only the value.
        spec = {"kernel": "fir", "config": "HOM64", "variant": "bogus",
                "seed": 7}
        with pytest.raises(RequestError, match="'variant'"):
            resolve_request({"specs": [spec]})

    @pytest.mark.parametrize("name,value", [
        ("warp", 9),
        # FlowOptions fields that became constants: a spec written
        # before that is refused, not mapped with the value ignored.
        ("presplit_load_fanout", 0), ("presplit_alu_fanout", -1),
        ("max_route_movs", -1), ("finalize_slack", -20),
        ("cycle_window", 0), ("cycle_window", -2),
        ("max_recomputes", -1), ("max_cm_retries", -3),
    ])
    def test_unknown_spec_option_is_a_request_error_naming_it(
            self, name, value):
        spec = spec_to_json(PointSpec("fir", "HET1", "full"))
        spec["options"][name] = value
        with pytest.raises(RequestError,
                           match=f"unknown spec options.*'{name}'"):
            resolve_request({"specs": [spec]})

    def test_non_object_spec_entry_is_a_request_error(self):
        # A bare kernel name instead of a spec dict is an easy
        # client mistake; it must 400, not crash the handler.
        with pytest.raises(RequestError, match="malformed spec"):
            resolve_request({"specs": ["fir"]})

    def test_empty_specs_never_widen_to_the_default_sweep(self):
        with pytest.raises(RequestError, match="zero specs"):
            resolve_request({"specs": []})

    def test_empty_axis_never_widens_to_the_default_sweep(self):
        with pytest.raises(RequestError, match="zero specs"):
            resolve_request({"kernels": []})

    def test_figure_with_seed_rejected(self):
        # figure_point_specs pins its own seed; silently ignoring a
        # caller's seed would mislabel every cached point.
        with pytest.raises(RequestError, match="seed"):
            resolve_request({"figure": "fig6", "seed": 99})

    def test_modes_are_exclusive(self):
        with pytest.raises(RequestError, match="exclusive"):
            resolve_request({"figure": "fig6", "kernels": ["fir"]})

    @pytest.mark.parametrize("shard", ["1/4", [1, 4]])
    def test_shard_forms(self, shard):
        request = resolve_request({"kernels": ["fir", "fft"],
                                   "shard": shard})
        assert request.shard == (1, 4)
        assert len(request.specs) < request.spec_total

    @pytest.mark.parametrize("shard", ["4/2", [1], {"index": 0},
                                       [True, 2]])
    def test_bad_shards_rejected(self, shard):
        with pytest.raises(RequestError):
            resolve_request({"kernels": ["fir"], "shard": shard})

    def test_non_object_body_rejected(self):
        with pytest.raises(RequestError, match="JSON object"):
            resolve_request([1, 2, 3])

    def test_bad_seed_rejected(self):
        with pytest.raises(RequestError, match="seed"):
            resolve_request({"seed": "seven"})


class TestJobLifecycle:
    REQUEST = {"kernels": ["fir", "fft"], "configs": ["HOM64"],
               "variants": ["basic", "full"]}

    def test_job_completes_with_a_mergeable_payload(self, manager):
        job = finished(manager.submit_request(self.REQUEST))
        assert job.status == "done"
        assert len(job.records) == 4
        payload = job.payload
        assert payload["shard"] is None
        assert payload["summary"]["points"] == 4
        merged = merge_sweep_payloads([payload])
        assert sweep_json_payload(merged)["points"] \
            == payload["points"]
        # Only the JSON payload survives completion; the heavy
        # SweepResult must not be retained for the server's lifetime.
        assert not hasattr(job, "result")

    def test_sharded_jobs_merge_to_the_full_sweep(self, manager):
        jobs = [finished(manager.submit_request(
            {**self.REQUEST, "shard": [index, 2]}))
            for index in range(2)]
        merged = merge_sweep_payloads([job.payload for job in jobs])
        full = finished(manager.submit_request(self.REQUEST))
        assert sweep_json_payload(merged)["points"] \
            == full.payload["points"]

    def test_unmapped_points_are_results_not_failures(self, manager):
        # fake_point turns HOM32/basic into a "context overflow".
        job = finished(manager.submit_request(
            {"kernels": ["fir"], "configs": ["HOM32"],
             "variants": ["basic"]}))
        assert job.status == "done"
        assert job.records[0]["point"]["error"] == "context overflow"

    def test_duplicate_specs_fan_out_to_every_position(self, manager):
        spec = spec_to_json(PointSpec("fir", "HET1", "full"))
        job = finished(manager.submit_request(
            {"specs": [spec, spec, spec]}))
        assert [record["pos"] for record in job.records] == [0, 1, 2]
        # One unique spec computed, three positions filled.
        assert job.computed == 1
        assert job.payload["summary"]["points"] == 3

    def test_engine_crash_fails_the_job(self, manager, monkeypatch):
        from repro.runtime import pool

        def explode(spec):
            raise RuntimeError("engine on fire")

        monkeypatch.setattr(pool, "_compute_captured", explode)
        job = finished(manager.submit_request(self.REQUEST))
        assert job.status == "failed"
        assert "engine on fire" in job.error
        assert job.payload is None

    def test_snapshot_counts_landed_points(self, manager):
        job = finished(manager.submit_request(self.REQUEST))
        snapshot = job.snapshot()
        assert snapshot["status"] == "done"
        assert snapshot["landed"] == 4
        assert snapshot["cache_hits"] == 0
        assert snapshot["computed"] == 4
        assert snapshot["error"] is None

    def test_records_replay_after_completion(self, manager):
        job = finished(manager.submit_request(self.REQUEST))
        again = list(job.iter_records())
        assert again == job.records

    def test_idle_stream_emits_heartbeats(self, fake_compute):
        from repro.serve.jobs import SweepJob, resolve_request

        # Never enqueued: the job stays silent, so a heartbeat-aware
        # reader must get None ticks instead of an endless block.
        job = SweepJob("job-x", resolve_request(self.REQUEST))
        stream = job.iter_records(heartbeat=0.0)
        assert next(stream) is None
        assert next(stream) is None
        job.fail("abandoned")
        remaining = [record for record in stream
                     if record is not None]
        assert remaining == []

    def test_heartbeats_never_interleave_with_records(self, manager):
        job = finished(manager.submit_request(self.REQUEST))
        # A finished job replays pure records even with an eager
        # heartbeat — ticks only fire while genuinely idle.
        assert list(job.iter_records(heartbeat=0.0)) == job.records

    def test_jobs_run_fifo_within_a_priority(self, fake_compute):
        # One runner makes completion order observable: equal
        # priorities must preserve submission order.
        manager = JobManager(workers=1, cache=None,
                             max_concurrent_jobs=1)
        try:
            first = manager.submit_request(self.REQUEST)
            second = manager.submit_request(self.REQUEST)
            finished(second)  # returns only once second is terminal
            assert first.status == "done"
            assert manager.counts()["done"] == 2
        finally:
            manager.close()

    def test_concurrent_jobs_run_at_once(self, fake_compute,
                                         monkeypatch):
        import threading

        from repro.runtime import pool

        both_started = threading.Barrier(3, timeout=10.0)
        gate = threading.Event()
        real = pool._compute_captured

        def slow(spec):
            both_started.wait()
            gate.wait(timeout=10.0)
            return real(spec)

        monkeypatch.setattr(pool, "_compute_captured", slow)
        manager = JobManager(workers=1, cache=None,
                             max_concurrent_jobs=2)
        try:
            one_spec = {"kernels": ["fir"], "configs": ["HOM64"],
                        "variants": ["basic"]}
            jobs = [manager.submit_request(one_spec)
                    for _ in range(2)]
            # Both jobs reach their compute before either finishes —
            # impossible under the old single FIFO runner.
            both_started.wait()
            gate.set()
            for job in jobs:
                finished(job)
                assert job.status == "done"
        finally:
            gate.set()
            manager.close()

    def test_unknown_job_id(self, manager):
        from repro.serve.jobs import UnknownJobError
        with pytest.raises(UnknownJobError):
            manager.get("job-0-deadbeef")

    def test_close_fails_jobs_that_never_ran(self, fake_compute,
                                             monkeypatch):
        import threading

        from repro.runtime import pool

        started = threading.Event()
        gate = threading.Event()
        real = pool._compute_captured

        def slow(spec):
            started.set()
            gate.wait(timeout=10.0)
            return real(spec)

        monkeypatch.setattr(pool, "_compute_captured", slow)
        manager = JobManager(workers=1, cache=None,
                             max_concurrent_jobs=1)
        blocker = manager.submit_request({"kernels": ["fir"],
                                          "configs": ["HOM64"],
                                          "variants": ["basic"]})
        assert started.wait(timeout=10.0)  # runner holds `blocker`
        queued = manager.submit_request(self.REQUEST)
        # close() fails the still-queued job before joining the
        # runner, which is parked on the gate — so run it from a
        # helper thread and observe the failure through the stream.
        closer = threading.Thread(target=manager.close, daemon=True)
        closer.start()
        list(queued.iter_records())  # returns at terminal status
        assert queued.status == "failed"
        assert "shut down" in queued.error
        gate.set()
        closer.join(timeout=10.0)
        finished(blocker)
        assert blocker.status == "done"
        with pytest.raises(ReproError, match="shut down"):
            manager.submit_request(self.REQUEST)


class TestScheduler:
    """Priority ordering, worker-pool budgets, and backpressure."""

    def _gated_manager(self, monkeypatch, order, **kwargs):
        """A single-runner manager whose computes wait on a gate."""
        import threading

        from repro.runtime import pool

        started = threading.Event()
        gate = threading.Event()
        real = pool._compute_captured

        def slow(spec):
            started.set()
            gate.wait(timeout=10.0)
            order.append(spec.kernel_name)
            return real(spec)

        monkeypatch.setattr(pool, "_compute_captured", slow)
        manager = JobManager(workers=1, cache=None,
                             max_concurrent_jobs=1, **kwargs)
        return manager, started, gate

    @staticmethod
    def _one(kernel, priority=None):
        request = {"kernels": [kernel], "configs": ["HOM64"],
                   "variants": ["basic"]}
        if priority is not None:
            request["priority"] = priority
        return request

    def test_higher_priority_runs_first(self, fake_compute,
                                        monkeypatch):
        order = []
        manager, started, gate = self._gated_manager(monkeypatch,
                                                     order)
        try:
            blocker = manager.submit_request(self._one("fir"))
            assert started.wait(timeout=10.0)
            # Queued while the runner is busy: the high-priority
            # latecomer must overtake the earlier default submission.
            low = manager.submit_request(self._one("fft"))
            high = manager.submit_request(self._one("matmul",
                                                    priority=10))
            assert low.snapshot()["priority"] == 0
            assert high.snapshot()["priority"] == 10
            gate.set()
            for job in (blocker, low, high):
                finished(job)
            assert order == ["fir", "matmul", "fft"]
        finally:
            gate.set()
            manager.close()

    def test_equal_priority_preserves_submission_order(
            self, fake_compute, monkeypatch):
        order = []
        manager, started, gate = self._gated_manager(monkeypatch,
                                                     order)
        try:
            manager.submit_request(self._one("fir"))
            assert started.wait(timeout=10.0)
            first = manager.submit_request(self._one("fft",
                                                     priority=5))
            second = manager.submit_request(self._one("matmul",
                                                      priority=5))
            gate.set()
            finished(first)
            finished(second)
            assert order == ["fir", "fft", "matmul"]
        finally:
            gate.set()
            manager.close()

    def test_queue_bound_raises_busy(self, fake_compute,
                                     monkeypatch):
        from repro.serve.jobs import BusyError

        order = []
        manager, started, gate = self._gated_manager(
            monkeypatch, order, max_queued_jobs=1)
        try:
            running = manager.submit_request(self._one("fir"))
            assert started.wait(timeout=10.0)
            queued = manager.submit_request(self._one("fft"))
            with pytest.raises(BusyError, match="queue is full") \
                    as caught:
                manager.submit_request(self._one("matmul"))
            assert caught.value.retry_after > 0
            # Backpressure bounces the latecomer only: in-flight and
            # queued jobs still finish.
            gate.set()
            finished(running)
            finished(queued)
            assert running.status == "done"
            assert queued.status == "done"
        finally:
            gate.set()
            manager.close()

    def test_max_specs_per_job_is_a_request_error(self,
                                                  fake_compute):
        manager = JobManager(workers=1, cache=None,
                             max_specs_per_job=2)
        try:
            with pytest.raises(RequestError, match="spec limit"):
                manager.submit_request({"kernels": ["fir", "fft"],
                                        "configs": ["HOM64"]})
            job = finished(manager.submit_request(self._one("fir")))
            assert job.status == "done"
        finally:
            manager.close()

    def test_priority_validation(self):
        with pytest.raises(RequestError, match="priority"):
            resolve_request({"kernels": ["fir"], "priority": "high"})
        with pytest.raises(RequestError, match="priority"):
            resolve_request({"kernels": ["fir"], "priority": 101})
        with pytest.raises(RequestError, match="priority"):
            resolve_request({"kernels": ["fir"], "priority": True})
        assert resolve_request({"kernels": ["fir"],
                                "priority": -100}).priority == -100

    def test_worker_pool_grants_and_returns(self):
        from repro.serve.jobs import WorkerPool

        pool = WorkerPool(4)
        first = pool.take(10)
        assert first == 4  # sole holder takes everything it wants
        second = pool.take(10)
        assert second == 0  # empty pool -> inline compute, no block
        pool.give_back(first)
        pool.give_back(second)
        assert pool.free == 4
        # With holders present, a grant is capped at an even share.
        a = pool.take(10)
        assert a == 4
        pool.give_back(a)
        grants = [pool.take(1), pool.take(4)]
        assert grants[0] == 1
        assert grants[1] <= 2  # second of two holders: even share
        for grant in grants:
            pool.give_back(grant)
        assert pool.free == 4

    def test_jobs_report_their_worker_grant(self, manager):
        job = finished(manager.submit_request(
            {"kernels": ["fir"], "configs": ["HOM64"],
             "variants": ["basic"]}))
        assert job.snapshot()["workers"] == 1


class TestEviction:
    """Retention policy: long-lived managers stay bounded."""

    REQUEST = {"kernels": ["fir"], "configs": ["HOM64"],
               "variants": ["basic"]}

    def _run_jobs(self, manager, count):
        jobs = [manager.submit_request(self.REQUEST)
                for _ in range(count)]
        for job in jobs:
            finished(job)
        return jobs

    def test_count_bound_evicts_oldest_finished(self, fake_compute):
        # One runner thread: the jobs finish in submission order,
        # which is the order the assertion below takes for "oldest".
        manager = JobManager(workers=1, cache=None,
                             max_concurrent_jobs=1,
                             max_finished_jobs=2,
                             finished_ttl_seconds=None)
        try:
            jobs = self._run_jobs(manager, 4)
            listed = {snap["id"] for snap in manager.list_jobs()}
            assert listed == {jobs[2].id, jobs[3].id}
            assert manager.evicted == 2
            from repro.serve.jobs import UnknownJobError
            with pytest.raises(UnknownJobError, match="evicted"):
                manager.get(jobs[0].id)
        finally:
            manager.close()

    def test_ttl_evicts_old_finished_jobs(self, fake_compute,
                                          monkeypatch):
        manager = JobManager(workers=1, cache=None,
                             max_finished_jobs=None,
                             finished_ttl_seconds=60.0)
        try:
            jobs = self._run_jobs(manager, 2)
            # Age the first job past the TTL by rewriting its
            # finish stamp — no sleeps in this suite.
            jobs[0].finished -= 120.0
            listed = {snap["id"] for snap in manager.list_jobs()}
            assert listed == {jobs[1].id}
            assert manager.evicted == 1
        finally:
            manager.close()

    def test_running_and_queued_jobs_never_evict(self, fake_compute,
                                                 monkeypatch):
        import threading

        from repro.runtime import pool

        started = threading.Event()
        gate = threading.Event()
        real = pool._compute_captured

        def slow(spec):
            started.set()
            gate.wait(timeout=10.0)
            return real(spec)

        monkeypatch.setattr(pool, "_compute_captured", slow)
        manager = JobManager(workers=1, cache=None,
                             max_concurrent_jobs=1,
                             max_finished_jobs=0,
                             finished_ttl_seconds=None)
        try:
            running = manager.submit_request(self.REQUEST)
            assert started.wait(timeout=10.0)
            queued = manager.submit_request(self.REQUEST)
            alive = {snap["id"] for snap in manager.list_jobs()}
            assert alive == {running.id, queued.id}
            gate.set()
            finished(queued)
            # Now both are terminal and the zero-retention policy
            # may drop them.
            assert manager.list_jobs() == []
            assert manager.evicted == 2
        finally:
            gate.set()
            manager.close()

    def test_flooded_queue_never_loses_live_jobs(self, fake_compute,
                                                 monkeypatch):
        import threading

        from repro.runtime import pool

        started = threading.Event()
        gate = threading.Event()
        real = pool._compute_captured

        def slow(spec):
            started.set()
            gate.wait(timeout=30.0)
            return real(spec)

        monkeypatch.setattr(pool, "_compute_captured", slow)
        # Zero retention + a flood of submissions: every submit and
        # every listing runs the eviction scan while all jobs are
        # still queued/running — none may disappear.
        manager = JobManager(workers=1, cache=None,
                             max_concurrent_jobs=1,
                             max_finished_jobs=0,
                             finished_ttl_seconds=None)
        try:
            jobs = [manager.submit_request(self.REQUEST)
                    for _ in range(12)]
            assert started.wait(timeout=10.0)
            alive = {snap["id"] for snap in manager.list_jobs()}
            assert alive == {job.id for job in jobs}
            assert manager.evicted == 0
            for job in jobs:  # every live job still resolvable
                assert manager.get(job.id) is job
            gate.set()
            for job in jobs:
                finished(job)
                assert job.status == "done"
            # Terminal at last: the zero-retention policy applies.
            assert manager.list_jobs() == []
            assert manager.evicted == len(jobs)
        finally:
            gate.set()
            manager.close()

    def test_defaults_are_bounded(self, fake_compute):
        from repro.serve.jobs import (
            DEFAULT_FINISHED_TTL_SECONDS,
            DEFAULT_MAX_FINISHED_JOBS,
        )
        manager = JobManager(workers=1, cache=None)
        try:
            assert manager.max_finished_jobs \
                == DEFAULT_MAX_FINISHED_JOBS
            assert manager.finished_ttl_seconds \
                == DEFAULT_FINISHED_TTL_SECONDS
        finally:
            manager.close()
