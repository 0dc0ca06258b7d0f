"""``POST /v1/explorations``: the DSE engine behind the HTTP door.

Runs on the fake compute stand-in (see ``conftest``) — these tests
are about request validation, the job plumbing and the payload
contract, not the mapper.  The exploration *engine* has its own
suite under ``tests/dse/``.
"""

import pytest

from repro.serve.jobs import (
    JobManager,
    RequestError,
    resolve_exploration_request,
)

SMALL = {"space": ["ladder"], "depths": [8, 16, 32, 64],
         "kernels": ["fir", "fft"]}


class TestResolveExplorationRequest:
    def test_defaults(self):
        request = resolve_exploration_request({})
        assert request.kind == "exploration"
        assert request.config.strategy == "exhaustive"
        assert request.spec_total == len(request.config.designs) \
            * len(request.config.kernels)

    def test_axes_apply(self):
        request = resolve_exploration_request(
            {**SMALL, "strategy": "random", "budget": 5, "seed": 3})
        assert request.config.budget == 5
        assert request.config.seed == 3
        assert [d.name for d in request.config.designs] \
            == ["hom8", "hom16", "hom32", "hom64"]

    @pytest.mark.parametrize("body, diagnostic", [
        ({"kernals": ["fir"]}, "unknown request keys"),
        ({"kernels": "fir"}, "must be a list"),
        ({"budget": "five"}, "must be an integer"),
        ({"budget": 0}, "budget"),
        ({"strategy": "warp"}, "unknown search strategy"),
        ({"space": ["warp"]}, "unknown design space"),
        ({"objectives": ["energy", "karma"]}, "unknown objectives"),
        ([1, 2], "JSON object"),
    ])
    def test_bad_bodies_are_request_errors(self, body, diagnostic):
        with pytest.raises(RequestError, match=diagnostic):
            resolve_exploration_request(body)


class TestExplorationJobs:
    @pytest.fixture
    def manager(self, fake_compute):
        manager = JobManager(workers=1, cache=None)
        yield manager
        manager.close()

    def test_job_finishes_with_the_exploration_document(self,
                                                        manager):
        job = manager.submit_exploration_request(SMALL)
        records = [record for record in job.iter_records()
                   if record is not None]
        assert job.status == "done"
        payload = job.payload
        assert payload["kind"] == "exploration"
        assert payload["frontier"]
        assert payload["summary"]["evaluated_pairs"] == len(records)
        # Stream records land in evaluation order.
        assert [record["pos"] for record in records] \
            == list(range(len(records)))

    def test_point_deadline_reaches_the_exploration(self, fake_compute,
                                                     monkeypatch):
        # An exploration job streams its points under the manager's
        # deadline, like a sweep job, so a wedged point is reaped.
        from repro.dse import runner

        stream_specs = runner.stream_specs
        deadlines = []

        def recorded(specs, **kwargs):
            deadlines.append(kwargs.pop("point_timeout", None))
            # Compute inline with the fake: no reappable workers here.
            return stream_specs(specs, point_timeout=None, **kwargs)

        monkeypatch.setattr(runner, "stream_specs", recorded)
        manager = JobManager(workers=1, cache=None, point_timeout=12.5)
        try:
            job = manager.submit_exploration_request(SMALL)
            list(job.iter_records())
            assert job.status == "done"
        finally:
            manager.close()
        assert deadlines and set(deadlines) == {12.5}

    def test_snapshot_carries_the_kind(self, manager):
        job = manager.submit_exploration_request(SMALL)
        snapshot = job.snapshot()
        assert snapshot["kind"] == "exploration"
        assert snapshot["label"] == "explore:exhaustive"
        list(job.iter_records())


class TestHttpDoor:
    def test_submit_stream_fetch(self, fake_compute, client):
        receipt = client.submit_exploration(
            {**SMALL, "strategy": "adaptive"})
        assert receipt["kind"] == "exploration"
        assert receipt["stream"].startswith("/v1/explorations/")
        payload = client.follow(receipt)
        assert payload["kind"] == "exploration"
        assert payload["strategy"] == "adaptive"
        assert payload["frontier"]

    def test_run_exploration_shortcut(self, fake_compute, client):
        payload = client.run_exploration({**SMALL, "budget": 4})
        assert payload["summary"]["evaluated_pairs"] == 4

    def test_listings_are_kind_scoped(self, fake_compute, client):
        client.run_exploration(SMALL)
        client.run({"kernels": ["fir"], "configs": ["HOM64"],
                    "variants": ["basic"]})
        explorations = client.explorations()
        sweeps = client.jobs()
        assert [job["kind"] for job in explorations] \
            == ["exploration"]
        assert [job["kind"] for job in sweeps] == ["sweep"]

    def test_listing_reports_evictions(self, fake_compute,
                                       start_server, monkeypatch):
        from repro.serve import jobs

        monkeypatch.setattr(jobs, "MAX_FINISHED_JOBS", 0)
        url, _ = start_server()
        from repro.serve.client import SweepClient
        client = SweepClient(url, timeout=30.0)
        client.run_exploration({**SMALL, "budget": 2})
        listing = client._json("/v1/explorations")
        assert listing["jobs"] == []
        assert listing["evicted"] >= 1
        assert client.health()["evicted"] >= 1

    def test_bad_submission_is_400(self, fake_compute, client):
        from repro.serve.client import ServeClientError
        with pytest.raises(ServeClientError, match="400"):
            client.submit_exploration({"strategy": "warp"})
