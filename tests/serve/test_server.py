"""Client ↔ server integration on an ephemeral port, no sleeps.

The acceptance paths live here: the ``/stream`` endpoint yields every
cached point before any freshly computed one, and a sweep sharded
across two live servers merges client-side into the same result as
the single-process batch run.
"""

import json
import urllib.request

import pytest

from repro.runtime.cache import ResultCache
from repro.runtime.pool import run_sweep
from repro.runtime.shard import sweep_json_payload
from repro.runtime.sweep import sweep_specs
from repro.serve import client as client_module
from repro.serve import jobs as jobs_module
from repro.serve.client import (
    ServeClientError,
    SweepClient,
    describe_record,
    run_distributed,
)

AXES = {"kernels": ["fir", "fft"], "configs": ["HOM64", "HET1"],
        "variants": ["basic", "full"]}

SPECS = sweep_specs(kernels=("fir", "fft"),
                    configs=("HOM64", "HET1"),
                    variants=("basic", "full"))


class TestEndpoints:
    def test_healthz(self, fake_compute, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["workers"] == 1
        assert health["cache"] is False
        assert health["jobs"] == {"queued": 0, "running": 0,
                                  "done": 0, "failed": 0}

    def test_cache_stats_disabled(self, fake_compute, client):
        assert client.cache_stats() == {"enabled": False}

    def test_cache_stats_enabled(self, fake_compute, start_server,
                                 tmp_path):
        url, _ = start_server(cache=ResultCache(tmp_path))
        client = SweepClient(url)
        client.run(AXES)
        stats = client.cache_stats()
        assert stats["enabled"] is True
        assert stats["entries"] == len(SPECS)
        assert stats["stores"] == len(SPECS)

    def test_figures_listing(self, fake_compute, client):
        figures = client.figures()
        assert figures["fig6"] > 0
        assert figures["fig9"] == 0

    def test_unknown_job_is_404(self, fake_compute, client):
        with pytest.raises(ServeClientError, match="404"):
            client.status("job-0-cafef00d")

    def test_unknown_route_is_404(self, fake_compute, client):
        with pytest.raises(ServeClientError, match="404"):
            client._json("/v2/nothing")

    def test_bad_submission_is_400(self, fake_compute, client):
        with pytest.raises(ServeClientError,
                           match="400.*unknown kernels"):
            client.submit({"kernels": ["warp_drive"]})

    def test_non_json_body_is_400(self, fake_compute, server_url):
        request = urllib.request.Request(
            server_url + "/v1/sweeps", data=b"{not json",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        assert "not JSON" in json.loads(
            excinfo.value.read().decode())["error"]

    @pytest.mark.parametrize("headers,reason", [
        (b"Content-Length: -1\r\n", b"400"),
        # read(-1) would park the handler on the open socket; the
        # server must answer 400 without touching the body.
        (b"Transfer-Encoding: chunked\r\n", b"400"),
        # http.server never dechunks: accepting this would silently
        # drop the body and submit the full default sweep.
        (b"", b"400"),
        # No Content-Length at all: same silent-widening hazard.
        (b"Content-Length: 0\r\n", b"400"),
        # Explicitly empty body (curl -d ''): still not a licence to
        # run the full default sweep; that takes an explicit `{}`.
    ])
    def test_unframed_bodies_are_400_not_a_hang(
            self, fake_compute, server_url, headers, reason):
        import socket
        from urllib.parse import urlsplit

        parts = urlsplit(server_url)
        with socket.create_connection(
                (parts.hostname, parts.port), timeout=10) as sock:
            sock.sendall(b"POST /v1/sweeps HTTP/1.1\r\n"
                         b"Host: test\r\n" + headers + b"\r\n")
            response = sock.recv(65536)
        assert b" " + reason + b" " in response.splitlines()[0]

    def test_bind_failure_leaks_no_runner_thread(self):
        import socket
        import threading

        from repro.serve.server import make_server

        blocker = socket.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            def runners():
                return sum(
                    thread.name.startswith("repro-serve-jobs")
                    and thread.is_alive()
                    for thread in threading.enumerate())

            before = runners()
            for _ in range(3):
                with pytest.raises(OSError):
                    make_server(port=port)
            assert runners() == before
        finally:
            blocker.close()

    def test_job_listing(self, fake_compute, client):
        client.run(AXES)
        jobs = client.jobs()
        assert len(jobs) == 1
        assert jobs[0]["status"] == "done"
        assert jobs[0]["landed"] == len(SPECS)


class TestAuthAndBackpressure:
    def test_token_required_when_set(self, fake_compute,
                                     start_server):
        url, _ = start_server(token="s3cret")
        anonymous = SweepClient(url, timeout=10.0)
        with pytest.raises(ServeClientError, match="401") as caught:
            anonymous.jobs()
        assert caught.value.status == 401
        with pytest.raises(ServeClientError, match="401"):
            anonymous.submit(AXES)
        wrong = SweepClient(url, timeout=10.0, token="guess")
        with pytest.raises(ServeClientError, match="401"):
            wrong.jobs()

    def test_token_grants_access(self, fake_compute, start_server):
        url, _ = start_server(token="s3cret")
        client = SweepClient(url, timeout=10.0, token="s3cret")
        payload = client.run(AXES)
        assert payload["summary"]["points"] == len(SPECS)

    def test_healthz_stays_open_without_token(self, fake_compute,
                                              start_server):
        url, _ = start_server(token="s3cret")
        health = SweepClient(url, timeout=10.0).health()
        assert health["status"] == "ok"
        assert health["auth"] is True

    def test_non_loopback_bind_refused_without_token(self):
        from repro.errors import ReproError
        from repro.serve.server import make_server

        with pytest.raises(ReproError, match="without auth"):
            make_server(host="0.0.0.0", port=0)

    def test_queue_bound_answers_429_with_retry_after(
            self, fake_compute, start_server, monkeypatch):
        import threading
        import urllib.error

        from repro.runtime import pool

        started = threading.Event()
        gate = threading.Event()
        real = pool._compute_captured

        def slow(spec):
            started.set()
            gate.wait(timeout=30.0)
            return real(spec)

        monkeypatch.setattr(pool, "_compute_captured", slow)
        monkeypatch.setattr(jobs_module, "MAX_CONCURRENT_JOBS", 1)
        monkeypatch.setattr(jobs_module, "MAX_QUEUED_JOBS", 0)
        url, _ = start_server()
        client = SweepClient(url, timeout=10.0)
        one = {"kernels": ["fir"], "configs": ["HOM64"],
               "variants": ["basic"]}
        receipt = client.submit(one)
        assert started.wait(timeout=10.0)  # runner busy, queue bound 0
        request = urllib.request.Request(
            url + "/v1/sweeps", data=json.dumps(one).encode(),
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request, timeout=10)
        assert caught.value.code == 429
        assert int(caught.value.headers["Retry-After"]) > 0
        body = json.loads(caught.value.read().decode())
        assert "queue is full" in body["error"]
        # Acceptance: the bounced submission did not disturb the
        # in-flight job.
        gate.set()
        assert client.follow(receipt)["summary"]["points"] == 1

    def test_429_surfaces_retry_after_in_the_client(
            self, fake_compute, start_server, monkeypatch):
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
        monkeypatch.setattr(jobs_module, "MAX_CONCURRENT_JOBS", 1)
        monkeypatch.setattr(jobs_module, "MAX_QUEUED_JOBS", 0)
        url, _ = start_server()
        client = SweepClient(url, timeout=10.0)
        one = {"kernels": ["fir"], "configs": ["HOM64"],
               "variants": ["basic"]}
        receipt = client.submit(one)
        assert started.wait(timeout=10.0)
        with pytest.raises(ServeClientError, match="429") as caught:
            client.submit(one)
        assert caught.value.status == 429
        assert caught.value.retry_after > 0
        gate.set()
        client.follow(receipt)

    def test_healthz_reports_scheduler_state(self, fake_compute,
                                             start_server,
                                             monkeypatch):
        monkeypatch.setattr(jobs_module, "MAX_CONCURRENT_JOBS", 2)
        monkeypatch.setattr(jobs_module, "MAX_QUEUED_JOBS", 7)
        url, _ = start_server()
        health = SweepClient(url, timeout=10.0).health()
        scheduler = health["scheduler"]
        assert scheduler["max_concurrent_jobs"] == 2
        assert scheduler["max_queued_jobs"] == 7
        assert scheduler["queued"] == 0
        assert scheduler["workers_free"] == 1

    def test_oversized_body_is_400(self, fake_compute, start_server,
                                   monkeypatch):
        from repro.serve import server as server_module

        monkeypatch.setattr(server_module, "MAX_BODY_BYTES", 16)
        url, _ = start_server()
        request = urllib.request.Request(
            url + "/v1/sweeps",
            data=json.dumps({"kernels": ["fir"]}).encode(),
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request, timeout=10)
        assert caught.value.code == 400
        body = json.loads(caught.value.read().decode())
        assert "exceeds the 16-byte limit" in body["error"]


class TestSubmitAndStream:
    def test_run_returns_the_batch_payload(self, fake_compute,
                                           client):
        payload = client.run(AXES)
        assert payload["summary"]["points"] == len(SPECS)
        assert payload["summary"]["computed"] == len(SPECS)
        assert payload["fingerprint"]
        assert [record["pos"] for record in payload["points"]] \
            == list(range(len(SPECS)))

    @pytest.mark.parametrize("spec_args,from_cache", [
        (("fir", "HET1", "full"), False),
        (("fir", "HET1", "full"), True),
        (("fir", "HOM32", "basic"), False),  # fake unmapped point
    ])
    def test_remote_progress_lines_match_local_ones(
            self, fake_compute, spec_args, from_cache):
        # describe_record renders a streamed JSON record; pin it to
        # StreamUpdate.describe so the remote narration can never
        # silently drift from the local one.  The only sanctioned
        # difference is the tail of the parenthetical: local appends
        # elapsed seconds, remote appends the server origin.
        from repro.runtime.shard import point_to_json, spec_to_json
        from repro.runtime.stream import StreamUpdate
        from repro.runtime.sweep import PointSpec

        spec = PointSpec(*spec_args).resolve()
        point = fake_compute(spec)
        local = StreamUpdate(spec=spec, point=point, done=3, total=7,
                             from_cache=from_cache,
                             elapsed_seconds=2.0).describe()
        remote = describe_record(
            {"spec": spec_to_json(spec),
             "point": point_to_json(point),
             "from_cache": from_cache}, 3, 7)
        assert remote.endswith(")")
        assert local.startswith(remote[:-1])

    def test_stream_narrates_each_point(self, fake_compute, client):
        receipt = client.submit(AXES)
        records = list(client.stream(receipt["id"]))
        assert len(records) == len(SPECS)
        lines = [describe_record(record, i + 1, len(records))
                 for i, record in enumerate(records)]
        assert all("computed" in line for line in lines)
        assert f"[{len(SPECS)}/{len(SPECS)}]" in lines[-1]

    def test_stream_replays_for_late_readers(self, fake_compute,
                                             client):
        receipt = client.submit(AXES)
        first = list(client.stream(receipt["id"]))
        # The job is long done; a second reader gets the same replay.
        second = list(client.stream(receipt["id"]))
        assert first == second

    def test_cached_points_stream_before_computed_ones(
            self, fake_compute, start_server, tmp_path):
        # Acceptance: /stream yields every cache hit before any
        # freshly computed point.  Prewarm half the sweep directly
        # into the server's cache, then watch the stream order.
        cache = ResultCache(tmp_path)
        warm = SPECS[::2]
        for spec in warm:
            cache.store_point(spec.resolve(),
                              fake_compute(spec.resolve()))
        url, _ = start_server(cache=cache)
        client = SweepClient(url)
        receipt = client.submit(AXES)
        records = list(client.stream(receipt["id"]))
        sources = [record["from_cache"] for record in records]
        assert sources.count(True) == len(warm)
        first_computed = sources.index(False)
        assert all(not hit for hit in sources[first_computed:])
        status = client.status(receipt["id"])
        assert status["cache_hits"] == len(warm)
        assert status["computed"] == len(SPECS) - len(warm)

    def test_failed_job_raises_with_the_server_error(
            self, fake_compute, client, monkeypatch):
        from repro.runtime import pool

        def explode(spec):
            raise RuntimeError("engine on fire")

        monkeypatch.setattr(pool, "_compute_captured", explode)
        with pytest.raises(ServeClientError, match="engine on fire"):
            client.run(AXES)

    def test_unreachable_server(self):
        client = SweepClient("http://127.0.0.1:9", timeout=2.0)
        with pytest.raises(ServeClientError, match="cannot reach"):
            client.health()


class TestDistributedDispatch:
    def test_two_servers_merge_to_the_local_batch_run(
            self, fake_compute, start_server):
        urls = [start_server()[0] for _ in range(2)]
        result, payloads = run_distributed(urls, AXES)
        local = run_sweep(SPECS)
        assert sweep_json_payload(result)["points"] \
            == sweep_json_payload(local)["points"]
        assert result.computed == len(SPECS)
        assert {payload["shard"]["index"]
                for payload in payloads} == {0, 1}
        # Both servers did real, disjoint work.
        sizes = [len(payload["points"]) for payload in payloads]
        assert all(size > 0 for size in sizes)
        assert sum(sizes) == len(SPECS)

    def test_progress_interleaves_with_server_origin(
            self, fake_compute, start_server):
        urls = [start_server()[0] for _ in range(2)]
        seen = []
        run_distributed(urls, AXES,
                        progress=lambda record, done, total, url:
                        seen.append((url, record["pos"])))
        assert len(seen) == len(SPECS)
        assert {url for url, _ in seen} == set(urls)

    def test_one_dead_server_rebalances_to_the_survivor(
            self, fake_compute, start_server, no_backoff):
        # One of the two URLs was never alive: its shard must be
        # resubmitted to the survivor and the merge still succeed.
        url, _ = start_server()
        result, payloads = run_distributed(
            [url, "http://127.0.0.1:9"], AXES, timeout=2.0)
        local = run_sweep(SPECS)
        assert sweep_json_payload(result)["points"] \
            == sweep_json_payload(local)["points"]
        assert {payload["shard"]["index"]
                for payload in payloads} == {0, 1}

    def test_all_servers_dead_aggregates_every_outcome(
            self, fake_compute, no_backoff):
        # The failure must name which shard on which host failed —
        # every outcome, not just the first.
        with pytest.raises(ServeClientError) as caught:
            run_distributed(
                ["http://127.0.0.1:9", "http://127.0.0.1:10"],
                AXES, timeout=2.0)
        message = str(caught.value)
        assert "shard 0 @ http://127.0.0.1:9" in message
        assert "shard 1 @ http://127.0.0.1:10" in message
        assert "2/2 shard(s)" in message

    def test_shards_exhaust_their_attempts(self, fake_compute,
                                           start_server, no_backoff,
                                           monkeypatch):
        # Force every submission to fail retryably (429) and count
        # the rounds: the dispatch must give up after MAX_ATTEMPTS.
        monkeypatch.setattr(client_module, "MAX_ATTEMPTS", 2)
        url, _ = start_server()
        calls = []

        def busy(self, request):
            calls.append(request["shard"])
            raise ServeClientError("queue is full", status=429,
                                   retry_after=0)

        monkeypatch.setattr(SweepClient, "submit", busy)
        with pytest.raises(ServeClientError, match="attempt 2"):
            run_distributed([url], AXES)
        assert calls == [[0, 1], [0, 1]]

    def test_caller_supplied_shard_rejected(self, fake_compute):
        with pytest.raises(ServeClientError, match="dispatcher"):
            run_distributed(["http://x"], {"shard": [0, 2]})

    def test_no_servers_rejected(self, fake_compute):
        with pytest.raises(ServeClientError, match="no sweep"):
            run_distributed([], AXES)


class TestRealPipeline:
    """The acceptance criterion on the genuine mapping pipeline."""

    REAL_AXES = {"kernels": ["dc_filter"], "configs": ["HOM64"],
                 "variants": ["basic", "full"]}
    REAL_SPECS = sweep_specs(kernels=("dc_filter",),
                             configs=("HOM64",),
                             variants=("basic", "full"))

    @staticmethod
    def deterministic(payload_points):
        """Point records minus wall-clock compile time."""
        rows = []
        for record in payload_points:
            point = dict(record["point"])
            point.pop("compile_seconds")
            rows.append({"pos": record["pos"],
                         "spec": record["spec"], "point": point})
        return rows

    def test_multiworker_server_completes_a_job(self, start_server,
                                                tmp_path):
        # workers>1 inside the threaded server exercises the
        # non-fork mp context (plain fork from a multithreaded
        # process can wedge a worker); this mirrors CI serve-smoke.
        url, _ = start_server(cache=ResultCache(tmp_path), workers=2)
        payload = SweepClient(url, timeout=120.0).run(self.REAL_AXES)
        assert payload["summary"]["crashed"] == 0
        assert payload["summary"]["computed"] == len(self.REAL_SPECS)

    def test_sharded_service_equals_local_batch(self, start_server,
                                                tmp_path):
        urls = [start_server(
            cache=ResultCache(tmp_path / f"cache-{index}"))[0]
            for index in range(2)]
        result, _ = run_distributed(urls, self.REAL_AXES)
        local = run_sweep(self.REAL_SPECS)
        assert self.deterministic(
            sweep_json_payload(result)["points"]) \
            == self.deterministic(
                sweep_json_payload(local)["points"])
        assert result.computed == len(self.REAL_SPECS)
        assert not result.crashed
