"""Serve-tier observability: /metrics, healthz, logs, stitched traces."""

import io
import json
import urllib.request

import pytest

import repro
from repro.obs import logs, metrics, trace
from repro.serve.client import run_distributed


@pytest.fixture(autouse=True)
def _clean_obs_state():
    trace.reset_tracing()
    metrics.REGISTRY.reset_values()
    logs.reset()
    yield
    trace.reset_tracing()
    metrics.REGISTRY.reset_values()
    logs.reset()


AXES = {"kernels": ["fir", "matmul"], "configs": ["HET1"],
        "variants": ["full"]}


def fetch_text(url):
    with urllib.request.urlopen(url, timeout=10.0) as response:
        return (response.status, response.headers.get("Content-Type"),
                response.read().decode("utf-8"))


def parse_exposition(text):
    """name -> {label_string: value} from Prometheus 0.0.4 text."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name_and_labels, value = line.rsplit(" ", 1)
        samples[name_and_labels] = float(value)
    return samples


class TestMetricsEndpoint:
    def test_scrape_parses_and_counts_work(self, fake_compute,
                                           server_url, client):
        client.run(dict(AXES))
        status, content_type, text = fetch_text(server_url + "/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        samples = parse_exposition(text)
        assert samples['repro_points_total{source="computed"}'] == 2
        assert samples['repro_jobs_total{status="done"}'] == 1
        assert samples["repro_job_seconds_count"] == 1
        assert samples["repro_workers_total"] == 1
        # The scrape itself and the job's requests all counted.
        assert sum(value for key, value in samples.items()
                   if key.startswith("repro_http_requests_total")) > 0

    def test_metrics_is_open_like_healthz(self, start_server):
        url, _ = start_server(token="secret-token")
        status, _, _ = fetch_text(url + "/metrics")
        assert status == 200

    def test_cache_gauges_refresh_at_scrape_time(self, fake_compute,
                                                 start_server,
                                                 tmp_path):
        from repro.runtime.cache import ResultCache
        cache = ResultCache(tmp_path)
        url, _ = start_server(cache=cache)
        _, _, text = fetch_text(url + "/metrics")
        before = parse_exposition(text)
        assert before["repro_cache_entries"] == 0
        assert before["repro_cache_orphaned_bytes"] == 0
        # Populate the cache directly, then scrape again: the gauges
        # must reflect disk state without a /v1/cache/stats call.
        from repro.serve.client import SweepClient
        SweepClient(url).run(dict(AXES))
        _, _, text = fetch_text(url + "/metrics")
        after = parse_exposition(text)
        assert after["repro_cache_entries"] == 2
        assert after["repro_cache_bytes"] > 0


class TestDashboard:
    def test_dashboard_serves_html(self, fake_compute, server_url,
                                   client):
        client.run(dict(AXES))
        status, content_type, body = fetch_text(
            server_url + "/dashboard")
        assert status == 200
        assert content_type.startswith("text/html")
        assert body.startswith("<!DOCTYPE html>")
        assert "watchtower" in body
        assert "Metrics snapshot" in body

    def test_dashboard_open_behind_token(self, start_server):
        url, _ = start_server(token="secret-token")
        status, _, body = fetch_text(url + "/dashboard")
        assert status == 200
        assert "watchtower" in body

    def test_dashboard_shows_ledger_entries(self, fake_compute,
                                            start_server, tmp_path):
        from repro.perf.ledger import (
            append_entry, ledger_path, make_entry)
        from repro.runtime.cache import ResultCache
        cache = ResultCache(tmp_path)
        append_entry(make_entry("bench", {
            "total_seconds": 1.25,
            "cases": {"fir@HOM32/full": 1.25},
        }), ledger_path(tmp_path))
        url, _ = start_server(cache=cache)
        _, _, body = fetch_text(url + "/dashboard")
        assert "Bench trend" in body
        assert "fir@HOM32/full" in body


class TestHealthz:
    def test_operational_fields(self, fake_compute, client,
                                server_url):
        first = client.health()
        assert first["version"] == repro.__version__
        assert first["uptime_seconds"] >= 0
        assert first["requests_total"] >= 0
        again = client.health()
        assert again["requests_total"] > first["requests_total"]
        assert again["uptime_seconds"] >= first["uptime_seconds"]


class TestAccessLog:
    def test_requests_logged_unless_quiet(self, fake_compute,
                                          start_server):
        stream = io.StringIO()
        logs.configure(stream=stream)
        url, server = start_server()
        server.quiet = False
        fetch_text(url + "/healthz")
        line = stream.getvalue()
        assert "repro.serve: request" in line
        assert "path=/healthz" in line
        assert "status=200" in line

    def test_quiet_suppresses_access_log(self, fake_compute,
                                         start_server):
        stream = io.StringIO()
        logs.configure(stream=stream)
        url, _ = start_server()  # conftest servers are quiet=True
        fetch_text(url + "/healthz")
        assert stream.getvalue() == ""


class TestDistributedTraceStitching:
    def test_two_servers_one_tree(self, fake_compute, start_server,
                                  tmp_path):
        url_a, _ = start_server()
        url_b, _ = start_server()
        trace.enable_tracing()
        result, payloads = run_distributed([url_a, url_b], dict(AXES))
        assert len(result.points) == 2
        # The additive trace key never leaks into the merged payloads.
        assert all("trace" not in payload for payload in payloads)

        spans = trace.drain_spans()
        names = {span["name"] for span in spans}
        assert {"run_distributed", "shard", "submit", "job",
                "sweep"} <= names
        assert [span["name"] for span in spans
                if span["parent_id"] is None] == ["run_distributed"]
        # One trace id across client spans and both servers' spans.
        assert len({span["trace_id"] for span in spans}) == 1
        ids = {span["span_id"] for span in spans}
        for span in spans:
            if span["parent_id"] is not None:
                assert span["parent_id"] in ids
        # Both servers' job spans made it home.
        jobs = [span for span in spans if span["name"] == "job"]
        assert len(jobs) == 2
        assert {span["attrs"]["kind"] for span in jobs} == {"sweep"}

        # And the stitched tree exports as loadable Chrome trace JSON.
        path = trace.write_chrome_trace(tmp_path / "dist.json", spans)
        document = json.loads(open(path).read())
        assert len(document["traceEvents"]) == len(spans)
        assert all(event["ph"] == "X"
                   for event in document["traceEvents"])

        # Acceptance: the analysis of a 2-server distributed trace
        # reports a critical path whose span ids all exist in the
        # stitched tree and whose duration never exceeds the root's.
        from repro.obs.analyze import analyze_spans, load_trace_file
        payload = analyze_spans(spans)
        assert payload["root"]["name"] == "run_distributed"
        assert payload["critical_path_us"] <= \
            payload["root"]["wall_us"]
        path_ids = {row["span_id"]
                    for row in payload["critical_path"]}
        assert path_ids and path_ids <= ids
        assert payload["shards"]["count"] == 2
        assert payload["orphans"] == 0
        # The saved file analyses to the same critical path.
        reloaded = analyze_spans(load_trace_file(path))
        assert {row["span_id"]
                for row in reloaded["critical_path"]} == path_ids

    def test_untraced_dispatch_ships_no_spans(self, fake_compute,
                                              start_server):
        url, _ = start_server()
        result, payloads = run_distributed([url], dict(AXES))
        assert len(result.points) == 2
        assert all("trace" not in payload for payload in payloads)
        assert trace.snapshot_spans() == []


class TestSchedulerMetrics:
    def test_rejections_and_queue_depth(self, fake_compute,
                                        start_server, monkeypatch):
        import threading

        from repro.serve import jobs as jobs_module
        from repro.serve.jobs import JobManager

        gate = threading.Event()
        monkeypatch.setattr(jobs_module, "MAX_CONCURRENT_JOBS", 1)
        monkeypatch.setattr(jobs_module, "MAX_QUEUED_JOBS", 1)
        manager = JobManager(workers=1)
        try:
            blocker = threading.Event()

            def stall(self, job, workers):
                gate.set()
                blocker.wait(timeout=10.0)
                job.fail("stalled")

            original = JobManager._execute
            JobManager._execute = stall
            try:
                body = {"kernels": ["fir"], "configs": ["HET1"],
                        "variants": ["full"]}
                manager.submit_request(dict(body))
                assert gate.wait(timeout=10.0)
                manager.submit_request(dict(body))  # queued (depth 1)
                assert metrics.SCHED_QUEUE_DEPTH.value() == 1
                before = metrics.SCHED_REJECTIONS.total()
                with pytest.raises(jobs_module.BusyError):
                    manager.submit_request(dict(body))
                assert metrics.SCHED_REJECTIONS.total() == before + 1
            finally:
                JobManager._execute = original
                blocker.set()
        finally:
            manager.close()
