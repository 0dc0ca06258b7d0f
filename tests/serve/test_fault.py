"""Failure-path integration: dead servers, silent streams, retries.

The acceptance scenario lives here: two live servers, one killed
mid-dispatch, and the rebalanced ``run_distributed`` still merging to
exactly the local batch result.  The kill rides the ``on_receipts``
seam — invoked between the submit and stream phases — so the victim
dies at a deterministic point instead of whenever a sleep happens to
land (the CI ``serve-fault-smoke`` job covers the literal SIGKILL).

The idle-timeout regressions also live here: the old client applied
one ``timeout`` to the whole long-lived NDJSON stream read, so a
healthy-but-slow job could kill its own stream.  Now streams use a
*per-read* idle timeout that the server's keepalives reset — a slow
job survives a client timeout shorter than its runtime, while a
genuinely wedged server still trips it.
"""

import threading
import time

import pytest

from repro.runtime.pool import run_sweep
from repro.runtime.shard import sweep_json_payload
from repro.runtime.sweep import sweep_specs
from repro.serve import client as client_module
from repro.serve.client import (
    ServeClientError,
    SweepClient,
    run_distributed,
)

AXES = {"kernels": ["fir", "fft"], "configs": ["HOM64", "HET1"],
        "variants": ["basic", "full"]}

SPECS = sweep_specs(kernels=("fir", "fft"),
                    configs=("HOM64", "HET1"),
                    variants=("basic", "full"))


def points(result):
    return sweep_json_payload(result)["points"]


class TestFailover:
    def test_killed_server_rebalances_to_the_survivor(
            self, fake_compute, start_server, no_backoff):
        # Acceptance: K=2 degrades to K−1.  Server B accepts its
        # shard, then dies before the dispatcher can stream it; the
        # missing shard must be recomputed by server A and the merge
        # still equal the local batch run.
        url_a, _ = start_server()
        url_b, server_b = start_server()

        def kill_b(receipts):
            assert set(receipts) == {0, 1}  # B took its shard first
            server_b.shutdown()
            server_b.server_close()

        result, payloads = run_distributed(
            [url_a, url_b], AXES, on_receipts=kill_b)
        assert points(result) == points(run_sweep(SPECS))
        assert result.computed == len(SPECS)
        # Both shards exist and both were (re)computed by A.
        assert {payload["shard"]["index"]
                for payload in payloads} == {0, 1}

    def test_progress_recovers_across_the_failover(
            self, fake_compute, start_server, no_backoff):
        url_a, _ = start_server()
        url_b, server_b = start_server()
        seen = []

        def kill_b(receipts):
            server_b.shutdown()
            server_b.server_close()

        run_distributed(
            [url_a, url_b], AXES, on_receipts=kill_b,
            progress=lambda record, done, total, url:
            seen.append(url))
        # Every narrated record names the survivor; the dead server
        # never got to stream anything.
        assert set(seen) == {url_a}
        assert len(seen) == len(SPECS)

    def test_429_retries_without_marking_the_server_dead(
            self, fake_compute, start_server, no_backoff, monkeypatch):
        url, _ = start_server()
        original = SweepClient.submit
        calls = []

        def flaky(self, request):
            calls.append(list(request["shard"]))
            if len(calls) == 1:
                raise ServeClientError("busy", status=429,
                                       retry_after=0)
            return original(self, request)

        monkeypatch.setattr(SweepClient, "submit", flaky)
        result, _ = run_distributed([url], AXES)
        # Backpressure is not death: the bounced shard went back to
        # the same (only) server and succeeded on attempt two.
        assert calls == [[0, 1], [0, 1]]
        assert points(result) == points(run_sweep(SPECS))


class TestIdleTimeout:
    ONE = {"kernels": ["fir"], "configs": ["HOM64"],
           "variants": ["basic"]}

    def test_slow_job_outlives_a_short_idle_timeout(
            self, fake_compute, start_server, monkeypatch):
        # The regression: a job slower than the client's timeout.
        # Keepalives (sped up here) reset the per-read clock, so the
        # stream must survive a 0.3s idle timeout on a ~1s job.
        import repro.serve.server as server_module

        from repro.runtime import pool

        monkeypatch.setattr(server_module,
                            "STREAM_KEEPALIVE_SECONDS", 0.05)
        real = pool._compute_captured

        def slow(spec):
            time.sleep(1.0)  # deliberately slower than IDLE_TIMEOUT
            return real(spec)

        monkeypatch.setattr(pool, "_compute_captured", slow)
        monkeypatch.setattr(client_module, "IDLE_TIMEOUT", 0.3)
        url, _ = start_server()
        client = SweepClient(url, timeout=10.0)
        payload = client.run(self.ONE)
        assert payload["summary"]["points"] == 1

    def test_wedged_server_trips_the_idle_timeout(
            self, fake_compute, start_server, monkeypatch):
        # No keepalives and a compute that never returns: the only
        # thing standing between the client and an eternal hang is
        # the per-read idle timeout.
        import repro.serve.server as server_module

        from repro.runtime import pool

        monkeypatch.setattr(server_module,
                            "STREAM_KEEPALIVE_SECONDS", 3600.0)
        gate = threading.Event()

        def wedged(spec):
            gate.wait(timeout=30.0)
            return fake_compute(spec)

        monkeypatch.setattr(pool, "_compute_captured", wedged)
        monkeypatch.setattr(client_module, "IDLE_TIMEOUT", 0.3)
        url, _ = start_server()
        client = SweepClient(url, timeout=10.0)
        receipt = client.submit(self.ONE)
        started = time.monotonic()
        with pytest.raises(ServeClientError, match="idle timeout"):
            for _ in client.stream(receipt["id"]):
                pass
        # It tripped on idleness, not the 10s request timeout.
        assert time.monotonic() - started < 5.0
        gate.set()

    def test_regular_requests_keep_the_full_timeout(
            self, fake_compute, server_url, monkeypatch):
        # IDLE_TIMEOUT only governs streams; submit/status calls
        # still ride the regular timeout.
        monkeypatch.setattr(client_module, "IDLE_TIMEOUT", 0.2)
        client = SweepClient(server_url, timeout=10.0)
        payload = client.run(self.ONE)
        assert payload["summary"]["points"] == 1
