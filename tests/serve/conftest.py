"""Shared fixtures for the serve test suite.

Servers run on an ephemeral port (``port=0``) inside a
``serve_forever`` thread and are shut down by the fixture — no fixed
ports, no sleeps: readiness is "the socket is bound before the
fixture returns", and test synchronisation rides the job/stream
condition variables, never wall-clock waits.

``fake_compute`` swaps the worker entry point for a deterministic
microsecond-scale stand-in, which reaches the in-process server
because the manager's ``workers=1`` path computes inline (module
attribute lookup — the same seam every other runtime suite patches).
Integration tests that want the *real* mapping pipeline simply don't
request the fixture.
"""

import threading

import pytest

from repro.power.energy import EnergyBreakdown
from repro.runtime.sweep import ExperimentPoint
from repro.serve.client import SweepClient
from repro.serve.server import make_server


def fake_point(spec):
    """A deterministic synthetic result for one resolved spec."""
    spec = spec.resolve()
    signature = sum(ord(ch) for ch in spec.describe())
    if spec.config_name == "HOM32" and spec.variant == "basic":
        # A reproducible "zero bar", so suites see unmapped points.
        return ExperimentPoint(
            spec.kernel_name, spec.config_name, spec.variant,
            compile_seconds=0.0, error="context overflow")
    return ExperimentPoint(
        spec.kernel_name, spec.config_name, spec.variant,
        compile_seconds=0.0, cycles=100 + signature % 900,
        energy=EnergyBreakdown({"alu": 1000.0 + signature,
                                "cm": 250.0}),
        mapped=True)


@pytest.fixture
def fake_compute(monkeypatch):
    """Replace the worker entry point with :func:`fake_point`."""
    from repro.runtime import pool

    monkeypatch.setattr(pool, "_compute_captured", fake_point)
    return fake_point


@pytest.fixture
def no_backoff(monkeypatch):
    """Run the distributed dispatch's retry rounds without sleeping."""
    from repro.serve import client

    monkeypatch.setattr(client, "BACKOFF_SECONDS", 0)


@pytest.fixture
def start_server():
    """Factory: boot a serve instance, return ``(url, server)``.

    Every server this factory starts is shut down after the test,
    jobs manager included.
    """
    running = []

    def _start(cache=None, workers=1, **kwargs):
        server = make_server(host="127.0.0.1", port=0,
                             workers=workers, cache=cache, quiet=True,
                             **kwargs)
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        running.append((server, thread))
        host, port = server.server_address[:2]
        return f"http://{host}:{port}", server

    yield _start
    for server, thread in running:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)


@pytest.fixture
def server_url(start_server):
    """One cache-less server's base URL."""
    url, _ = start_server()
    return url


@pytest.fixture
def client(server_url):
    return SweepClient(server_url, timeout=30.0)
