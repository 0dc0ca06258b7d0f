"""Suite-wide isolation from the user's environment.

The runtime reads a family of ``REPRO_*`` variables (cache directory
and cap, fault injection, tracing, logging, ledger and journal
opt-outs, point deadlines, ...).  A developer who has exported any of
them must not see spurious failures, so every inherited ``REPRO_*``
variable is dropped: once when this file loads, before the package is
imported (``REPRO_TRACE`` and ``REPRO_LOG`` are read at import), and
again before each test, so nothing one test sets leaks into the next.

The one variable set here is the cache directory: no test may ever
read or write the real ``~/.cache/repro``, so it is *redirected* to a
per-test temporary directory (deleting the variable would send
default-dir code paths, e.g. CLI commands run without
``--cache-dir``, straight to the real cache).  Tests that exercise
the env-var behaviour itself override via their own monkeypatch.
"""

import os

import pytest


def _repro_variables():
    return [name for name in os.environ if name.startswith("REPRO_")]


for _name in _repro_variables():
    del os.environ[_name]

from repro.runtime.cache import ENV_CACHE_DIR  # noqa: E402


@pytest.fixture(autouse=True)
def _isolate_repro_environment(monkeypatch, tmp_path):
    for name in _repro_variables():
        monkeypatch.delenv(name)
    monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "repro-cache"))
