"""The ``repro serve`` HTTP front end (stdlib only).

A :class:`ThreadingHTTPServer` exposing the sweep runtime:

- ``POST /v1/sweeps`` — submit a sweep (axes, explicit specs, a
  figure name, optionally one ``shard i/N`` slice); returns ``202``
  with the job id and its stream URL.
- ``POST /v1/explorations`` — submit a design-space exploration
  (space/depths/kernels/strategy/budget/objectives — see
  :mod:`repro.dse`); same ``202`` receipt shape.
- ``GET /v1/sweeps`` / ``GET /v1/explorations`` — status snapshots
  of that kind's jobs, plus how many finished jobs the retention
  policy has evicted.
- ``GET /v1/sweeps/{id}`` — one job: queued/running/done/failed,
  points landed, cache hits — plus the full JSON payload once done
  (mergeable sweep payload, or the exploration document).  Job ids
  are unique across kinds and either path resolves either kind.
- ``GET /v1/sweeps/{id}/stream`` — NDJSON, one landed point per line
  (``pos``/``spec``/``point``/``from_cache``) as workers finish,
  cache hits first; the connection closes when the job ends.
- ``GET /v1/cache/stats`` — the shared :class:`ResultCache` counters.
- ``GET /v1/figures`` — servable figure names with point counts.
- ``GET /healthz`` — liveness plus uptime, package version, requests
  served, job-state totals and evictions.
- ``GET /metrics`` — the process's metrics registry in Prometheus
  text exposition format (see :mod:`repro.obs.metrics`).
- ``GET /dashboard`` — the read-only watchtower HTML (ledger trends,
  live span analysis, metrics snapshot; see :mod:`repro.obs.report`).

Responses are JSON; errors are ``{"error": ...}`` with the matching
status code (400 bad submission, 401 bad/missing token, 404 unknown
job/route, 429 queue full — with a ``Retry-After`` hint).  The
server binds ``127.0.0.1`` by default; binding any other interface
requires a bearer token (``--token`` / ``$REPRO_SERVE_TOKEN``),
checked on every endpoint except ``/healthz``, ``/metrics`` and
``/dashboard`` with a constant-time compare — probes and scrapers hold no credentials,
and both bodies carry counters, not results.  Every sweep the server
computes lands in the same persistent cache the CLI uses, so serving
and local runs warm each other.

Access logs go through the structured logger (``repro.serve``
component, one ``request`` event per answered request with method /
path / status) instead of raw stderr writes — ``REPRO_LOG`` levels
and ``:json`` formatting apply; ``quiet`` suppresses them.  A
``traceparent`` header on a submission is adopted as the job's trace
context: its spans stitch into the caller's trace and ride back on
the finished payload (see :mod:`repro.obs.trace`).
"""

from __future__ import annotations

import hmac
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

import repro
from repro.errors import ReproError
from repro.obs import get_logger, metrics, trace
from repro.serve import jobs
from repro.serve.jobs import (
    BusyError,
    JobManager,
    RequestError,
    UnknownJobError,
)

_log = get_logger("repro.serve")

#: Largest accepted request body, read per request; a spec list is
#: small, so anything bigger is a mistake (or not a sweep submission
#: at all).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Hosts a tokenless server may bind.  Anything else is reachable by
#: other machines and requires authentication.
LOOPBACK_HOSTS = ("127.0.0.1", "localhost", "::1")

#: Blank keepalive line on ``/stream`` after this many silent
#: seconds, so client read timeouts never fire on a healthy but
#: queued (or slowly computing) job.  Kept well under any sane
#: client timeout — a client whose read timeout is below this value
#: would drop healthy streams (``repro submit --timeout`` must
#: exceed it).
STREAM_KEEPALIVE_SECONDS = 5.0


class SweepServer(ThreadingHTTPServer):
    """HTTP server owning one :class:`JobManager`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, manager, quiet=False, token=None):
        self.manager = manager
        self.quiet = quiet
        self.token = token or None
        self.started = time.time()
        self.requests_total = 0
        self._requests_lock = threading.Lock()
        super().__init__(address, SweepHandler)

    def note_request(self):
        """Count one answered request (handler threads race here)."""
        with self._requests_lock:
            self.requests_total += 1

    @property
    def uptime_seconds(self):
        return time.time() - self.started

    def server_close(self):
        super().server_close()
        self.manager.close()


def make_server(host="127.0.0.1", port=0, workers=1, cache=None,
                quiet=False, token=None, journal=None,
                point_timeout=None, resume=False):
    """Build a ready-to-serve :class:`SweepServer`.

    ``port=0`` binds an ephemeral port (read it back from
    ``server.server_address``) — what the tests and any
    port-allocating supervisor use.  Job retention, scheduling and
    request limits are the constants of :mod:`repro.serve.jobs`.

    ``journal`` is a :class:`~repro.serve.journal.JobJournal` (or
    None: no durability) the manager records job transitions to;
    ``resume=True`` replays it before the socket binds, requeueing
    whatever a killed predecessor left queued or running under the
    original job IDs.  ``point_timeout`` arms the per-point deadline
    on every sweep job.

    ``token`` enables bearer-token auth; a ``host`` outside
    :data:`LOOPBACK_HOSTS` is refused without one — an open,
    unauthenticated compute endpoint on a routable interface is a
    misconfiguration, not a default.
    """
    if token is None and host not in LOOPBACK_HOSTS:
        raise ReproError(
            f"refusing to bind {host!r} without authentication: "
            f"pass a token (repro serve --token / "
            f"$REPRO_SERVE_TOKEN) to serve beyond loopback")
    manager = JobManager(workers=workers, cache=cache,
                         journal=journal, point_timeout=point_timeout)
    try:
        if resume:
            manager.resume_from_journal()
        return SweepServer((host, port), manager, quiet=quiet,
                           token=token)
    except BaseException:
        # Bind failures must not leak the manager's runner threads
        # (callers probing ports in a loop would pile them up).
        manager.close()
        raise


class SweepHandler(BaseHTTPRequestHandler):
    """Routes requests to the job manager; JSON in, JSON out."""

    server_version = "repro-serve"

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def log_message(self, format, *args):  # noqa: A002 — stdlib name
        # The stdlib's catch-all (bad request lines, socket errors).
        # Routed through the structured logger so nothing the HTTP
        # layer has to say ever bypasses REPRO_LOG; ``quiet``
        # silences it like the old bare stderr writes.
        if not self.server.quiet:
            _log.warning("http", client=self.address_string(),
                         detail=format % args)

    def log_request(self, code="-", size="-"):
        """One access-log event + counters per answered request.

        ``send_response`` calls this exactly once per response, which
        makes it the single choke point for the request counter, the
        ``repro_http_requests_total`` metric and the structured
        access log (suppressed by ``quiet``, like the old stderr
        lines — but emitted, never silently discarded, otherwise).
        """
        try:
            status = int(code)
        except (TypeError, ValueError):
            status = 0
        self.server.note_request()
        metrics.HTTP_REQUESTS.inc(method=self.command or "?",
                                  code=status or "?")
        if not self.server.quiet:
            _log.info("request", client=self.address_string(),
                      method=self.command, path=self.path,
                      status=status)

    def _send_json(self, body, status=200, headers=None):
        data = (json.dumps(body, separators=(",", ":"))
                + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def _send_error_json(self, status, message, headers=None):
        self._send_json({"error": message}, status=status,
                        headers=headers)

    def _authorized(self):
        """Bearer-token check, constant-time, tokenless = open.

        ``hmac.compare_digest`` over the whole header keeps the
        comparison independent of where a forged token first
        diverges — a plain ``==`` would let a caller binary-search
        the token one byte of timing at a time.
        """
        token = self.server.token
        if token is None:
            return True
        supplied = self.headers.get("Authorization") or ""
        expected = f"Bearer {token}"
        return hmac.compare_digest(supplied.encode("utf-8"),
                                   expected.encode("utf-8"))

    def _send_auth_required(self):
        self._send_error_json(
            401, "missing or invalid bearer token (send "
                 "'Authorization: Bearer <token>')",
            headers={"WWW-Authenticate": "Bearer"})

    def _read_body(self):
        if self.headers.get("Transfer-Encoding") is not None:
            # http.server never dechunks; reading Content-Length 0
            # here would silently drop the body — and an empty body
            # resolves to the full default sweep.
            raise RequestError(
                "chunked request bodies are not supported; send "
                "Content-Length")
        raw_length = self.headers.get("Content-Length")
        if raw_length is None:
            raise RequestError(
                "POST requires a Content-Length header (an absent "
                "body would silently submit the default sweep)")
        try:
            length = int(raw_length)
        except ValueError:
            raise RequestError("bad Content-Length header") from None
        if length < 0:
            # read(-1) would mean "until EOF" — a handler thread
            # parked on a held-open socket, not a 400.
            raise RequestError("bad Content-Length header")
        if length > MAX_BODY_BYTES:
            raise RequestError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit")
        raw = self.rfile.read(length) if length else b""
        if not raw.strip():
            # Content-Length: 0 (a forgotten body) must not resolve
            # to {} and silently submit the full default sweep —
            # requesting it takes an explicit `{}`.
            raise RequestError(
                "empty request body; send a JSON object ({} "
                "explicitly requests the full default sweep)")
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as error:
            raise RequestError(
                f"request body is not JSON: {error}") from None

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def do_GET(self):
        path = urlsplit(self.path).path.rstrip("/") or "/"
        try:
            if path == "/healthz":
                # Liveness stays open even behind a token: a load
                # balancer probing health holds no credentials, and
                # the body carries counters, not results.
                return self._get_health()
            if path == "/metrics":
                # Open for the same reason: scrapers are probes.
                return self._get_metrics()
            if path == "/dashboard":
                # Read-only HTML over the same counters /metrics and
                # /healthz already expose — open for the same reason.
                return self._get_dashboard()
            if not self._authorized():
                return self._send_auth_required()
            if path == "/v1/cache/stats":
                return self._get_cache_stats()
            if path == "/v1/figures":
                return self._get_figures()
            if path == "/v1/sweeps":
                return self._list_jobs("sweep")
            if path == "/v1/explorations":
                return self._list_jobs("exploration")
            parts = path.split("/")
            if len(parts) == 4 and parts[1] == "v1" \
                    and parts[2] in ("sweeps", "explorations"):
                return self._get_job(parts[3])
            if len(parts) == 5 and parts[1] == "v1" \
                    and parts[2] in ("sweeps", "explorations") \
                    and parts[4] == "stream":
                return self._stream_job(parts[3])
            return self._send_error_json(
                404, f"no such endpoint: GET {path}")
        except UnknownJobError as error:
            return self._send_error_json(404, str(error))
        except (BrokenPipeError, ConnectionResetError):
            return  # client went away mid-response; nothing to do
        except Exception as error:  # noqa: BLE001 — last resort:
            # an unexpected bug must answer 500, not silently drop
            # the connection (which reads as a transport failure).
            return self._send_internal_error(error)

    def do_POST(self):
        path = urlsplit(self.path).path.rstrip("/")
        try:
            if not self._authorized():
                return self._send_auth_required()
            if path == "/v1/sweeps":
                return self._post_sweep()
            if path == "/v1/explorations":
                return self._post_exploration()
            return self._send_error_json(
                404, f"no such endpoint: POST {path}")
        except BusyError as error:
            # Backpressure, not failure: the queue is at its bound,
            # so the client should retry (here, or on a sibling
            # server) instead of piling more work on.
            return self._send_json(
                {"error": str(error),
                 "retry_after": error.retry_after},
                status=429,
                headers={"Retry-After": str(int(error.retry_after))})
        except RequestError as error:
            return self._send_error_json(400, str(error))
        except (BrokenPipeError, ConnectionResetError):
            return
        except Exception as error:  # noqa: BLE001 — see do_GET
            return self._send_internal_error(error)

    def _send_internal_error(self, error):
        try:
            self._send_error_json(
                500, f"internal error: {type(error).__name__}: "
                     f"{error}")
        except OSError:
            pass  # response already underway or socket gone

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def _get_health(self):
        manager = self.server.manager
        self._send_json({
            "status": "ok",
            # A fleet probe telling a fresh restart from a long-lived
            # server needs uptime + version + traffic, not just "ok".
            "uptime_seconds": round(self.server.uptime_seconds, 3),
            "version": repro.__version__,
            "requests_total": self.server.requests_total,
            "workers": manager.workers,
            "cache": manager.cache is not None,
            "jobs": manager.counts(),
            "evicted": manager.evicted,
            "auth": self.server.token is not None,
            "scheduler": {
                "max_concurrent_jobs": jobs.MAX_CONCURRENT_JOBS,
                "max_queued_jobs": jobs.MAX_QUEUED_JOBS,
                "queued": manager.queue_depth(),
                "workers_free": manager.pool.free,
            },
            # Durability: whether a journal is armed, where it
            # writes, and — after a --resume boot — what the replay
            # recovered, so an operator can see at a glance that the
            # restart picked the orphans up.
            "journal": None if manager.journal is None else {
                "path": str(manager.journal.path),
                "write_errors": manager.journal.write_errors,
                "replay": manager.replay_stats,
            },
        })

    def _list_jobs(self, kind):
        manager = self.server.manager
        self._send_json({
            "jobs": manager.list_jobs(kind=kind),
            "evicted": manager.evicted,
        })

    def _get_metrics(self):
        """The Prometheus text exposition of the default registry."""
        cache = self.server.manager.cache
        if cache is not None:
            # Refresh the on-disk gauges (entries/bytes/orphaned) at
            # scrape time so /metrics never lags /v1/cache/stats.
            cache.stats()
        body = metrics.REGISTRY.render().encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type",
                         "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _get_dashboard(self):
        """The watchtower dashboard rendered over live server state."""
        from repro.obs import analyze, report
        from repro.perf import ledger

        cache = self.server.manager.cache
        cache_stats = cache.stats() if cache is not None else None
        cache_dir = cache.directory if cache is not None else None
        entries, _skipped = ledger.read_ledger(
            ledger.ledger_path(cache_dir))
        analysis = None
        try:
            spans = trace.snapshot_spans()
            if spans:
                analysis = analyze.analyze_spans(spans)
        except ReproError:
            pass
        body = report.render_report(
            ledger_entries=entries,
            analysis=analysis,
            metrics_text=metrics.REGISTRY.render(),
            cache_stats=cache_stats,
        ).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "text/html; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _get_cache_stats(self):
        cache = self.server.manager.cache
        if cache is None:
            return self._send_json({"enabled": False})
        self._send_json({"enabled": True, **cache.stats()})

    def _get_figures(self):
        from repro.eval.experiments import servable_figures
        self._send_json({"figures": servable_figures()})

    def _trace_carrier(self):
        """The request's trace carrier, or None when untraced."""
        header = self.headers.get("traceparent")
        return {"traceparent": header} if header else None

    def _post_sweep(self):
        body = self._read_body()
        with trace.adopt(self._trace_carrier()), \
                trace.span("http:POST /v1/sweeps") as active:
            # The job inherits the *handler* span's context, so its
            # spans — recorded minutes later by a runner thread —
            # stitch under this request in the caller's trace.
            job = self.server.manager.submit_request(
                body, trace_carrier=trace.current_carrier())
            active.set(job_id=job.id)
        self._send_receipt(job, "sweeps")

    def _post_exploration(self):
        body = self._read_body()
        with trace.adopt(self._trace_carrier()), \
                trace.span("http:POST /v1/explorations") as active:
            job = self.server.manager.submit_exploration_request(
                body, trace_carrier=trace.current_carrier())
            active.set(job_id=job.id)
        self._send_receipt(job, "explorations")

    def _send_receipt(self, job, collection):
        # The receipt IS a status snapshot (plus navigation), so the
        # 202 body and GET /v1/{collection}/{id} can never drift
        # apart.
        self._send_json({
            **job.snapshot(),
            "url": f"/v1/{collection}/{job.id}",
            "stream": f"/v1/{collection}/{job.id}/stream",
        }, status=202)

    def _get_job(self, job_id):
        job = self.server.manager.get(job_id)
        snapshot = job.snapshot()
        if snapshot["status"] == "done":
            snapshot["payload"] = job.payload
        self._send_json(snapshot)

    def _stream_job(self, job_id):
        """NDJSON replay of the job's records, then live tail."""
        job = self.server.manager.get(job_id)
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Connection", "close")
        self.end_headers()
        try:
            for record in job.iter_records(
                    heartbeat=STREAM_KEEPALIVE_SECONDS):
                if record is None:  # idle tick -> blank keepalive
                    self.wfile.write(b"\n")
                else:
                    line = json.dumps(record, separators=(",", ":"))
                    self.wfile.write(line.encode("utf-8") + b"\n")
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            return  # the reader hung up; the job carries on
