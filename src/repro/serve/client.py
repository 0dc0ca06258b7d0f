"""Client for ``repro serve``: submit, stream, and fan out shards.

:class:`SweepClient` speaks to one server with nothing but
``urllib`` — submit a sweep, follow its NDJSON stream point by
point, fetch the final mergeable payload.  Two timeouts, two jobs:
``timeout`` bounds request/response calls (submit, status), while
streams use :data:`IDLE_TIMEOUT` *per read* — the server's 5-second
keepalives reset it, so a healthy-but-slow job (big exploration,
cold cache) can run for hours while a wedged or dead server still
trips the timeout within seconds.

:func:`run_distributed` is the distributed dispatch the runtime was
built toward: given *N* server URLs it submits ``shard i/N`` of the
same sweep to server *i* (the servers never talk to each other),
streams all shards concurrently, and reassembles the payloads
locally with :func:`repro.runtime.shard.merge_sweep_payloads` — the
exact function that merges ``--json`` shard *files*.  Distribution
is therefore pure composition of the PR 2 contract, and so is its
*fault tolerance*: when a server dies mid-sweep, the shard indices
it still owed are exactly the ones
:func:`~repro.runtime.shard.missing_shard_indices` reports absent
from the collected payloads, and resubmitting them to the surviving
servers (bounded retries, backoff between rounds) yields a payload
set the merge validates exactly as if nothing had died.  A fleet of
K servers degrades to K−1 instead of failing the dispatch.
"""

from __future__ import annotations

import json
import random
import threading
import time
import urllib.error
import urllib.request

from repro import chaos
from repro.errors import ReproError
from repro.obs import trace
from repro.runtime.shard import (
    merge_sweep_payloads,
    missing_shard_indices,
)

#: Per-read stream timeout (seconds), read as each stream opens.  The
#: server emits a keepalive every 5 silent seconds, so any healthy
#: stream delivers *something* well within this window; only a wedged
#: or dead server trips it.
IDLE_TIMEOUT = 60.0

#: Retry shape for the distributed dispatch, read per dispatch: how
#: often one shard may be (re)submitted, and the base inter-round
#: backoff.
MAX_ATTEMPTS = 3
BACKOFF_SECONDS = 0.5

#: Longest the dispatcher will sleep between retry rounds, however
#: large the backoff or the server's Retry-After hint.
MAX_BACKOFF_SECONDS = 30.0


def backoff_delay(round_number, backoff_seconds, retry_hint=0.0,
                  rng=None):
    """The jittered inter-round sleep for the distributed dispatcher.

    The base grows linearly with the round and is jittered over
    ``[0.5x, 1.5x]`` so a fleet of clients that all watched the same
    server die does not thunder back in lockstep the moment it
    recovers.  A ``Retry-After`` hint is a *floor* — the server asked
    for at least that much quiet, and jitter may only add to it —
    and :data:`MAX_BACKOFF_SECONDS` caps the result either way.
    ``rng`` is a 0-arg callable returning ``[0, 1)`` (tests inject a
    constant; production uses :func:`random.random`).
    """
    retry_hint = max(0.0, retry_hint or 0.0)
    if not backoff_seconds and not retry_hint:
        return 0.0
    jitter = (rng or random.random)()
    base = (backoff_seconds or 0.0) * round_number * (0.5 + jitter)
    return min(max(retry_hint, base), MAX_BACKOFF_SECONDS)


class ServeClientError(ReproError):
    """Transport or protocol failure talking to a sweep server.

    ``status`` is the HTTP status code when the server answered at
    all (``None`` for connection-level failures and failed jobs);
    ``retry_after`` carries the server's ``Retry-After`` hint on a
    429.  The distributed dispatcher classifies on these: 4xx except
    429 is fatal (the same request fails everywhere), everything
    else is retryable.
    """

    def __init__(self, message, status=None, retry_after=None):
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


def describe_record(record, done, total, origin=""):
    """One ``[done/total] kernel@config/variant ...`` progress line.

    Rebuilds the streamed record's point and renders it through the
    same :func:`~repro.runtime.stream.point_status` the local
    progress lines use, so a remote sweep narrates exactly like a
    local one; ``origin`` names the server when several stream at
    once.
    """
    from repro.runtime.stream import point_status
    from repro.runtime.sweep import point_from_json

    spec = record.get("spec", {})
    try:
        status = point_status(point_from_json(record.get("point")
                                              or {}))
    except (KeyError, TypeError):
        status = "error"  # a record we cannot parse is still a line
    source = "cache" if record.get("from_cache") else "computed"
    where = f" @ {origin}" if origin else ""
    return (f"[{done}/{total}] {spec.get('kernel')}"
            f"@{spec.get('config')}/{spec.get('variant')}: {status} "
            f"({source}{where})")


class SweepClient:
    """Talk to one ``repro serve`` instance.

    ``timeout`` bounds each non-streaming request; :data:`IDLE_TIMEOUT`
    is the per-read bound on ``/stream`` connections (urllib applies
    it to every socket operation, so each record or keepalive line
    resets the clock — a stream only times out after that long of
    genuine silence, never for being long-lived).  ``token`` is the
    server's bearer token, sent as ``Authorization: Bearer``.
    """

    def __init__(self, base_url, timeout=600.0, token=None):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.token = token or None

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _open(self, path, body=None, timeout=None):
        url = self.base_url + path
        data = None
        headers = {"Accept": "application/json"}
        if self.token is not None:
            headers["Authorization"] = f"Bearer {self.token}"
        # Propagate the active trace across the hop: the server
        # adopts the header, parents its work under our span, and
        # ships its spans back inside the finished payload.
        carrier = trace.current_carrier()
        if carrier is not None:
            headers["traceparent"] = carrier["traceparent"]
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(url, data=data,
                                         headers=headers)
        try:
            # Chaos hook: an armed http_cut fault severs this request
            # before it leaves, landing in the transport-error branch
            # below exactly like a yanked cable.
            chaos.maybe_cut_http(path)
            return urllib.request.urlopen(
                request,
                timeout=self.timeout if timeout is None else timeout)
        except urllib.error.HTTPError as error:
            detail = ""
            retry_after = None
            try:
                raw = error.headers.get("Retry-After")
                if raw is not None:
                    retry_after = float(raw)
            except (TypeError, ValueError):
                pass
            try:
                payload = json.loads(error.read().decode("utf-8"))
                detail = payload.get("error", "")
            except Exception:
                pass
            raise ServeClientError(
                f"{url}: HTTP {error.code}"
                + (f": {detail}" if detail else ""),
                status=error.code,
                retry_after=retry_after) from None
        except (urllib.error.URLError, OSError,
                TimeoutError) as error:
            raise ServeClientError(
                f"cannot reach sweep server at {url}: "
                f"{error}") from None

    def _json(self, path, body=None):
        try:
            with self._open(path, body=body) as response:
                raw = response.read().decode("utf-8")
        except ServeClientError:
            raise
        except OSError as error:
            raise ServeClientError(
                f"{self.base_url}{path}: connection lost "
                f"({error})") from None
        try:
            return json.loads(raw)
        except ValueError as error:
            raise ServeClientError(
                f"{self.base_url}{path}: not JSON "
                f"({error})") from None

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def health(self):
        return self._json("/healthz")

    def cache_stats(self):
        return self._json("/v1/cache/stats")

    def figures(self):
        return self._json("/v1/figures")["figures"]

    def jobs(self):
        return self._json("/v1/sweeps")["jobs"]

    def submit(self, request):
        """POST one sweep request; returns the submission receipt."""
        with trace.span("submit", server=self.base_url):
            return self._json("/v1/sweeps", body=request)

    def submit_exploration(self, request):
        """POST one exploration request (see ``repro.dse``)."""
        with trace.span("submit", server=self.base_url):
            return self._json("/v1/explorations", body=request)

    def explorations(self):
        return self._json("/v1/explorations")["jobs"]

    def run_exploration(self, request, progress=None):
        """Submit an exploration, stream it, return its document.

        Rides :meth:`follow` unchanged — exploration jobs stream
        through the same record log as sweeps; the receipt's
        ``points`` is the exhaustive-grid upper bound, so the stream
        may (deliberately) end before ``done == total``.
        """
        return self.follow(self.submit_exploration(request),
                           progress=progress)

    def status(self, job_id):
        return self._json(f"/v1/sweeps/{job_id}")

    def stream(self, job_id):
        """Yield the job's point records as the server lands them.

        Reads ride the *idle* timeout: urllib applies it per socket
        operation, so the server's keepalive lines reset it and a
        stream can healthily outlive it by hours — it only fires
        after :data:`IDLE_TIMEOUT` seconds of total silence, which no
        live server produces.  A trip (or a reset) surfaces as a
        :class:`ServeClientError` naming the server, never a bare
        ``TimeoutError``/``OSError`` — callers and the distributed
        dispatcher handle one exception family.
        """
        path = f"/v1/sweeps/{job_id}/stream"
        try:
            with self._open(path, timeout=IDLE_TIMEOUT) as response:
                for line in response:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        yield json.loads(line)
                    except ValueError as error:
                        raise ServeClientError(
                            f"{self.base_url}{path}: bad NDJSON "
                            f"line ({error})") from None
        except ServeClientError:
            raise
        except OSError as error:
            raise ServeClientError(
                f"{self.base_url}{path}: stream dropped or silent "
                f"beyond the {IDLE_TIMEOUT}s idle timeout "
                f"({error})") from None

    def follow(self, receipt, progress=None):
        """Stream a submitted job to completion; return its payload.

        ``progress`` is called with ``(record, done, total)`` per
        landed point.  Completion is detected by the stream closing;
        a job that *failed* (rather than finishing short-handed — a
        crashed point is still a point) raises with the server-side
        error.  The single copy of the submit-side protocol: both
        :meth:`run` and the distributed dispatcher go through here.
        """
        total = receipt["points"]
        done = 0
        for record in self.stream(receipt["id"]):
            done += 1
            if progress is not None:
                progress(record, done, total)
        status = self.status(receipt["id"])
        if status["status"] != "done":
            raise ServeClientError(
                f"{self.base_url}: job {receipt['id']} "
                f"{status['status']}: {status.get('error')}")
        payload = status["payload"]
        if isinstance(payload, dict) and payload.get("trace"):
            # The server shipped its spans home: fold them into the
            # local trace (popped — merge/compare tooling must never
            # see the additive key) without re-observing their stage
            # timings, which belong to the *server's* histograms.
            trace.ingest(payload.pop("trace"))
        return payload

    def run(self, request, progress=None):
        """Submit, follow the stream, return the final payload."""
        return self.follow(self.submit(request), progress=progress)


def _is_fatal(error):
    """Would this failure repeat on any server?

    A 4xx (other than 429) means the *request* is at fault — a typo'd
    axis fails identically everywhere, so retrying just multiplies
    the noise.  Everything else (connection death, stream silence,
    429 backpressure, 5xx, a failed job) is worth another server or
    another round.
    """
    status = getattr(error, "status", None)
    return status is not None and 400 <= status < 500 and status != 429


def run_distributed(servers, request, progress=None, timeout=600.0,
                    token=None, on_receipts=None):
    """Shard one sweep across ``servers``; merge the results locally.

    Server *i* of *N* initially receives the same request plus
    ``shard = [i, N]``, so the union of what the servers compute is
    provably the whole sweep (the sharding contract) and the merge
    validates completeness and fingerprints exactly as it does for
    shard files.  Returns ``(SweepResult, payloads)``.

    **Fault tolerance.**  After each round, the shard indices still
    missing from the collected payloads (the merge-completeness
    check, via :func:`~repro.runtime.shard.missing_shard_indices`)
    are resubmitted to the surviving servers — a server that dropped
    a connection or failed a job is excluded from reassignment; a
    server that answered ``429`` stays eligible.  Each shard is
    attempted at most :data:`MAX_ATTEMPTS` times, with a jittered
    :data:`BACKOFF_SECONDS` × round sleep between rounds (see
    :func:`backoff_delay`).  The dispatch fails only when a
    shard exhausts its attempts, no server survives, or the failure
    is the request's own fault (4xx) — and the raised
    :class:`ServeClientError` then aggregates *every* per-server
    outcome (server URL, shard index, attempt, error), not just the
    first.

    ``progress`` (called with ``(record, done, total, server_url)``)
    may interleave across servers; a retried shard restarts its part
    of the count.  ``on_receipts`` (if given) is called once with
    ``{shard_index: receipt}`` after the first round of submissions
    — an observability hook (and the test seam for killing a server
    between submit and stream).
    """
    servers = list(servers)
    if not servers:
        raise ServeClientError("no sweep servers given")
    if "shard" in (request or {}):
        raise ServeClientError(
            "'shard' is chosen by the dispatcher; submit the "
            "unsharded request")
    with trace.span("run_distributed", shards=len(servers)):
        return _run_distributed(
            servers, request, progress=progress, timeout=timeout,
            token=token, on_receipts=on_receipts)


def _run_distributed(servers, request, progress, timeout, token,
                     on_receipts):
    total_shards = len(servers)
    # Threads do not inherit the contextvar — capture the dispatch
    # span's identity here so each shard thread can adopt it.
    dispatch_carrier = trace.current_carrier()
    clients = [SweepClient(url, timeout=timeout, token=token)
               for url in servers]

    payloads = [None] * total_shards
    producers = [None] * total_shards  # url that produced payloads[i]
    attempts = [0] * total_shards
    failures = []  # every (shard, server_index, attempt, error)
    dead = set()  # server indices that dropped a dispatch
    expected = [None] * total_shards  # per-shard point counts
    landed = [0] * total_shards
    counter_lock = threading.Lock()

    def narrate(shard, url, record):
        with counter_lock:
            landed[shard] += 1
            done = sum(landed)
            total = sum(count for count in expected
                        if count is not None)
        if progress is not None:
            progress(record, done, total, url)

    def fail_dispatch(pending):
        detail = "; ".join(
            f"shard {shard} @ {servers[server]} "
            f"(attempt {attempt}): {error}"
            for shard, server, attempt, error in failures)
        raise ServeClientError(
            f"{len(pending)}/{total_shards} shard(s) undispatched "
            f"after {sum(attempts)} attempt(s) across "
            f"{total_shards} server(s) — {detail}")

    assignment = {shard: shard for shard in range(total_shards)}
    pending = list(range(total_shards))
    round_number = 0
    while pending:
        round_number += 1
        # Phase 1 — submit every pending shard before streaming any,
        # so the combined total is known up front (progress never
        # shows a falsely complete "[4/4]" while another shard is
        # still pending) and a rejected submission fails the round
        # before minutes of streaming.
        receipts = {}
        round_failures = []
        for shard in pending:
            server = assignment[shard]
            attempts[shard] += 1
            shard_request = dict(request or {})
            shard_request["shard"] = [shard, total_shards]
            try:
                receipts[shard] = clients[server].submit(
                    shard_request)
                expected[shard] = receipts[shard]["points"]
            except Exception as error:  # noqa: BLE001 — gather
                round_failures.append((shard, server, error))
        if on_receipts is not None and round_number == 1:
            on_receipts(dict(receipts))

        # Phase 2 — follow this round's streams concurrently.
        def dispatch(shard, server, receipt):
            url = servers[server]
            with counter_lock:
                landed[shard] = 0  # a retried shard recounts
            try:
                with trace.adopt(dispatch_carrier), \
                        trace.span("shard", shard=shard, server=url):
                    payloads[shard] = clients[server].follow(
                        receipt,
                        progress=lambda record, _done, _total:
                        narrate(shard, url, record))
                producers[shard] = url
            except Exception as error:  # noqa: BLE001 — any
                # dispatch failure must land in the aggregate
                # report, not kill the thread and masquerade as a
                # malformed merge later.
                round_failures.append((shard, server, error))

        threads = [threading.Thread(
            target=dispatch, args=(shard, assignment[shard], receipt),
            name=f"repro-submit-{shard}", daemon=True)
            for shard, receipt in receipts.items()]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        fatal = None
        retry_hint = 0.0
        for shard, server, error in round_failures:
            failures.append((shard, server, attempts[shard], error))
            status = getattr(error, "status", None)
            if status is None:
                # Connection-level death or a failed job: treat the
                # server as suspect for the rest of this dispatch.
                dead.add(server)
            if _is_fatal(error):
                fatal = error
            hint = getattr(error, "retry_after", None)
            if hint:
                retry_hint = max(retry_hint, float(hint))

        # Completeness — the same coverage rule the merge enforces.
        pending = missing_shard_indices(payloads, total_shards)
        if not pending:
            break
        survivors = [index for index in range(total_shards)
                     if index not in dead]
        exhausted = [shard for shard in pending
                     if attempts[shard] >= MAX_ATTEMPTS]
        if fatal is not None or not survivors or exhausted:
            fail_dispatch(pending)
        # Rebalance: the missing shards go round-robin over the
        # survivors, avoiding the server that just dropped each
        # shard whenever there is any other choice.
        for offset, shard in enumerate(pending):
            previous = assignment[shard]
            choices = [index for index in survivors
                       if index != previous] or survivors
            assignment[shard] = choices[offset % len(choices)]
        delay = backoff_delay(round_number, BACKOFF_SECONDS,
                              retry_hint)
        if delay > 0:
            time.sleep(delay)

    result = merge_sweep_payloads(
        payloads, sources=[f"shard {index} @ {producers[index]}"
                           for index in range(total_shards)])
    return result, payloads
