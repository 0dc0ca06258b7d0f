"""Outside-in per-layer timers for the traced benchmark run.

Nothing under ``src/`` knows about these probes.  :func:`install`
replaces the module and class attributes the program calls *through*
with thin wrappers and :func:`uninstall` puts the originals back:

- ``mapping``: the flow's ``bind_candidates``, ``stochastic_prune``,
  ``acmap_filter``, ``ecmap_filter``, ``update_blacklist``,
  ``finalize_symbols`` and ``BindContext`` (one per block attempt);
  ``binder.try_bind``; ``routing.route_to_operand`` / ``route_to_rf``;
  ``transforms.presplit_high_fanout`` (one per block) and
  ``recompute_split`` (counted only outside ``presplit_high_fanout``,
  which calls it for its structural pre-splits);
  ``PartialMapping.clone``; ``runtime.sweep.map_kernel_for``;
- ``codegen``/``sim``/``power``/``kernels``: ``backends.assemble``,
  ``CGRASimulator.run``, ``EnergyModel.cgra_energy``,
  ``Kernel.reference``;
- ``runtime``: ``ResultCache.get`` / ``put`` and the shard JSON
  encoders ``point_to_json`` / ``sweep_json_payload``;
- ``serve``: ``jobs.resolve_request`` and the client's ``submit``,
  ``stream`` and ``status``.

Wrappers inside a point (the mapper calls some of them 10^4-10^5 times
per point) add to plain per-point counters instead of recording a
span each.  The wrapped ``pool._compute_captured`` -- the function a
pool worker calls per point -- emits those counters as the attributes
of one ``perfbench.point`` span when the point ends, so they ride home
on the traced-worker hand-off that already ships spans back from pool
workers.  Install before the pool forks its workers: forked workers
inherit the wrappers.  Counters of calls made in the measuring process
itself (cache, JSON, serve) accumulate in :attr:`Probe.local`.
"""

from __future__ import annotations

import threading
import time

POINT_SPAN = "perfbench.point"

_perf = time.perf_counter


def _bump(counters, key, value=1):
    counters[key] = counters.get(key, 0) + value


class Probe:
    """The installed wrappers and the counters they fill."""

    def __init__(self):
        #: counters of the point being computed (reset per point)
        self.point = {}
        #: counters of calls made in the measuring process
        self.local = {}
        #: per-call client latencies, seconds, by wrapper name
        self.samples = {"serve.submit": [], "serve.stream": [],
                        "serve.status": []}
        self._lock = threading.Lock()
        self._saved = []

    # -- installation --------------------------------------------------
    def _patch(self, owner, name, wrapper):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def install(self):
        from repro.codegen import assembler
        from repro.kernels.suite import Kernel
        from repro.mapping import binder, flow, routing, transforms
        from repro.mapping.state import PartialMapping
        from repro.power.energy import EnergyModel
        from repro.runtime import backends, cache, pool, shard, sweep
        from repro.serve import client, jobs
        from repro.sim.cgra import CGRASimulator

        point = self.point
        self._patch(flow, "bind_candidates",
                    _timed(point, "bind_candidates", flow.bind_candidates))
        self._patch(flow, "stochastic_prune", _filter(
            point, "stochastic_prune", flow.stochastic_prune, timed=True))
        self._patch(flow, "acmap_filter",
                    _filter(point, "acmap_filter", flow.acmap_filter))
        self._patch(flow, "ecmap_filter",
                    _filter(point, "ecmap_filter", flow.ecmap_filter))
        self._patch(flow, "update_blacklist",
                    _timed(point, "update_blacklist",
                           flow.update_blacklist))
        self._patch(flow, "finalize_symbols", _succeeding(
            point, "finalize_symbols", flow.finalize_symbols))
        self._patch(flow, "BindContext",
                    _counted(point, "block_attempts", flow.BindContext))
        self._patch(binder, "try_bind",
                    _succeeding(point, "try_bind", binder.try_bind))
        self._patch(routing, "route_to_operand", _succeeding(
            point, "route_to_operand", routing.route_to_operand,
            timed=True))
        self._patch(routing, "route_to_rf",
                    _counted(point, "route_to_rf", routing.route_to_rf))
        presplitting = []
        self._patch(transforms, "recompute_split", _recompute(
            point, transforms.recompute_split, presplitting))
        self._patch(transforms, "presplit_high_fanout", _presplit(
            point, transforms.presplit_high_fanout, presplitting))
        self._patch(PartialMapping, "clone",
                    _counted(point, "clone", PartialMapping.clone))
        self._patch(sweep, "map_kernel_for",
                    _mapper(point, sweep.map_kernel_for))
        self._patch(backends, "assemble",
                    _timed(point, "assemble", assembler.assemble))
        self._patch(CGRASimulator, "run", _simulated(point, CGRASimulator.run))
        self._patch(EnergyModel, "cgra_energy",
                    _timed(point, "cgra_energy", EnergyModel.cgra_energy))
        self._patch(Kernel, "reference",
                    _timed(point, "reference", Kernel.reference))
        self._patch(pool, "_compute_captured",
                    _point_emitter(point, pool._compute_captured))

        local, lock = self.local, self._lock
        self._patch(cache.ResultCache, "get",
                    _cache_get(local, lock, cache.ResultCache.get))
        self._patch(cache.ResultCache, "put",
                    _cache_put(local, lock, cache.ResultCache.put))
        to_json = _locked_timed(local, lock, "point_to_json",
                                shard.point_to_json)
        self._patch(shard, "point_to_json", to_json)
        self._patch(jobs, "point_to_json", to_json)
        self._patch(jobs, "sweep_json_payload", _locked_timed(
            local, lock, "sweep_json_payload", jobs.sweep_json_payload))
        self._patch(jobs, "resolve_request", _locked_timed(
            local, lock, "resolve_request", jobs.resolve_request))
        client_cls = client.SweepClient
        self._patch(client_cls, "submit",
                    _sampled(self.samples["serve.submit"],
                             client_cls.submit))
        self._patch(client_cls, "stream",
                    _sampled_stream(self.samples["serve.stream"],
                                    client_cls.stream))
        self._patch(client_cls, "status",
                    _sampled(self.samples["serve.status"],
                             client_cls.status))
        return self

    def uninstall(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reading -------------------------------------------------------
    def totals(self, spans):
        """Point counters summed over ``perfbench.point`` spans, plus
        the local ones (``*.max_s`` keys reduce by max)."""
        merged = dict(self.local)
        for span in spans:
            if span.get("name") != POINT_SPAN:
                continue
            for key, value in span["attrs"]["counters"].items():
                if key.endswith(".max_s"):
                    merged[key] = max(merged.get(key, 0.0), value)
                else:
                    _bump(merged, key, value)
        return merged


# ----------------------------------------------------------------------
# Wrapper factories.  Each closes over the counter dict it fills;
# ``Probe.point`` is cleared in place, never rebound.
# ----------------------------------------------------------------------
def _counted(counters, name, fn):
    key = name + ".calls"

    def wrapper(*args, **kwargs):
        counters[key] = counters.get(key, 0) + 1
        return fn(*args, **kwargs)
    return wrapper


def _timed(counters, name, fn):
    calls, seconds = name + ".calls", name + ".s"

    def wrapper(*args, **kwargs):
        start = _perf()
        try:
            return fn(*args, **kwargs)
        finally:
            counters[seconds] = counters.get(seconds, 0.0) + _perf() - start
            counters[calls] = counters.get(calls, 0) + 1
    return wrapper


def _succeeding(counters, name, fn, timed=False):
    """Count calls and the ones returning something other than None."""
    calls, found, seconds = name + ".calls", name + ".ok", name + ".s"

    def wrapper(*args, **kwargs):
        start = _perf() if timed else 0.0
        result = fn(*args, **kwargs)
        if timed:
            counters[seconds] = counters.get(seconds, 0.0) + _perf() - start
        counters[calls] = counters.get(calls, 0) + 1
        if result is not None:
            counters[found] = counters.get(found, 0) + 1
        return result
    return wrapper


def _filter(counters, name, fn, timed=False):
    """Count partial mappings into and out of a pruning stage."""
    entered, kept, seconds = name + ".in", name + ".out", name + ".s"

    def wrapper(partials, *args, **kwargs):
        start = _perf() if timed else 0.0
        result = fn(partials, *args, **kwargs)
        if timed:
            counters[seconds] = counters.get(seconds, 0.0) + _perf() - start
        counters[entered] = counters.get(entered, 0) + len(partials)
        counters[kept] = counters.get(kept, 0) + len(result)
        return result
    return wrapper


def _mapper(counters, fn):
    """``map_kernel_for``: wall, calls, slowest, time spent failing."""
    from repro.errors import UnmappableError

    def wrapper(*args, **kwargs):
        start = _perf()
        failed = False
        try:
            return fn(*args, **kwargs)
        except UnmappableError:
            failed = True
            raise
        finally:
            elapsed = _perf() - start
            _bump(counters, "map_kernel.s", elapsed)
            _bump(counters, "map_kernel.calls")
            counters["map_kernel.max_s"] = max(
                counters.get("map_kernel.max_s", 0.0), elapsed)
            if failed:
                _bump(counters, "map_kernel.unmappable_s", elapsed)
    return wrapper


def _presplit(counters, fn, presplitting):
    """``presplit_high_fanout``, called once per block: count blocks,
    and flag the recompute splits it makes while it runs."""
    def wrapper(*args, **kwargs):
        _bump(counters, "blocks.calls")
        presplitting.append(True)
        try:
            return fn(*args, **kwargs)
        finally:
            presplitting.pop()
    return wrapper


def _recompute(counters, fn, presplitting):
    """``recompute_split``: count the splits the flow makes after a
    failed binding, not the structural pre-splits of
    ``presplit_high_fanout``."""
    def wrapper(*args, **kwargs):
        if not presplitting:
            _bump(counters, "recompute_split.calls")
        return fn(*args, **kwargs)
    return wrapper


def _simulated(counters, fn):
    """``CGRASimulator.run``: host seconds and the cycles simulated."""
    def wrapper(self):
        start = _perf()
        run = fn(self)
        _bump(counters, "sim_run.s", _perf() - start)
        _bump(counters, "sim_run.cycles", run.cycles)
        return run
    return wrapper


def _point_emitter(counters, fn):
    """The per-point compute entry: ship the point's counters home."""
    from repro.obs import trace

    def wrapper(spec):
        counters.clear()
        try:
            return fn(spec)
        finally:
            with trace.span(POINT_SPAN, spec=spec.describe(),
                            counters=dict(counters)):
                pass
            counters.clear()
    return wrapper


def _locked_timed(counters, lock, name, fn):
    def wrapper(*args, **kwargs):
        start = _perf()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = _perf() - start
            with lock:
                _bump(counters, name + ".s", elapsed)
                _bump(counters, name + ".calls")
    return wrapper


def _cache_get(counters, lock, fn):
    def wrapper(self, key):
        start = _perf()
        payload = fn(self, key)
        elapsed = _perf() - start
        size = self.path_for(key).stat().st_size if payload is not None \
            else 0
        with lock:
            _bump(counters, "cache_get.s", elapsed)
            _bump(counters, "cache_get.calls")
            if payload is not None:
                _bump(counters, "cache_get.hits")
                _bump(counters, "cache_get.bytes", size)
        return payload
    return wrapper


def _cache_put(counters, lock, fn):
    def wrapper(self, key, payload):
        start = _perf()
        path = fn(self, key, payload)
        elapsed = _perf() - start
        size = path.stat().st_size
        with lock:
            _bump(counters, "cache_put.s", elapsed)
            _bump(counters, "cache_put.calls")
            _bump(counters, "cache_put.bytes", size)
        return path
    return wrapper


def _sampled(samples, fn):
    def wrapper(*args, **kwargs):
        start = _perf()
        try:
            return fn(*args, **kwargs)
        finally:
            samples.append(_perf() - start)
    return wrapper


def _sampled_stream(samples, fn):
    """A generator method: time from the call to its exhaustion."""
    def wrapper(*args, **kwargs):
        start = _perf()
        try:
            yield from fn(*args, **kwargs)
        finally:
            samples.append(_perf() - start)
    return wrapper
