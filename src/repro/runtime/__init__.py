"""Parallel experiment runtime with a persistent result cache.

The experiment drivers of :mod:`repro.eval` all reduce to the same
unit of work — one *(kernel, configuration, flow variant)* point run
through map → assemble → simulate → verify → price.  This package
turns that unit into a first-class, batchable job:

- :mod:`repro.runtime.sweep` — :class:`PointSpec` describes one point
  (including custom :class:`~repro.mapping.flow.FlowOptions` and
  custom context-memory depths for design-space exploration);
  :func:`compute_point` executes it; :func:`sweep_specs` expands
  "all kernels × all configs × all variants" into one batch.
- :mod:`repro.runtime.pool` — :func:`run_sweep`, the one batch
  collector, fans a batch out over
  ``concurrent.futures.ProcessPoolExecutor`` workers into a
  :class:`SweepResult` with deterministic result ordering and
  worker-side exception capture (an
  :class:`~repro.errors.UnmappableError` in one point never kills
  the sweep); ``workers=1`` is a plain serial loop.
- :mod:`repro.runtime.backends` — the two execution backends a
  spec's ``backend`` field picks: ``analytic`` (lockstep simulator,
  the default) and ``cycle`` (cycle-level executor).
- :mod:`repro.runtime.cache` — :class:`ResultCache` persists computed
  points as their JSON documents (:func:`point_to_json`) under
  ``~/.cache/repro/`` (override with ``REPRO_CACHE_DIR``)
  keyed by a content hash of everything that determines the result,
  with atomic writes so an interrupted run never corrupts the cache,
  plus management: size accounting, ``stats()`` and LRU-by-mtime
  eviction under a byte cap (``REPRO_CACHE_MAX_BYTES``).
- :mod:`repro.runtime.stream` — :func:`stream_specs` yields
  ``(spec, point)`` pairs *as workers finish* with
  :class:`StreamUpdate` progress callbacks, so figures and reports
  can render incrementally instead of blocking on the slowest point.
- :mod:`repro.runtime.shard` — :func:`shard_specs` deterministically
  partitions a spec list into disjoint, cost-balanced shards for
  multi-machine sweeps; JSON result payloads plus
  :func:`merge_sweep_payloads` reassemble N shard files into the one
  :class:`SweepResult` the unsharded run would have produced.

Quickstart::

    from repro.runtime import ResultCache, run_sweep, sweep_specs

    result = run_sweep(sweep_specs(), workers=4, cache=ResultCache())
    print(result.summary())

Streaming and sharding::

    from repro.runtime import shard_specs, stream_specs

    mine = shard_specs(sweep_specs(), index=0, total=4)
    for spec, point in stream_specs(mine, workers=4,
                                    cache=ResultCache()):
        print(spec.describe(), point)
"""

from repro.runtime.backends import (
    BACKENDS,
    DEFAULT_BACKEND,
    validated_backend,
)
from repro.runtime.cache import (
    ResultCache,
    default_cache_dir,
    parse_bytes,
    point_key,
)
from repro.runtime.diff import (
    DEFAULT_ABS_TOL,
    DEFAULT_REL_TOL,
    DiffResult,
    PointDiff,
    run_diff,
    validated_diff_backends,
)
from repro.runtime.pool import run_sweep
from repro.runtime.shard import (
    estimated_cost,
    load_sweep_payload,
    merge_sweep_files,
    merge_sweep_payloads,
    parse_shard,
    shard_indices,
    shard_specs,
    spec_from_json,
    spec_to_json,
    sweep_fingerprint,
    sweep_json_payload,
    sweep_result_from_payload,
)
from repro.runtime.stream import StreamUpdate, stream_specs
from repro.runtime.sweep import (
    DEFAULT_SEED,
    ExperimentPoint,
    PointSpec,
    SweepResult,
    compute_point,
    point_from_json,
    point_to_json,
    sweep_specs,
    validated_sweep_specs,
)

__all__ = [
    "BACKENDS",
    "DEFAULT_ABS_TOL",
    "DEFAULT_BACKEND",
    "DEFAULT_REL_TOL",
    "DEFAULT_SEED",
    "DiffResult",
    "ExperimentPoint",
    "PointDiff",
    "PointSpec",
    "ResultCache",
    "StreamUpdate",
    "SweepResult",
    "compute_point",
    "default_cache_dir",
    "estimated_cost",
    "load_sweep_payload",
    "merge_sweep_files",
    "merge_sweep_payloads",
    "parse_bytes",
    "parse_shard",
    "point_from_json",
    "point_key",
    "point_to_json",
    "run_diff",
    "run_sweep",
    "shard_indices",
    "shard_specs",
    "spec_from_json",
    "spec_to_json",
    "stream_specs",
    "sweep_fingerprint",
    "sweep_json_payload",
    "sweep_result_from_payload",
    "sweep_specs",
    "validated_backend",
    "validated_diff_backends",
    "validated_sweep_specs",
]
