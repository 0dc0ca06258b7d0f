"""Streaming collection: equivalence with the batch path, progress.

The batch engine is a collector over the stream generator, so the
decisive property is that the *set* of results is identical and only
arrival order differs — a consumer that renders incrementally sees
exactly the points a blocking consumer would have seen.
"""

from repro.mapping.flow import FlowOptions
from repro.runtime import pool
from repro.runtime.cache import ResultCache
from repro.runtime.pool import run_sweep
from repro.runtime.stream import StreamUpdate, stream_specs
from repro.runtime.sweep import PointSpec

SPECS = [
    PointSpec("dc_filter", "HOM64", "basic"),
    PointSpec("dc_filter", "HET1", "full"),
    PointSpec("dc_filter", "HOM4", "full",
              options=FlowOptions.aware(max_attempts=2),
              cm_depths=(4,) * 16),
]


class TestEquivalence:
    def test_stream_matches_batch_field_by_field(self, point_fields):
        streamed = {spec: point
                    for spec, point in stream_specs(SPECS, workers=1)}
        batch_points = run_sweep(SPECS, workers=1).points
        assert len(streamed) == len(SPECS)
        for spec, batch_point in zip([s.resolve() for s in SPECS],
                                     batch_points):
            assert point_fields(streamed[spec]) \
                == point_fields(batch_point)

    def test_parallel_stream_matches_serial_stream(self, point_fields):
        serial = {spec: point_fields(point)
                  for spec, point in stream_specs(SPECS, workers=1)}
        parallel = {spec: point_fields(point)
                    for spec, point in stream_specs(SPECS, workers=3)}
        assert serial == parallel

    def test_duplicates_yield_once(self):
        spec = PointSpec("dc_filter", "HOM64", "basic")
        pairs = list(stream_specs([spec, spec, spec], workers=1))
        assert len(pairs) == 1


class TestProgress:
    def test_updates_count_up_to_total(self):
        updates = []
        pairs = list(stream_specs(SPECS, workers=1,
                                  progress=updates.append))
        assert [u.done for u in updates] == [1, 2, 3]
        assert all(u.total == len(SPECS) for u in updates)
        assert [(u.spec, u.point) for u in updates] == pairs
        assert all(isinstance(u, StreamUpdate) for u in updates)
        assert all(u.elapsed_seconds >= 0 for u in updates)

    def test_describe_is_renderable_for_every_outcome(self):
        updates = []
        list(stream_specs(SPECS, workers=1, progress=updates.append))
        for update in updates:
            line = update.describe()
            assert f"/{len(SPECS)}]" in line
            assert update.spec.kernel_name in line

    def test_cache_hits_stream_first_and_are_flagged(self, tmp_path):
        warm_spec = SPECS[0]
        cache = ResultCache(tmp_path)
        list(stream_specs([warm_spec], workers=1, cache=cache))
        updates = []
        pairs = list(stream_specs(SPECS, workers=1,
                                  cache=ResultCache(tmp_path),
                                  progress=updates.append))
        assert pairs[0][0] == warm_spec.resolve()
        assert updates[0].from_cache
        assert not any(u.from_cache for u in updates[1:])


class TestCacheProtocol:
    def test_stream_fills_the_cache_with_deterministic_outcomes(
            self, tmp_path):
        cache = ResultCache(tmp_path)
        list(stream_specs(SPECS, workers=1, cache=cache))
        # All three outcomes (two mapped, one unmappable) persist.
        assert len(cache.entries()) == len(SPECS)

    def test_captured_crash_streams_but_is_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = [PointSpec("no_such_kernel", "HOM64", "basic"),
                 PointSpec("dc_filter", "HOM64", "basic")]
        pairs = list(stream_specs(specs, workers=1, cache=cache))
        by_kernel = {spec.kernel_name: point for spec, point in pairs}
        assert "no_such_kernel" in by_kernel["no_such_kernel"].error
        assert by_kernel["dc_filter"].mapped
        assert len(cache.entries()) == 1

    def test_worker_crash_capture_under_parallelism(self):
        specs = [PointSpec("no_such_kernel", "HOM64", "basic"),
                 PointSpec("dc_filter", "HOM64", "basic")]
        pairs = list(stream_specs(specs, workers=2))
        by_kernel = {spec.kernel_name: point for spec, point in pairs}
        assert not by_kernel["no_such_kernel"].mapped
        assert by_kernel["dc_filter"].mapped


class TestMonkeypatchability:
    def test_serial_stream_routes_through_pool_compute(self,
                                                       monkeypatch):
        calls = []
        real = pool._compute_captured

        def counting(spec):
            calls.append(spec)
            return real(spec)

        monkeypatch.setattr(pool, "_compute_captured", counting)
        list(stream_specs([PointSpec("dc_filter", "HOM64", "basic")],
                          workers=1))
        assert len(calls) == 1
