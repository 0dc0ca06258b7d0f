"""Parallel engine tests: determinism, exception capture, caching.

The equivalence test is the load-bearing one: a figure's points
computed with ``workers=1`` (plain serial loop, no pickling) and
``workers=4`` (process pool) must agree field-by-field, proving that
a point's result is a pure function of its spec no matter which
process computes it.
"""


from repro.mapping.flow import FlowOptions
from repro.runtime import pool
from repro.runtime.cache import ResultCache
from repro.runtime.pool import run_sweep
from repro.runtime.sweep import PointSpec

#: A small figure's worth of points: the dc_filter column of the
#: latency figures (baseline + three variants), plus one point that
#: cannot map (4-word context memories) to prove failure capture.
FIGURE_SPECS = [
    PointSpec("dc_filter", "HOM64", "basic"),
    PointSpec("dc_filter", "HET1", "acmap"),
    PointSpec("dc_filter", "HET1", "full"),
    PointSpec("dc_filter", "HOM32", "full"),
    PointSpec("dc_filter", "HOM4", "full",
              options=FlowOptions.aware(max_attempts=2),
              cm_depths=(4,) * 16),
]


class TestEquivalence:
    def test_parallel_matches_serial_field_by_field(self, point_fields):
        serial = run_sweep(FIGURE_SPECS, workers=1).points
        parallel = run_sweep(FIGURE_SPECS, workers=4).points
        assert len(serial) == len(parallel) == len(FIGURE_SPECS)
        for left, right in zip(serial, parallel):
            assert point_fields(left) == point_fields(right)
        # The unmappable point failed identically on both paths.
        assert serial[-1].error == "unmappable"
        assert parallel[-1].error == "unmappable"


class TestExceptionCapture:
    def test_broken_point_does_not_kill_the_sweep(self):
        specs = [
            PointSpec("dc_filter", "HOM64", "basic"),
            PointSpec("no_such_kernel", "HOM64", "basic"),
            PointSpec("dc_filter", "HET1", "full"),
        ]
        points = run_sweep(specs, workers=2).points
        assert points[0].mapped
        assert points[2].mapped
        assert not points[1].mapped
        assert "no_such_kernel" in points[1].error

    def test_captured_crash_is_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = [PointSpec("no_such_kernel", "HOM64", "basic"),
                 PointSpec("dc_filter", "HOM64", "basic")]
        run_sweep(specs, workers=1, cache=cache)
        # Only the deterministic outcome was persisted.
        assert len(cache.entries()) == 1
        warm = ResultCache(tmp_path)
        result = run_sweep(specs, workers=1, cache=warm)
        assert result.cache_hits == 1
        assert result.points[1].mapped


class TestOrderingAndDedup:
    def test_results_follow_spec_order(self):
        specs = [
            PointSpec("dc_filter", "HET1", "full"),
            PointSpec("dc_filter", "HOM64", "basic"),
            PointSpec("dc_filter", "HET1", "basic"),
        ]
        points = run_sweep(specs, workers=3).points
        got = [(p.config_name, p.variant) for p in points]
        assert got == [("HET1", "full"), ("HOM64", "basic"),
                       ("HET1", "basic")]

    def test_duplicates_computed_once(self, monkeypatch):
        calls = []
        real = pool._compute_captured

        def counting(spec):
            calls.append(spec)
            return real(spec)

        monkeypatch.setattr(pool, "_compute_captured", counting)
        spec = PointSpec("dc_filter", "HOM64", "basic")
        points = run_sweep([spec, spec, spec], workers=1).points
        assert len(calls) == 1
        assert points[0] is points[1] is points[2]


class TestCacheIntegration:
    def test_warm_run_computes_nothing(self, tmp_path, monkeypatch,
                                       point_fields):
        specs = FIGURE_SPECS[:3]
        cold = ResultCache(tmp_path)
        cold_result = run_sweep(specs, workers=1, cache=cold)
        assert cold_result.cache_hits == 0
        assert cold.stores == len(specs)

        def explode(_spec):  # pragma: no cover — must never run
            raise AssertionError("warm run re-computed a point")

        monkeypatch.setattr(pool, "_compute_captured", explode)
        warm = ResultCache(tmp_path)
        warm_result = run_sweep(specs, workers=1, cache=warm)
        assert warm_result.cache_hits == len(specs)
        for left, right in zip(cold_result, warm_result):
            assert point_fields(left) == point_fields(right)

    def test_run_sweep_summary_counts(self, tmp_path):
        specs = FIGURE_SPECS[:2]
        cache = ResultCache(tmp_path)
        cold = run_sweep(specs, workers=1, cache=cache)
        assert cold.cache_hits == 0
        assert cold.computed == 2
        warm = run_sweep(specs, workers=1, cache=ResultCache(tmp_path))
        assert warm.cache_hits == 2
        assert warm.computed == 0
        assert "0 computed" in warm.summary()
