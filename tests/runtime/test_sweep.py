"""Spec/sweep API tests: resolution, batching, result lookup."""

import pickle

import pytest

from repro.kernels import PAPER_KERNEL_ORDER
from repro.mapping.flow import VARIANTS, FlowOptions
from repro.runtime.pool import run_sweep
from repro.runtime.sweep import (
    LATENCY_CONFIGS,
    PointSpec,
    compute_point,
    sweep_specs,
)


class TestPointSpec:
    def test_resolve_fills_variant_preset(self):
        spec = PointSpec("fir", "HET1", "acmap")
        resolved = spec.resolve()
        assert resolved.options == FlowOptions.with_acmap()
        assert resolved == PointSpec("fir", "HET1", "acmap",
                                     options=FlowOptions.with_acmap())

    def test_resolve_normalises_config_case(self):
        resolved = PointSpec("fir", "het1", "basic").resolve()
        assert resolved.config_name == "HET1"
        assert resolved == PointSpec("fir", "HET1", "basic").resolve()

    def test_resolve_is_idempotent(self):
        spec = PointSpec("fir", "HET1", "full",
                         options=FlowOptions.aware(seed=5))
        assert spec.resolve() is spec

    def test_resolve_coerces_list_cm_depths_to_tuple(self):
        # make_cgra takes lists, so callers naturally pass one; the
        # resolved spec must still be hashable (memo/dedup keys).
        resolved = PointSpec("fir", "HOM16", "full",
                             cm_depths=[16] * 16).resolve()
        assert resolved.cm_depths == (16,) * 16
        hash(resolved)

    def test_spec_is_hashable_and_picklable(self):
        spec = PointSpec("fir", "HET1", "full", cm_depths=(16,) * 16)
        assert hash(spec) == hash(pickle.loads(pickle.dumps(spec)))

    def test_build_cgra_custom_depths(self):
        spec = PointSpec("fir", "HOM16", "full", cm_depths=(16,) * 16)
        cgra = spec.build_cgra()
        assert cgra.name == "HOM16"
        assert all(cgra.cm_depth(t) == 16 for t in range(cgra.n_tiles))


class TestSweepSpecs:
    def test_full_cartesian_product(self):
        specs = sweep_specs()
        assert len(specs) == (len(PAPER_KERNEL_ORDER)
                              * len(LATENCY_CONFIGS) * len(VARIANTS))
        assert len(set(specs)) == len(specs)
        assert PointSpec("fft", "HET2", "ecmap") in specs

    def test_restricted_axes(self):
        specs = sweep_specs(kernels=("fir",), configs=("HET1",),
                            variants=("basic", "full"))
        assert [(s.kernel_name, s.config_name, s.variant)
                for s in specs] == [("fir", "HET1", "basic"),
                                    ("fir", "HET1", "full")]


class TestComputePoint:
    def test_mapped_point_carries_everything(self):
        point = compute_point(PointSpec("dc_filter", "HET1", "full"))
        assert point.mapped
        assert point.cycles > 0
        assert point.energy_uj > 0
        assert point.compile_seconds > 0
        assert point.mapping.fits
        assert point.activity.cycles == point.cycles
        assert point.movs == point.mapping.total_movs
        assert point.pnops == point.mapping.total_pnops
        assert point.tile_words == point.mapping.tile_words()
        assert point.error is None

    def test_unmappable_point_is_an_error_value(self):
        point = compute_point(
            PointSpec("dc_filter", "HOM4", "full",
                      options=FlowOptions.aware(max_attempts=2),
                      cm_depths=(4,) * 16))
        assert not point.mapped
        assert point.error == "unmappable"
        assert point.compile_seconds > 0


class TestSweepResult:
    def test_point_lookup_and_partitions(self):
        specs = [PointSpec("dc_filter", "HOM64", "basic"),
                 PointSpec("dc_filter", "HOM4", "full",
                           options=FlowOptions.aware(max_attempts=2),
                           cm_depths=(4,) * 16)]
        result = run_sweep(specs, workers=1)
        assert result.point("dc_filter", "HOM64", "basic").mapped
        assert len(result.mapped) == 1
        assert len(result.unmapped) == 1
        assert result.crashed == []
        with pytest.raises(KeyError):
            result.point("fir", "HOM64", "basic")
        assert "1 no-map" in result.summary()
