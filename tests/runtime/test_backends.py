"""Unit tests for the two execution backends' plumbing.

The contract: named, validated, cache-key-perturbing backends behind
the one ``PointSpec -> ExperimentPoint`` signature.  The differential
*behaviour* of the two backends is covered by
``tests/property/test_differential.py`` and the golden snapshots;
here we test the plumbing — name validation and its diagnostics, axis
threading, cache keys and payload round-trips.
"""

import dataclasses
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.errors import ReproError
from repro.runtime.backends import (
    BACKENDS,
    DEFAULT_BACKEND,
    validated_backend,
)
from repro.runtime.cache import point_key, spec_payload
from repro.runtime.shard import (
    point_from_json,
    point_to_json,
    spec_from_json,
    spec_to_json,
)
from repro.runtime.sweep import (
    PointSpec,
    compute_point,
    sweep_specs,
    validated_sweep_specs,
)

SPEC = PointSpec("dc_filter", "HOM64", "basic")


class TestRegistry:
    def test_both_seed_backends_registered(self):
        assert BACKENDS == ("analytic", "cycle")
        assert DEFAULT_BACKEND == "analytic"

    def test_unknown_backend_names_the_valid_set(self):
        with pytest.raises(ReproError, match="analytic, cycle"):
            validated_backend("sat")

    def test_validated_backend_defaults_none(self):
        assert validated_backend(None) == DEFAULT_BACKEND
        assert validated_backend("cycle") == "cycle"
        with pytest.raises(ReproError, match="unknown backend"):
            validated_backend("typo")


class TestSpecAxis:
    def test_default_backend_on_plain_specs(self):
        assert SPEC.backend == DEFAULT_BACKEND
        assert SPEC.resolve().backend == DEFAULT_BACKEND

    def test_resolve_fills_in_the_default_backend(self):
        unnamed = dataclasses.replace(SPEC, backend=None)
        assert unnamed.resolve() == SPEC.resolve()

    def test_resolve_validates_the_backend(self):
        bad = dataclasses.replace(SPEC, backend="typo")
        with pytest.raises(ReproError, match="unknown backend"):
            bad.resolve()

    def test_describe_tags_non_default_backends_only(self):
        assert "#" not in SPEC.describe()
        tagged = dataclasses.replace(SPEC, backend="cycle")
        assert tagged.describe().endswith("#cycle")

    def test_backend_perturbs_the_cache_key(self):
        assert point_key(SPEC) != point_key(
            dataclasses.replace(SPEC, backend="cycle"))

    def test_backend_in_spec_payload_and_json_roundtrip(self):
        spec = dataclasses.replace(SPEC, backend="cycle").resolve()
        payload = spec_payload(spec)
        assert payload["backend"] == "cycle"
        assert spec_from_json(spec_to_json(spec)) == spec

    def test_payloads_without_backend_default(self):
        # Schema-2 shard files predate the axis; reading one must
        # yield default-backend specs, not crash.
        data = spec_to_json(SPEC.resolve())
        del data["backend"]
        assert spec_from_json(data).backend == DEFAULT_BACKEND

    def test_sweep_specs_thread_the_axis(self):
        specs = sweep_specs(kernels=("fir",), configs=("HOM64",),
                            variants=("basic",), backend="cycle")
        assert [spec.backend for spec in specs] == ["cycle"]

    def test_validated_sweep_specs_reject_unknown_backend(self):
        with pytest.raises(ReproError, match="unknown backend"):
            validated_sweep_specs(kernels=("fir",), backend="typo")

    def test_validated_sweep_specs_default_backend(self):
        specs = validated_sweep_specs(kernels=("fir",),
                                      configs=("HOM64",),
                                      variants=("basic",))
        assert specs[0].backend == DEFAULT_BACKEND


class TestDispatch:
    def test_compute_point_dispatches_to_the_named_backend(self):
        analytic = compute_point(PointSpec("dc_filter", "HOM64",
                                           "basic"))
        cycle = compute_point(PointSpec("dc_filter", "HOM64", "basic",
                                        backend="cycle"))
        assert analytic.mapped and cycle.mapped
        # Identical outputs, measured cycles never above analytic.
        assert analytic.output_digest == cycle.output_digest
        assert cycle.cycles <= analytic.cycles

    def test_each_backend_runs_its_own_engine(self, monkeypatch):
        # One function serves both names; the differential checks
        # above would still pass if both reached the same engine.
        from repro.sim.cgra import CGRASimulator
        from repro.sim.executor import CycleExecutor

        ran = []
        for name, engine in (("analytic", CGRASimulator),
                             ("cycle", CycleExecutor)):
            def run(self, _run=engine.run, _name=name):
                ran.append(_name)
                return _run(self)

            monkeypatch.setattr(engine, "run", run)
        for name in BACKENDS:
            point = compute_point(dataclasses.replace(SPEC,
                                                      backend=name))
            assert point.mapped
        assert ran == list(BACKENDS)

    def test_importing_the_backends_loads_neither_engine(self):
        probe = ("import sys, repro.runtime.backends; "
                 "print(sorted(m for m in sys.modules "
                 "if m in ('repro.sim.cgra', 'repro.sim.executor')))")
        source = pathlib.Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(source))
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True,
                              timeout=120, check=True)
        assert done.stdout.strip() == "[]"

    def test_unmappable_outcome_is_backend_independent(self):
        # fft needs more context than an 8-word CM offers; both
        # backends share the mapping front half, so both must report
        # the identical deterministic outcome.
        depths = (8,) * 16
        points = [compute_point(PointSpec("fft", "cm8", "full",
                                          cm_depths=depths,
                                          backend=name))
                  for name in ("analytic", "cycle")]
        assert points[0].error == points[1].error
        assert points[0].error in ("unmappable", "context overflow")

    def test_output_digest_survives_the_point_json_roundtrip(self):
        point = compute_point(PointSpec("dc_filter", "HOM64", "basic",
                                        backend="cycle"))
        rebuilt = point_from_json(point_to_json(point))
        assert rebuilt.output_digest == point.output_digest
        assert rebuilt.cycles == point.cycles
