"""Sharding invariants and the shard-merge path.

The property tests are the load-bearing ones: for *any* spec list and
*any* shard count, the shards must partition the list (pairwise
disjoint, union exactly the input) and the assignment must be a
function of the spec multiset alone — re-ordering the input cannot
move a spec to a different shard.  That is what lets N machines build
the same sweep independently and each take a slice without
coordinating.
"""

import collections

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.mapping.flow import VARIANTS, FlowOptions
from repro.runtime.cache import ResultCache
from repro.runtime.pool import run_sweep
from repro.runtime.shard import (
    SWEEP_JSON_SCHEMA,
    estimated_cost,
    merge_sweep_files,
    merge_sweep_payloads,
    parse_shard,
    point_from_json,
    point_to_json,
    shard_indices,
    shard_specs,
    spec_from_json,
    spec_to_json,
    sweep_fingerprint,
    sweep_json_payload,
    sweep_result_from_payload,
)
from repro.runtime.sweep import (
    ExperimentPoint,
    PointSpec,
    SweepResult,
    sweep_specs,
)

SPEC_LISTS = st.lists(
    st.builds(
        PointSpec,
        kernel_name=st.sampled_from(("fir", "fft", "dc_filter",
                                     "matmul")),
        config_name=st.sampled_from(("HOM64", "HOM32", "HET1", "HET2")),
        variant=st.sampled_from(tuple(VARIANTS)),
        seed=st.integers(0, 2),
    ),
    max_size=40,
)

TOTALS = st.integers(min_value=1, max_value=6)


class TestPartition:
    @settings(max_examples=60, deadline=None)
    @given(specs=SPEC_LISTS, total=TOTALS)
    def test_disjoint_and_union_complete(self, specs, total):
        parts = [shard_indices(specs, index, total)
                 for index in range(total)]
        flat = [i for part in parts for i in part]
        # Pairwise disjoint and complete in one stroke: every input
        # position appears exactly once across all shards.
        assert sorted(flat) == list(range(len(specs)))
        # And on the spec level the union is the input, as a multiset.
        union = collections.Counter(
            spec for index in range(total)
            for spec in shard_specs(specs, index, total))
        assert union == collections.Counter(specs)

    @settings(max_examples=60, deadline=None)
    @given(specs=SPEC_LISTS, total=TOTALS)
    def test_order_stable_within_a_shard(self, specs, total):
        for index in range(total):
            positions = shard_indices(specs, index, total)
            assert positions == sorted(positions)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), specs=SPEC_LISTS, total=TOTALS)
    def test_assignment_invariant_under_input_order(self, data, specs,
                                                    total):
        permuted = data.draw(st.permutations(specs))
        for index in range(total):
            assert (collections.Counter(shard_specs(specs, index, total))
                    == collections.Counter(
                        shard_specs(permuted, index, total)))

    def test_equal_cost_specs_balance_by_count(self):
        # 20 same-cost points over 6 shards: sizes differ by at most 1.
        specs = [PointSpec("fir", "HET1", "full", seed=seed)
                 for seed in range(20)]
        sizes = [len(shard_specs(specs, index, 6)) for index in range(6)]
        assert sum(sizes) == 20
        assert max(sizes) - min(sizes) <= 1

    def test_heavy_kernels_spread_across_shards(self):
        # The full paper sweep split 4 ways: no shard owns more than
        # half the total estimated cost (a plain round-robin over an
        # unsorted list can; the greedy balancer must not).
        specs = sweep_specs()
        costs = [sum(estimated_cost(spec)
                     for spec in shard_specs(specs, index, 4))
                 for index in range(4)]
        assert max(costs) <= sum(costs) / 2

    def test_single_shard_is_identity(self):
        specs = sweep_specs(kernels=("fir", "fft"))
        assert shard_specs(specs, 0, 1) == specs

    def test_more_shards_than_specs_leaves_some_empty(self):
        specs = [PointSpec("fir", "HET1", "basic")]
        sizes = [len(shard_specs(specs, index, 4)) for index in range(4)]
        assert sorted(sizes) == [0, 0, 0, 1]


class TestCacheAwareBalance:
    """``shard_specs(..., cache=)``: warm entries cost ~nothing, so a
    partially warm sweep splits its *residual* work evenly."""

    def _cache_with(self, tmp_path, specs):
        cache = ResultCache(tmp_path)
        for spec in specs:
            spec = spec.resolve()
            cache.store_point(spec, fake_point(spec, cycles=100))
        return cache

    def test_partition_contract_holds_with_a_cache(self, tmp_path):
        specs = sweep_specs(kernels=("fir", "fft", "matmul"))
        cache = self._cache_with(tmp_path, specs[::3])
        flat = sorted(i for index in range(4)
                      for i in shard_indices(specs, index, 4,
                                             cache=cache))
        assert flat == list(range(len(specs)))

    def test_residual_work_splits_evenly(self, tmp_path):
        # Warm every heavy kernel's specs.  Cost-unaware balancing
        # would mix warm and cold freely; cache-aware balancing must
        # spread the remaining *cold* specs evenly across the shards.
        specs = sweep_specs(kernels=("fir", "fft", "matmul",
                                     "nonsep_filter"))
        warm = [spec for spec in specs
                if spec.kernel_name in ("fft", "matmul",
                                        "nonsep_filter")]
        cache = self._cache_with(tmp_path, warm)
        warm_set = {spec.resolve() for spec in warm}
        cold_costs = []
        for index in range(4):
            mine = shard_specs(specs, index, 4, cache=cache)
            cold_costs.append(sum(estimated_cost(spec)
                                  for spec in mine
                                  if spec.resolve() not in warm_set))
        # Every shard owns a fair slice of the cold cost (the greedy
        # balancer bounds the spread by one spec's cost; "fir"/"full"
        # is the heaviest cold spec).
        heaviest = max(estimated_cost(spec) for spec in specs
                       if spec.resolve() not in warm_set)
        assert max(cold_costs) - min(cold_costs) <= heaviest

    def test_deterministic_for_a_fixed_cache_state(self, tmp_path):
        specs = sweep_specs(kernels=("fir", "dc_filter"))
        cache = self._cache_with(tmp_path, specs[:5])
        first = [shard_indices(specs, index, 3, cache=cache)
                 for index in range(3)]
        again = [shard_indices(specs, index, 3, cache=cache)
                 for index in range(3)]
        assert first == again

    def test_no_cache_matches_the_plain_assignment(self, tmp_path):
        specs = sweep_specs(kernels=("fir", "fft"))
        empty = ResultCache(tmp_path)  # exists, holds nothing
        for index in range(4):
            assert shard_indices(specs, index, 4, cache=empty) \
                == shard_indices(specs, index, 4)


class TestParseShard:
    def test_roundtrip(self):
        assert parse_shard("2/4") == (2, 4)
        assert parse_shard("0/1") == (0, 1)

    @pytest.mark.parametrize("text", ["", "3", "a/b", "1/2/3", "-1/4",
                                      "4/4", "0/0"])
    def test_rejects_malformed(self, text):
        with pytest.raises(ReproError):
            parse_shard(text)


def fake_point(spec, cycles):
    return ExperimentPoint(spec.kernel_name, spec.config_name,
                           spec.variant, cycles=cycles, mapped=True,
                           compile_seconds=0.5)


def fake_sweep(specs):
    resolved = [spec.resolve() for spec in specs]
    points = [fake_point(spec, cycles=100 + index)
              for index, spec in enumerate(resolved)]
    return SweepResult(specs=resolved, points=points, cache_hits=0,
                       computed=len(specs), elapsed_seconds=1.0)


def shard_payloads(specs, total):
    """Shard a fake sweep into JSON payloads, one per shard."""
    full = fake_sweep(specs)
    payloads = []
    for index in range(total):
        positions = shard_indices(specs, index, total)
        part = SweepResult(
            specs=[full.specs[i] for i in positions],
            points=[full.points[i] for i in positions],
            cache_hits=0, computed=len(positions),
            elapsed_seconds=1.0)
        payloads.append(sweep_json_payload(
            part, shard=(index, total), positions=positions,
            spec_total=len(specs),
            fingerprint=sweep_fingerprint(specs)))
    return full, payloads


class TestJsonRoundTrip:
    def test_spec_roundtrip_including_custom_fields(self):
        spec = PointSpec("fir", "HOM16", "full",
                         options=FlowOptions.aware(max_attempts=3),
                         seed=11, cm_depths=(16,) * 16)
        assert spec_from_json(spec_to_json(spec)) == spec.resolve()

    def test_point_roundtrip_preserves_summary_fields(self):
        point = ExperimentPoint("fir", "HET1", "full", cycles=321,
                                compile_seconds=2.5, mapped=True)
        back = point_from_json(point_to_json(point))
        assert point_to_json(back) == point_to_json(point)
        assert back.mapped
        assert back.cycles == 321

    def test_unmapped_point_roundtrip(self):
        point = ExperimentPoint("fir", "HOM4", "full",
                                error="unmappable")
        back = point_from_json(point_to_json(point))
        assert not back.mapped
        assert back.error == "unmappable"


class TestMerge:
    SPECS = sweep_specs(kernels=("fir", "fft", "dc_filter"),
                        configs=("HOM64", "HET1"),
                        variants=("basic", "full"))

    def test_merge_reproduces_the_unsharded_sweep(self):
        full, payloads = shard_payloads(self.SPECS, 4)
        merged = merge_sweep_payloads(payloads)
        assert sweep_json_payload(merged)["points"] \
            == sweep_json_payload(full)["points"]
        assert merged.computed == full.computed

    def test_merge_order_is_shard_file_order_independent(self):
        _, payloads = shard_payloads(self.SPECS, 3)
        forward = merge_sweep_payloads(payloads)
        backward = merge_sweep_payloads(payloads[::-1])
        assert sweep_json_payload(forward) \
            == sweep_json_payload(backward)

    def test_missing_shard_is_a_hard_error(self):
        _, payloads = shard_payloads(self.SPECS, 3)
        with pytest.raises(ReproError, match="cover"):
            merge_sweep_payloads(payloads[:-1])

    def test_duplicate_shard_is_a_hard_error(self):
        _, payloads = shard_payloads(self.SPECS, 3)
        with pytest.raises(ReproError, match="more than once"):
            merge_sweep_payloads(payloads + [payloads[0]])

    def test_mismatched_sweep_sizes_rejected(self):
        _, payloads = shard_payloads(self.SPECS, 2)
        _, other = shard_payloads(self.SPECS[:-1], 2)
        with pytest.raises(ReproError, match="sweep size"):
            merge_sweep_payloads([payloads[0], other[1]])

    def test_unknown_schema_rejected(self):
        _, payloads = shard_payloads(self.SPECS, 2)
        payloads[0]["schema"] = 999
        with pytest.raises(ReproError, match="schema"):
            merge_sweep_payloads(payloads)

    def test_shards_of_different_sweeps_rejected(self):
        # Same axes, same length, disjoint positions — but a
        # different seed.  Only the fingerprint can tell them apart.
        other_specs = [
            PointSpec(s.kernel_name, s.config_name, s.variant, seed=8)
            for s in self.SPECS]
        _, ours = shard_payloads(self.SPECS, 2)
        _, theirs = shard_payloads(other_specs, 2)
        with pytest.raises(ReproError, match="different sweeps"):
            merge_sweep_payloads([ours[0], theirs[1]])

    def test_tampered_specs_fail_the_fingerprint_check(self):
        _, payloads = shard_payloads(self.SPECS, 2)
        payloads[0]["points"][0]["spec"]["seed"] = 99
        with pytest.raises(ReproError, match="do not match"):
            merge_sweep_payloads(payloads)

    def test_stripped_fingerprint_is_a_hard_error(self):
        # Every payload must declare its sweep; without fingerprints
        # a mixed-sweep merge would be undetectable.
        _, payloads = shard_payloads(self.SPECS, 2)
        for payload in payloads:
            del payload["fingerprint"]
        with pytest.raises(ReproError, match="fingerprint"):
            merge_sweep_payloads(payloads)

    def test_merge_files(self, tmp_path):
        import json

        full, payloads = shard_payloads(self.SPECS, 2)
        paths = []
        for index, payload in enumerate(payloads):
            path = tmp_path / f"shard-{index}.json"
            path.write_text(json.dumps(payload))
            paths.append(path)
        merged = merge_sweep_files(paths)
        assert sweep_json_payload(merged)["points"] \
            == sweep_json_payload(full)["points"]

    def test_unreadable_file_is_a_repro_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ReproError, match="cannot read"):
            merge_sweep_files([bad])

    @pytest.mark.parametrize("payload", [
        [1, 2, 3],                      # valid JSON, not an object
        {"schema": SWEEP_JSON_SCHEMA},  # truncated: no spec_total
        {"schema": SWEEP_JSON_SCHEMA,         # wrong field type
         "spec_total": "140"},
        {"schema": SWEEP_JSON_SCHEMA,         # shard not an object
         "spec_total": 2,
         "shard": "0/2", "fingerprint": "x",
         "summary": {"cache_hits": 0, "computed": 2,
                     "elapsed_seconds": 0.0},
         "points": []},
        {"schema": SWEEP_JSON_SCHEMA,         # non-numeric counter
         "spec_total": 2,
         "fingerprint": "x",
         "summary": {"cache_hits": "none", "computed": 2,
                     "elapsed_seconds": 0.0},
         "points": []},
        {"schema": SWEEP_JSON_SCHEMA,   # record without a position
         "spec_total": 2,
         "fingerprint": "x",
         "summary": {"cache_hits": 0, "computed": 2,
                     "elapsed_seconds": 0.0},
         "points": [{"spec": {}, "point": {}}]},
    ])
    def test_structurally_malformed_payloads_are_repro_errors(
            self, payload):
        with pytest.raises(ReproError, match="malformed|payload"):
            merge_sweep_payloads([payload])

    @pytest.mark.parametrize("rebuild", [
        merge_sweep_payloads,
        lambda payloads: sweep_result_from_payload(payloads[0]),
    ], ids=["merge", "single-payload"])
    def test_mistyped_spec_field_is_a_malformed_payload(self, rebuild):
        _, payloads = shard_payloads(self.SPECS, 1)
        payloads[0]["points"][-1]["spec"]["seed"] = "7"
        with pytest.raises(ReproError,
                           match="malformed sweep payload.*'seed'"):
            rebuild(payloads)

    def test_unknown_kernel_is_a_malformed_payload(self):
        # It used to be read back as a spec and fail only the
        # fingerprint check, which cannot say which field is wrong.
        _, payloads = shard_payloads(self.SPECS, 1)
        payloads[0]["points"][-1]["spec"]["kernel"] = "nope"
        with pytest.raises(ReproError, match="malformed sweep payload"
                           ".*'kernel' must be one of"):
            merge_sweep_payloads(payloads)

    def test_out_of_range_option_is_a_malformed_payload(self):
        _, payloads = shard_payloads(self.SPECS, 1)
        payloads[0]["points"][-1]["spec"]["options"]["max_attempts"] = 0
        with pytest.raises(ReproError, match="malformed sweep payload"
                           ".*'max_attempts' must be >= 1"):
            merge_sweep_payloads(payloads)


class TestMergeEndToEnd:
    """The acceptance path with the real pipeline: a cold unsharded
    sweep, warm shard runs over the same cache, merge — every
    deterministic point field identical, compile seconds included
    (cached points carry the original measurement)."""

    def test_shards_plus_merge_equal_full_sweep(self, tmp_path):
        specs = sweep_specs(kernels=("dc_filter",),
                            configs=("HOM64", "HET1"),
                            variants=("basic", "full"))
        full = run_sweep(specs, workers=2, cache=ResultCache(tmp_path))
        payloads = []
        for index in range(3):
            positions = shard_indices(specs, index, 3)
            part = run_sweep([specs[i] for i in positions], workers=1,
                             cache=ResultCache(tmp_path))
            payloads.append(sweep_json_payload(
                part, shard=(index, 3), positions=positions,
                spec_total=len(specs),
                fingerprint=sweep_fingerprint(specs)))
        merged = merge_sweep_payloads(payloads)
        assert sweep_json_payload(merged)["points"] \
            == sweep_json_payload(full)["points"]
        # The shards ran warm: everything came from the cache.
        assert merged.cache_hits == len(specs)
        assert merged.computed == 0
