"""Tests of the benchmark itself: seeded inputs, metric extraction, checks.

Run with ``python -m pytest perfbench/tests -q`` from the checkout root.
"""

import argparse
import json

import pytest

import measure
import metrics
import run
import workloads
from probes import Probe
from repro.obs import trace
from repro.runtime import PointSpec

CHEAP = [PointSpec("dc_filter", "HOM64", "basic", seed=11),
         PointSpec("fir", "HET1", "full", seed=11)]


def _names(kind):
    return [entry["name"] for entry
            in json.loads(metrics.BENCHMARK_FILE.read_text())[kind]]


@pytest.mark.parametrize("draw", [workloads.cold_sweep_specs,
                                  workloads.tight_cm_specs,
                                  workloads.warm_serve_requests])
def test_seed_fixes_the_inputs(draw):
    assert draw(3, 25) == draw(3, 25)
    assert draw(3, 25) != draw(4, 25)


def test_cold_sweep_covers_every_kernel_on_the_baseline():
    specs = workloads.cold_sweep_specs(5, 25)
    kernels = {spec.kernel_name for spec in specs}
    assert kernels == set(workloads.PAPER_KERNEL_ORDER)
    assert {spec.kernel_name for spec in specs
            if spec.config_name == "HOM64"} == kernels
    assert len({spec.seed for spec in specs}) == 1


def test_tight_cm_draws_mapping_and_failing_points_alike():
    table = workloads.nominal()["tight"]["points"]
    specs = workloads.tight_cm_specs(5, 25)
    outcomes = [table[f"{spec.kernel_name}@{spec.config_name.lower()}"][1]
                for spec in specs]
    assert sum(outcomes) * 2 == len(outcomes)
    assert all(spec.options.max_attempts == 10 for spec in specs)


def test_warm_serve_mix_holds_enough_requests_for_its_p90():
    requests = workloads.warm_serve_requests(5, 25)
    assert len(requests) >= 100
    assert sum(body == {} for body in requests) * 10 == \
        workloads.WARM_SWEEPS_PER_BLOCK * len(requests)
    assert {tuple(body) for body in requests} == \
        {(), ("figure",), ("kernels", "variants"), ("specs",)}


def _traced_batch(tmp_path, name):
    probe = Probe()
    trace.enable_tracing()
    try:
        with probe:
            batch = workloads.run_batch(CHEAP, tmp_path / name, workers=1)
    finally:
        spans = trace.drain_spans()
        trace.reset_tracing()
    busy_share, tail_s = metrics.pool_metrics(spans, batch)
    return metrics.per_layer(probe.totals(spans), probe.samples,
                             busy_share, tail_s, 0.0)


def test_metric_extraction_on_a_tiny_run(tmp_path):
    batch = workloads.run_batch(CHEAP, tmp_path / "plain", workers=1)
    values = metrics.end_to_end(workloads.batch_outcome(CHEAP, batch))
    assert set(values) | {"setup_s"} == set(_names("end_to_end"))
    assert values["ok_share"] == 1.0 and values["mapped_share"] == 1.0
    assert values["sim_cycles"] > 0 and values["points_per_s"] > 0

    layer = _traced_batch(tmp_path, "traced")
    assert set(layer) == set(_names("per_layer"))
    assert layer["mapping.map_kernel.calls"] == 2
    assert layer["mapping.try_bind.calls"] > 0
    assert layer["mapping.clone.calls"] >= layer["mapping.try_bind.calls"]
    assert layer["runtime.cache.put.s"] > 0
    assert layer["runtime.cache.hit_share"] == 0.0  # an empty cache

    again = _traced_batch(tmp_path, "again")
    exact = [name for name in layer if metrics.is_exact_layer_metric(name)]
    assert "mapping.try_bind.calls" in exact
    assert {name: layer[name] for name in exact} == \
        {name: again[name] for name in exact}


def test_recompute_counter_leaves_out_presplits():
    from repro.ir.dfg import DFG
    from repro.ir.opcodes import Opcode
    from repro.mapping import transforms

    dfg = DFG("wide")
    load = dfg.add_op(Opcode.LOAD, [dfg.new_const(0)], region="in")
    for _ in range(4):
        dfg.add_op(Opcode.NEG, [load])
    probe = Probe()
    with probe:
        split = transforms.presplit_high_fanout(dfg, load_fanout=2)
        assert split.n_ops > dfg.n_ops  # it did pre-split
        assert "recompute_split.calls" not in probe.point
        transforms.recompute_split(dfg, dfg.ops[0].uid)
    assert probe.point == {"blocks.calls": 1, "recompute_split.calls": 1}


def test_forced_mismatch_fails_the_run(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(workloads, "cold_sweep_specs",
                        lambda seed, seconds: CHEAP)
    monkeypatch.setattr(workloads, "WORKERS", 1)
    monkeypatch.setattr(workloads, "reference_digest",
                        lambda kernel, seed: "0" * 64)
    monkeypatch.setattr(run, "STATE", tmp_path / "state")
    args = argparse.Namespace(workload="cold-sweep", seed=1, seconds=1,
                              trace=0, dir=str(tmp_path / "run"))
    measured = measure.batch(args)
    assert measured["metrics"]["ok_share"] == 0.0

    status = run.report(args, measured, [0.5])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 1
    assert result["correct"] is False and result["failed"] == 2
    assert result["metrics"]["ok_share"]["value"] == 0.0


def test_without_the_program_it_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    status = run.main(["--workload", "tight-cm", "--seed", "1",
                       "--seconds", "5", "--trace", "0"])
    assert status == 2
    assert capsys.readouterr().out == ""
