"""The measuring process: one untraced run, or an untraced and a traced one.

With ``--trace 1`` the workload runs twice on the same inputs: first
untraced (the overhead baseline, and an exactness check: both passes
must report the same work), then with the probes of :mod:`probes`
installed.  The per-layer metrics come from the traced pass only.
"""

from __future__ import annotations

import json
import pathlib

import metrics
import workloads
from probes import Probe

STATE = pathlib.Path(__file__).resolve().parent.parent / ".bench_state"


def _result(attempted, failures, values, exact):
    return {"attempted": attempted, "failures": failures,
            "metrics": values, "exact": exact}


def _exact_layer(values):
    return {name: value for name, value in values.items()
            if metrics.is_exact_layer_metric(name)}


def _same_work(plain, traced, failures):
    for name in metrics.EXACT_END_TO_END:
        if plain[name] != traced[name]:
            failures.append(f"{name} differs between the untraced and "
                            f"the traced pass")


def _write_trace(args, values, totals, spans):
    """Keep the traced run's evidence: metrics, raw counters, spans."""
    path = STATE / "traces" / f"{args.workload}-seed{args.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "traced": True,
        "per_layer": values, "counters": totals, "spans": spans}))


def batch(args):
    """``cold-sweep`` or ``tight-cm``."""
    from repro.obs import trace

    draw = (workloads.cold_sweep_specs if args.workload == "cold-sweep"
            else workloads.tight_cm_specs)
    specs = draw(args.seed, args.seconds)
    for spec in specs:  # the reference outputs, before anything is timed
        workloads.reference_digest(spec.kernel_name, spec.seed)
    run_dir = pathlib.Path(args.dir)
    run = workloads.run_batch(specs, run_dir / "untraced")
    outcome = workloads.batch_outcome(specs, run)
    plain = metrics.end_to_end(outcome)
    if not args.trace:
        return _result(outcome["attempted"], outcome["failures"], plain,
                       {name: plain[name]
                        for name in metrics.EXACT_END_TO_END})

    probe = Probe()
    trace.enable_tracing()
    try:
        with probe:
            traced_run = workloads.run_batch(specs, run_dir / "traced")
    finally:
        spans = trace.drain_spans()
        trace.reset_tracing()
    traced_outcome = workloads.batch_outcome(specs, traced_run)
    failures = outcome["failures"] + traced_outcome["failures"]
    _same_work(plain, metrics.end_to_end(traced_outcome), failures)
    totals = probe.totals(spans)
    busy_share, tail_s = metrics.pool_metrics(spans, traced_run)
    values = metrics.per_layer(totals, probe.samples, busy_share, tail_s,
                               traced_run["wall"] / run["wall"] - 1.0)
    _write_trace(args, values, totals, spans)
    return _result(2 * len(specs), failures, values, _exact_layer(values))


def warm(args):
    """``warm-serve``: the prefill is read, never timed."""
    prefill = pathlib.Path(args.prefill_dir)
    expected = json.loads((prefill / "expected.json").read_text())
    requests = workloads.warm_serve_requests(args.seed, args.seconds)
    server = workloads.WarmServer(prefill)
    probe = Probe()
    try:
        outcome = workloads.run_warm(server, requests, expected)
        if server.cache.misses:
            outcome["failures"].append(
                f"{server.cache.misses} cache misses on a prefilled cache")
        if args.trace:
            with probe:
                traced = workloads.run_warm(server, requests, expected,
                                            traced=True)
    finally:
        server.close()
    plain = metrics.end_to_end(outcome)
    if not args.trace:
        return _result(outcome["attempted"], outcome["failures"], plain,
                       {name: plain[name]
                        for name in metrics.EXACT_END_TO_END})

    failures = outcome["failures"] + traced["failures"]
    _same_work(plain, metrics.end_to_end(traced), failures)
    totals = probe.totals([])
    totals["payload.bytes"] = traced["payload_bytes"]
    values = metrics.per_layer(totals, probe.samples, 0.0, 0.0,
                               traced["wall"] / outcome["wall"] - 1.0)
    if values["runtime.cache.hit_share"] != 1.0:
        failures.append("traced pass missed the prefilled cache")
    _write_trace(args, values, totals, [])
    return _result(2 * len(requests), failures, values,
                   _exact_layer(values))
