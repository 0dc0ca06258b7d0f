"""Metric extraction: end-to-end from untraced runs, per-layer from traced.

Names, units, directions and bounds live in ``BENCHMARK.json`` at the
checkout root; this module computes the values.
"""

from __future__ import annotations

import pathlib
import resource
import statistics

BENCHMARK_FILE = pathlib.Path(__file__).resolve().parent.parent / \
    "BENCHMARK.json"

#: End-to-end metrics that count work: they must repeat exactly across
#: two runs at one seed, as must the ``mapping.*`` counts and shares.
EXACT_END_TO_END = ("sim_cycles", "energy_nj", "mapped_share")


def is_exact_layer_metric(name):
    """The ``mapping.*`` counts and shares (no timings)."""
    last = name.rsplit(".", 1)[-1]
    return (name.startswith("mapping.") and last != "s"
            and not last.endswith("_s"))


def percentile(values, q):
    """The q-th percentile (inclusive method; one sample is itself)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mib():
    """Peak resident memory of this process and of its reaped workers."""
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kib / 1024.0


def end_to_end(outcome):
    """The end-to-end metrics of one untraced run, except ``setup_s``.

    ``outcome`` comes from ``workloads.batch_outcome`` or
    ``workloads.run_warm``.  On a batch workload the one request
    is the whole batch, so both latency percentiles are its wall time.
    """
    latencies = outcome["latencies"]
    return {
        "points_per_s": outcome["points"] / outcome["wall"],
        "request_p50_ms": percentile(latencies, 50) * 1000.0,
        "request_p90_ms": percentile(latencies, 90) * 1000.0,
        "peak_rss_mib": peak_rss_mib(),
        "sim_cycles": outcome["cycles"],
        "energy_nj": outcome["energy_nj"],
        "mapped_share": outcome["mapped"] / max(1, outcome["points"]),
        "ok_share": 1.0 - len(outcome["failures"]) / outcome["attempted"],
    }


def pool_metrics(spans, run):
    """``(busy_share, tail_s)`` of one batch from the program's point spans.

    Busy share: summed point compute time over workers x wall.  Tail:
    from the first worker going idle for good (the earliest last
    point end over worker processes) to the last point landing here.
    """
    points = [span for span in spans if span.get("name") == "point"]
    if not points:
        return 0.0, 0.0
    busy = sum(span["wall_us"] for span in points) / 1e6
    last_end = {}
    for span in points:
        end = (span["start_unix_us"] + span["wall_us"]) / 1e6
        last_end[span["pid"]] = max(last_end.get(span["pid"], 0.0), end)
    tail = max(0.0, max(run["landings"]) - min(last_end.values()))
    return busy / (run["workers"] * run["wall"]), tail


def per_layer(totals, samples, busy_share, tail_s, overhead_share):
    """Every per-layer metric from the probe's summed counters."""
    def get(key):
        return totals.get(key, 0)

    def share(numerator, denominator):
        return get(numerator) / get(denominator) if get(denominator) else 0.0

    def p50_ms(name):
        values = samples.get(name) or [0.0]
        return statistics.median(values) * 1000.0

    return {
        "mapping.map_kernel.s": float(get("map_kernel.s")),
        "mapping.map_kernel.calls": get("map_kernel.calls"),
        "mapping.map_kernel.max_s": float(get("map_kernel.max_s")),
        "mapping.map_kernel.unmappable_s":
            float(get("map_kernel.unmappable_s")),
        "mapping.bind_candidates.s": float(get("bind_candidates.s")),
        "mapping.bind_candidates.calls": get("bind_candidates.calls"),
        "mapping.try_bind.calls": get("try_bind.calls"),
        "mapping.try_bind.success_share": share("try_bind.ok",
                                                "try_bind.calls"),
        "mapping.route_to_operand.s": float(get("route_to_operand.s")),
        "mapping.route_to_operand.calls": get("route_to_operand.calls"),
        "mapping.route_to_operand.found_share":
            share("route_to_operand.ok", "route_to_operand.calls"),
        "mapping.route_to_rf.calls": get("route_to_rf.calls"),
        "mapping.clone.calls": get("clone.calls"),
        "mapping.stochastic_prune.s": float(get("stochastic_prune.s")),
        "mapping.stochastic_prune.survival_share":
            share("stochastic_prune.out", "stochastic_prune.in"),
        "mapping.acmap_filter.survival_share":
            share("acmap_filter.out", "acmap_filter.in"),
        "mapping.ecmap_filter.survival_share":
            share("ecmap_filter.out", "ecmap_filter.in"),
        "mapping.finalize_symbols.calls": get("finalize_symbols.calls"),
        "mapping.finalize_symbols.success_share":
            share("finalize_symbols.ok", "finalize_symbols.calls"),
        "mapping.update_blacklist.s": float(get("update_blacklist.s")),
        "mapping.recompute_split.calls": get("recompute_split.calls"),
        "mapping.block_attempts_per_block":
            share("block_attempts.calls", "blocks.calls"),
        "sim.run.s": float(get("sim_run.s")),
        "sim.cycles_per_host_s": share("sim_run.cycles", "sim_run.s"),
        "codegen.assemble.s": float(get("assemble.s")),
        "power.cgra_energy.s": float(get("cgra_energy.s")),
        "kernels.reference.s": float(get("reference.s")),
        "runtime.cache.get.s": float(get("cache_get.s")),
        "runtime.cache.get.calls": get("cache_get.calls"),
        "runtime.cache.hit_share": share("cache_get.hits",
                                         "cache_get.calls"),
        "runtime.cache.read_bytes": get("cache_get.bytes"),
        "runtime.cache.put.s": float(get("cache_put.s")),
        "runtime.cache.write_bytes": get("cache_put.bytes"),
        "runtime.stream.busy_share": busy_share,
        "runtime.stream.tail_s": tail_s,
        "runtime.shard.point_to_json.s": float(get("point_to_json.s")),
        "runtime.shard.sweep_json_payload.s":
            float(get("sweep_json_payload.s")),
        "serve.submit.p50_ms": p50_ms("serve.submit"),
        "serve.stream.p50_ms": p50_ms("serve.stream"),
        "serve.status.p50_ms": p50_ms("serve.status"),
        "serve.resolve_request.s": float(get("resolve_request.s")),
        "serve.payload_bytes": get("payload.bytes"),
        "trace.overhead_share": overhead_share,
    }
