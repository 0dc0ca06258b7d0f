#!/usr/bin/env python3
"""Re-measure ``nominal.json``, the table the seeded draws balance on.

    python3 perfbench/calibrate.py        # 7-15 minutes on 2 cores

Runs both draw frames -- the paper grid and the shallow-CM frame named
in the current ``nominal.json`` -- once, cold, with 2 workers and the
probes installed, and records per point its outcome, cycles, energy
and exact mapping work (``try_bind`` calls).  A point's nominal
seconds are modelled, not read off its clock: ``try_bind`` calls times
the kernel's median mapping seconds per call, plus cycles times the
kernel's median simulation seconds per cycle.  The work counts are
exact and the medians span 20-40 points, so a noisy host during
calibration shifts every cost alike instead of mis-ranking points.

It then computes every point again, each in a fresh worker process,
and records how far that process's resident memory rose above its
size after the imports (``rss_growth_mib``).  A pool worker keeps the
heap it grew, so only a fresh process shows a point's own footprint.

Changing the table changes every draw: it is a benchmark change.
"""

from __future__ import annotations

import collections
import concurrent.futures
import json
import multiprocessing
import os
import pathlib
import shutil
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
for _name in [name for name in os.environ if name.startswith("REPRO_")]:
    del os.environ[_name]
os.environ["REPRO_LEDGER"] = "0"

import workloads  # noqa: E402
from probes import POINT_SPAN, Probe  # noqa: E402
from repro.dse.space import Design, static_unmappable  # noqa: E402
from repro.kernels import PAPER_KERNEL_ORDER  # noqa: E402
from repro.mapping.flow import FlowOptions  # noqa: E402
from repro.obs import trace  # noqa: E402
from repro.runtime import (  # noqa: E402
    ResultCache,
    pool,
    run_sweep,
    sweep_specs,
)

ABOUT = ("Nominal per-point outcome, cycles, energy, cost and memory of "
         "the two draw frames, written by calibrate.py.  seconds = "
         "try_bind calls x the kernel's median mapping seconds per call "
         "+ cycles x the kernel's median simulation seconds per cycle; "
         "rss_growth_mib = how far a fresh worker process's resident "
         "memory rose above its size after the imports while computing "
         "the point; measured on a 2-core host (Python 3.11.7).  Used "
         "only to balance the seeded draws; every reported metric is "
         "measured afresh.")


def measure(specs):
    """``{spec: (point, counters)}`` of one cold traced 2-worker run."""
    probe = Probe()
    trace.enable_tracing()
    scratch = HERE.parent / ".bench_state" / "calibrate"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        with probe:
            result = run_sweep(specs, workers=workloads.WORKERS,
                               cache=ResultCache(scratch))
        spans = trace.drain_spans()
    finally:
        trace.reset_tracing()
        shutil.rmtree(scratch, ignore_errors=True)
    counters = {span["attrs"]["spec"]: span["attrs"]["counters"]
                for span in spans if span["name"] == POINT_SPAN}
    return {spec: (point, counters[spec.describe()])
            for spec, point in zip(result.specs, result.points)}


def _status_kib(field):
    """``VmRSS`` or ``VmHWM`` of this process, KiB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


def _rss_growth_mib(spec):
    """In a fresh worker: compute ``spec``; how far resident memory
    rose above its size before (the peak counter is reset first)."""
    with open("/proc/self/clear_refs", "w") as refs:
        refs.write("5")
    start = _status_kib("VmRSS")
    pool._compute_captured(spec)
    return round((_status_kib("VmHWM") - start) / 1024, 1)


def rss_growth(specs):
    """``{spec: MiB}``, every point in a process of its own."""
    with concurrent.futures.ProcessPoolExecutor(
            workloads.WORKERS, mp_context=multiprocessing.get_context(
                "spawn"), max_tasks_per_child=1) as executor:
        return dict(zip(specs, executor.map(_rss_growth_mib, specs)))


def main():
    frame = workloads.nominal()["tight"]["designs"]
    designs = [Design(name, tuple(depths)) for name, depths in frame.items()]
    options = FlowOptions.aware(max_attempts=10)
    grid_specs = sweep_specs()
    tight_specs = [design.spec(kernel, options=options)
                   for design in designs for kernel in PAPER_KERNEL_ORDER
                   if not static_unmappable(design, kernel)]
    grid, tight = measure(grid_specs), measure(tight_specs)
    growth = rss_growth(grid_specs + tight_specs)

    map_rate = collections.defaultdict(list)
    sim_rate = collections.defaultdict(list)
    for spec, (point, counters) in {**grid, **tight}.items():
        map_rate[spec.kernel_name].append(
            counters["map_kernel.s"] / counters["try_bind.calls"])
        if point.mapped:
            sim_rate[spec.kernel_name].append(
                counters["sim_run.s"] / point.cycles)
    map_rate = {k: statistics.median(v) for k, v in map_rate.items()}
    sim_rate = {k: statistics.median(v) for k, v in sim_rate.items()}

    def row(spec, point, counters):
        cycles = point.cycles if point.mapped else 0
        seconds = (counters["try_bind.calls"] * map_rate[spec.kernel_name]
                   + cycles * sim_rate[spec.kernel_name])
        energy = round(point.energy_uj * 1000, 1) if point.mapped else 0
        return round(seconds, 3), cycles, energy, growth[spec]

    grid_rows = {f"{spec.kernel_name}@{spec.config_name}/{spec.variant}":
                 list(row(spec, *measured))
                 for spec, measured in grid.items()}
    tight_rows = {}
    for spec, (point, counters) in tight.items():
        seconds, cycles, energy, mib = row(spec, point, counters)
        tight_rows[f"{spec.kernel_name}@{spec.config_name.lower()}"] = [
            seconds, int(point.mapped), cycles, energy, mib]
    write_table(frame, grid_rows, tight_rows)


def write_table(frame, grid_rows, tight_rows):
    def block(points):
        return "{\n" + ",\n".join(
            f"   {json.dumps(key)}: {json.dumps(value)}"
            for key, value in points.items()) + "\n  }"

    text = (
        "{\n"
        f' "about": {json.dumps(ABOUT)},\n'
        ' "grid": {\n'
        '  "fields": ["seconds", "cycles", "energy_nj", "rss_growth_mib"],\n'
        f'  "points": {block(grid_rows)}\n'
        ' },\n'
        ' "tight": {\n'
        '  "fields": ["seconds", "mapped", "cycles", "energy_nj",'
        ' "rss_growth_mib"],\n'
        f'  "designs": {block(frame)},\n'
        f'  "points": {block(tight_rows)}\n'
        ' }\n'
        "}\n")
    (HERE / "nominal.json").write_text(text)


if __name__ == "__main__":
    main()
