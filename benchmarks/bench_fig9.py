"""Fig 9 — compilation time of each added flow step.

Paper: the full context-memory aware flow averages ~1.8x the basic
flow's compile time (17s -> 30s on their machine); the penalty grows
step by step as ACMAP, ECMAP and CAB are added.

Besides the rendered figure, the per-kernel compile times are written
to ``benchmarks/results/fig9_bench.json`` in the shared ``repro.perf``
benchmark schema (the same document ``repro bench`` emits and
``BENCH_*.json`` commits at the repo root), so the Fig 9 artefacts and
the repo's perf trajectory are one comparable series — compare
case-for-case with matching axes (Fig 9 times the aware variants on
HET1 and the basic flow on HOM64)::

    python -m repro bench --configs HET1 --variants full \
        --compare benchmarks/results/fig9_bench.json
"""

import json

from repro.eval.experiments import fig9_data
from repro.eval.reporting import render_fig9
from repro.perf import bench_payload, parse_bench_payload


def fig9_bench_document(data, config_name="HET1", kernels=None):
    """Reshape Fig 9's per-kernel timings into the perf schema.

    Fig 9 compiles the basic flow for HOM64 (its paper target) and the
    aware variants for ``config_name``; each compile is a single
    unwarmed run — exactly what the figure reports.  ``kernels`` must
    be the kernel tuple ``fig9_data`` was called with (its
    ``per_kernel`` lists are in that order); default: the full suite.
    """
    from repro.kernels import PAPER_KERNEL_ORDER

    if kernels is None:
        kernels = PAPER_KERNEL_ORDER
    cases = []
    for variant, seconds_list in data["per_kernel"].items():
        if len(seconds_list) != len(kernels):
            raise ValueError(
                f"{variant}: {len(seconds_list)} timings for "
                f"{len(kernels)} kernels — pass the kernel tuple "
                f"fig9_data was called with")
        config = "HOM64" if variant == "basic" else config_name
        for kernel, seconds in zip(kernels, seconds_list):
            cases.append({
                "case": f"{kernel}@{config}/{variant}",
                "kernel": kernel,
                "config": config,
                "variant": variant,
                "seconds": round(seconds, 6),
                "samples": [round(seconds, 6)],
                "counts": {"mapped": True},
            })
    return bench_payload(cases, warmup=0, repeat=1)


def test_fig9_compile_time(benchmark, record_result, results_dir):
    data = benchmark.pedantic(fig9_data, rounds=1, iterations=1)
    record_result("fig9", render_fig9(data))
    document = parse_bench_payload(fig9_bench_document(data))
    (results_dir / "fig9_bench.json").write_text(
        json.dumps(document, indent=2) + "\n")
    # Shape: the aware steps cost more compile time than the basic flow.
    assert data["normalized"]["full"] >= 1.0
