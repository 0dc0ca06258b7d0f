"""repro.perf — tracked mapper performance (see README).

The subsystem has three parts:

- :mod:`repro.perf.harness` — times ``map_kernel`` over a case grid
  with warmup/repeat control (``repro bench``);
- :mod:`repro.perf.schema` — the ``BENCH_*.json`` document all
  benchmark producers share, plus baseline comparison with a
  regression threshold (``repro bench --compare``);
- :mod:`repro.perf.ledger` — the append-only run ledger every
  unsampled bench/sweep/diff run records to (``repro history``,
  ``repro bench --compare-ledger``).
"""

from repro.perf import ledger
from repro.perf.harness import (
    BenchCase,
    default_cases,
    parse_case,
    render_bench,
    run_bench,
)
from repro.perf.schema import (
    BENCH_JSON_SCHEMA,
    bench_payload,
    compare_benchmarks,
    load_bench_file,
    parse_bench_payload,
    render_comparison,
)

__all__ = [
    "BENCH_JSON_SCHEMA",
    "BenchCase",
    "bench_payload",
    "compare_benchmarks",
    "default_cases",
    "ledger",
    "load_bench_file",
    "parse_bench_payload",
    "parse_case",
    "render_bench",
    "render_comparison",
    "run_bench",
]
