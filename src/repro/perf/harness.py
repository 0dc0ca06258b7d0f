"""Timing harness for ``map_kernel`` — the repo's perf trajectory.

Times the mapper (nothing else: no assembling, no simulation) across
kernel x config x flow-variant cases with warmup and repeat control,
reducing repeats with :data:`REDUCER`.  The default case set is the
headline measurement this repo tracks PR over PR: the full kernel
suite under the ``full`` context-aware flow on HOM32.
"""

from __future__ import annotations

import dataclasses
import time

from repro.arch.configs import CGRA_CONFIGS, get_config
from repro.errors import ReproError, UnmappableError
from repro.kernels import PAPER_KERNEL_ORDER, get_kernel
from repro.mapping.flow import VARIANTS, map_kernel

#: Statistic collapsing a case's repeat samples into its recorded
#: seconds; the bench document names it (``"reducer": "min"``).
#: Mapping is deterministic, so repeats differ only by machine noise,
#: and noise only adds: the minimum is the best estimate of the cost.
REDUCER = min


@dataclasses.dataclass(frozen=True)
class BenchCase:
    """One timed mapping: kernel x config x flow variant."""

    kernel: str
    config: str
    variant: str

    @property
    def name(self):
        return f"{self.kernel}@{self.config}/{self.variant}"

    def validate(self):
        if self.kernel not in PAPER_KERNEL_ORDER:
            raise ReproError(f"unknown kernel {self.kernel!r}; "
                             f"choose from {list(PAPER_KERNEL_ORDER)}")
        if self.config.upper() not in CGRA_CONFIGS:
            raise ReproError(f"unknown config {self.config!r}; "
                             f"choose from {sorted(CGRA_CONFIGS)}")
        if self.variant not in VARIANTS:
            raise ReproError(f"unknown variant {self.variant!r}; "
                             f"choose from {sorted(VARIANTS)}")
        return self


def parse_case(text):
    """Parse ``kernel@CONFIG/variant`` into a :class:`BenchCase`."""
    try:
        kernel, rest = text.split("@", 1)
        config, variant = rest.split("/", 1)
    except ValueError:
        raise ReproError(
            f"malformed case {text!r}; expected kernel@CONFIG/variant "
            f"(e.g. fft@HOM32/full)") from None
    return BenchCase(kernel, config.upper(), variant).validate()


def default_cases(kernels=None, configs=None, variants=None):
    """The case grid; defaults to the tracked suite x HOM32 x full."""
    kernels = tuple(kernels) if kernels else PAPER_KERNEL_ORDER
    configs = tuple(configs) if configs else ("HOM32",)
    variants = tuple(variants) if variants else ("full",)
    return [BenchCase(k, c.upper(), v).validate()
            for k in kernels for c in configs for v in variants]


def _time_case(case, warmup, repeat):
    """Wall-time one case; returns (samples, result_or_None)."""
    kernel = get_kernel(case.kernel)
    cgra = get_config(case.config)
    options = VARIANTS[case.variant]()
    result = None

    def one():
        nonlocal result
        try:
            result = map_kernel(kernel.cdfg, cgra, options)
        except UnmappableError:
            result = None

    for _ in range(warmup):
        one()
    samples = []
    for _ in range(repeat):
        started = time.perf_counter()
        one()
        samples.append(time.perf_counter() - started)
    return samples, result


def _case_counts(result):
    """Deterministic mapping statistics recorded with the timing.

    These explain a timing move without rerunning: more ``attempts``
    means the flow needed extra remedy rounds, more ``movs`` means the
    router worked harder.
    """
    if result is None:
        return {"mapped": False}
    return {
        "mapped": True,
        "blocks": len(result.blocks),
        "attempts": sum(b.attempts for b in result.blocks.values()),
        "ops": result.total_ops,
        "movs": result.total_movs,
        "pnops": result.total_pnops,
        "words": result.total_words,
    }


def run_bench(cases, warmup=1, repeat=3, progress=None):
    """Time every case; returns the list the schema wraps.

    ``progress`` (optional callable) receives one line per finished
    case so long runs narrate on stderr instead of going silent.
    """
    if warmup < 0 or repeat < 1:
        raise ReproError("bench needs warmup >= 0 and repeat >= 1")
    results = []
    for index, case in enumerate(cases):
        samples, result = _time_case(case, warmup, repeat)
        seconds = REDUCER(samples)
        entry = {
            "case": case.name,
            "kernel": case.kernel,
            "config": case.config,
            "variant": case.variant,
            "seconds": round(seconds, 6),
            "samples": [round(s, 6) for s in samples],
            "counts": _case_counts(result),
        }
        results.append(entry)
        if progress is not None:
            progress(f"[{index + 1}/{len(cases)}] {case.name}: "
                     f"{seconds:.3f}s")
    return results


def render_bench(payload):
    """Human-readable benchmark table for one document."""
    lines = [
        f"repro bench — {len(payload['cases'])} case(s), "
        f"warmup={payload['warmup']} repeat={payload['repeat']} "
        f"reducer={payload['reducer']}",
        f"{'case':34s} {'seconds':>9s}  counts",
    ]
    for case in payload["cases"]:
        counts = case["counts"]
        if counts.get("mapped"):
            detail = (f"blocks={counts['blocks']} "
                      f"attempts={counts['attempts']} "
                      f"ops={counts['ops']} movs={counts['movs']}")
        else:
            detail = "unmappable"
        lines.append(f"{case['case']:34s} {case['seconds']:9.3f}  "
                     f"{detail}")
    lines.append(f"{'total':34s} {payload['total_seconds']:9.3f}")
    return "\n".join(lines)
