"""Differential execution: the same specs through two backends.

"Evaluation of CGRA Toolchains" makes the case that cross-toolchain
comparison is how silent modeling errors surface; this module is that
comparison turned into a first-class batch operation.  Every spec is
paired — once per backend under test — and the pairs run as *one*
combined :func:`~repro.runtime.pool.run_sweep` batch, so the process
pool, the cache and the progress stream all work exactly as they do
for an ordinary sweep (backends already perturb the cache key, so
pairs can never collide).

Per pair, three comparisons in order of severity:

1. **Outcome class** — mapped vs not, and the deterministic error
   string (``unmappable`` / ``context overflow``).  Backends share
   the mapping front half, so any disagreement here is a dispatch
   bug, not a modeling gap.
2. **Outputs** — the :func:`~repro.runtime.backends.output_digest`
   content hashes must be identical.  Both backends verify against
   the kernel reference internally, so a digest mismatch means one
   of them silently mutated memory it should not have.
3. **Cycles** — within tolerance
   ``abs(a - b) <= max(abs_tol, rel_tol * a)`` where ``a`` is the
   first (baseline) backend's count.  The backends *legitimately*
   disagree here: the analytic path charges the mapper's scheduled
   block lengths, the cycle-level path measures the stream (see
   :data:`~repro.sim.executor.CYCLE_TOLERANCE_NOTE`).

The default tolerances are measured, not guessed: across the full
paper sweep (140 mapped points) the analytic count exceeds the
cycle-level count by exactly one cycle — the schedule's trailing
slack — for a worst-case relative gap of 0.34%.  The defaults
(:data:`DEFAULT_ABS_TOL` = 2, :data:`DEFAULT_REL_TOL` = 0.01) sit
comfortably above that bound while still catching any real timing
regression, which would show up as a multi-cycle divergence.
"""

from __future__ import annotations

import dataclasses
import time

from repro.errors import ReproError
from repro.runtime.backends import (
    BACKENDS,
    DEFAULT_BACKEND,
    validated_backend,
)
from repro.runtime.sweep import DETERMINISTIC_ERRORS

#: Bump when the ``repro diff --json`` payload layout changes.
DIFF_JSON_SCHEMA = 1

#: Default cycle tolerances (measured — see module docstring).
DEFAULT_ABS_TOL = 2
DEFAULT_REL_TOL = 0.01

#: The pair of backends ``repro diff`` compares by default.
DEFAULT_DIFF_BACKENDS = (DEFAULT_BACKEND, "cycle")


@dataclasses.dataclass(frozen=True)
class PointDiff:
    """One spec's outcome under two backends, compared."""

    kernel_name: str
    config_name: str
    variant: str
    backend_a: str
    backend_b: str
    mapped_a: bool
    mapped_b: bool
    error_a: str
    error_b: str
    cycles_a: int
    cycles_b: int
    digest_a: str
    digest_b: str

    def describe(self):
        return f"{self.kernel_name}@{self.config_name}/{self.variant}"

    @property
    def crashed(self):
        """Either side failed non-deterministically (worker crash)."""
        return (self.error_a not in DETERMINISTIC_ERRORS
                or self.error_b not in DETERMINISTIC_ERRORS)

    @property
    def outcome_match(self):
        """Same mapped/error class on both sides."""
        return (self.mapped_a == self.mapped_b
                and self.error_a == self.error_b)

    @property
    def digest_match(self):
        return self.digest_a == self.digest_b

    @property
    def cycle_delta(self):
        if self.cycles_a is None or self.cycles_b is None:
            return None
        return self.cycles_a - self.cycles_b

    def cycles_within(self, abs_tol, rel_tol):
        delta = self.cycle_delta
        if delta is None:
            return True
        return abs(delta) <= max(abs_tol, rel_tol * abs(self.cycles_a))

    def classify(self, abs_tol, rel_tol):
        """Most severe disagreement, or ``"ok"``.

        ``crash`` > ``outcome`` > ``output`` > ``cycles`` — a crashed
        point makes the other comparisons meaningless, a class
        disagreement makes digests incomparable, and so on.
        """
        if self.crashed:
            return "crash"
        if not self.outcome_match:
            return "outcome"
        if not self.mapped_a:
            return "ok"
        if not self.digest_match:
            return "output"
        if not self.cycles_within(abs_tol, rel_tol):
            return "cycles"
        return "ok"

    def to_json(self, abs_tol, rel_tol):
        return {
            "kernel": self.kernel_name,
            "config": self.config_name,
            "variant": self.variant,
            "status": self.classify(abs_tol, rel_tol),
            "mapped": {self.backend_a: self.mapped_a,
                       self.backend_b: self.mapped_b},
            "error": {self.backend_a: self.error_a,
                      self.backend_b: self.error_b},
            "cycles": {self.backend_a: self.cycles_a,
                       self.backend_b: self.cycles_b},
            "cycle_delta": self.cycle_delta,
            "output_match": self.digest_match,
        }


@dataclasses.dataclass
class DiffResult:
    """Outcome of one differential run, in input spec order."""

    backend_a: str
    backend_b: str
    records: list
    abs_tol: float
    rel_tol: float
    cache_hits: int
    elapsed_seconds: float

    def __iter__(self):
        return iter(self.records)

    def __len__(self):
        return len(self.records)

    def classified(self):
        """status -> [PointDiff], every record in exactly one bucket."""
        buckets = {}
        for record in self.records:
            status = record.classify(self.abs_tol, self.rel_tol)
            buckets.setdefault(status, []).append(record)
        return buckets

    @property
    def mismatches(self):
        """Records out of tolerance (anything not ``ok``)."""
        return [record for record in self.records
                if record.classify(self.abs_tol,
                                   self.rel_tol) != "ok"]

    @property
    def ok(self):
        return not self.mismatches

    def max_cycle_delta(self):
        """Largest absolute cycle delta among comparable records."""
        deltas = [abs(record.cycle_delta) for record in self.records
                  if record.cycle_delta is not None]
        return max(deltas, default=0)

    def summary(self):
        buckets = self.classified()
        counted = ", ".join(
            f"{len(buckets[status])} {status}"
            for status in ("crash", "outcome", "output", "cycles")
            if status in buckets)
        verdict = counted if counted else "all within tolerance"
        return (f"{len(self.records)} points diffed "
                f"({self.backend_a} vs {self.backend_b}): {verdict}; "
                f"max cycle delta {self.max_cycle_delta()}; "
                f"{self.cache_hits} from cache in "
                f"{self.elapsed_seconds:.1f}s")

    def to_json(self):
        return {
            "schema": DIFF_JSON_SCHEMA,
            "backends": [self.backend_a, self.backend_b],
            "tolerance": {"abs": self.abs_tol, "rel": self.rel_tol},
            "ok": self.ok,
            "mismatches": len(self.mismatches),
            "max_cycle_delta": self.max_cycle_delta(),
            "summary": {
                "points": len(self.records),
                "cache_hits": self.cache_hits,
                "elapsed_seconds": self.elapsed_seconds,
            },
            "points": [record.to_json(self.abs_tol, self.rel_tol)
                       for record in self.records],
        }


def validated_diff_backends(names):
    """Two distinct, known backend names (None = the default pair)."""
    if names is None:
        return DEFAULT_DIFF_BACKENDS
    names = tuple(names)
    if len(names) != 2:
        raise ReproError(
            f"diff compares exactly two backends, got {len(names)}")
    names = tuple(validated_backend(name) for name in names)
    if names[0] == names[1]:
        raise ReproError(
            f"diff needs two distinct backends, got {names[0]!r} "
            f"twice; choose from {', '.join(BACKENDS)}")
    return names


def run_diff(specs, backends=None, abs_tol=DEFAULT_ABS_TOL,
             rel_tol=DEFAULT_REL_TOL, workers=1, cache=None,
             progress=None):
    """Run every spec through two backends and compare the outcomes.

    ``specs`` may name any backend themselves — it is overwritten by
    the pair under comparison.  The 2N paired specs execute as one
    combined batch, so workers interleave the two backends and the
    cache/progress behaviour matches an ordinary sweep.
    """
    from repro.obs import metrics, trace
    from repro.runtime.pool import run_sweep

    backend_a, backend_b = validated_diff_backends(backends)
    resolved = [spec.resolve() for spec in specs]
    paired = [dataclasses.replace(spec, backend=name)
              for spec in resolved
              for name in (backend_a, backend_b)]
    started = time.perf_counter()
    with trace.span("diff", backends=f"{backend_a},{backend_b}",
                    points=len(resolved)):
        batch = run_sweep(paired, workers=workers, cache=cache,
                          progress=progress)
    points = batch.points
    records = []
    for index, spec in enumerate(resolved):
        point_a, point_b = points[2 * index], points[2 * index + 1]
        if point_a.mapped and point_b.mapped:
            # The observable the differential lane exists to watch:
            # how far the two engines' cycle counts sit apart.
            metrics.CYCLE_DELTA.observe(
                abs(point_a.cycles - point_b.cycles))
        records.append(PointDiff(
            kernel_name=spec.kernel_name,
            config_name=spec.config_name,
            variant=spec.variant,
            backend_a=backend_a, backend_b=backend_b,
            mapped_a=point_a.mapped, mapped_b=point_b.mapped,
            error_a=point_a.error, error_b=point_b.error,
            cycles_a=point_a.cycles, cycles_b=point_b.cycles,
            digest_a=point_a.output_digest,
            digest_b=point_b.output_digest))
    return DiffResult(backend_a=backend_a, backend_b=backend_b,
                      records=records, abs_tol=abs_tol,
                      rel_tol=rel_tol, cache_hits=batch.cache_hits,
                      elapsed_seconds=time.perf_counter() - started)
