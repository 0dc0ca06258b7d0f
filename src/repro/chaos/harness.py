"""The ``repro chaos`` run: inject faults, prove the answer holds.

Three phases over the same spec list, each with its own hermetic
cache directory so nothing leaks between them or into the user's
real cache:

1. **clean** — no faults, a fresh cache: the reference answer.
2. **fault_cold** — the fault plan armed, another fresh cache: every
   point actually computes, so ``worker_crash`` and ``point_hang``
   hit real worker processes and the containment layer must heal
   them.
3. **fault_warm** — same plan, *same* cache as phase 2: reads
   dominate, so ``cache_corrupt`` garbles warm entries and the
   discard-and-recompute path must heal those.

The verdict is the acceptance criterion executable: every faulted
point must equal its clean twin on the deterministic fields (error,
mapped, cycles, output digest), no point may be lost, and at most
``allow_quarantine`` points may land as a containment class
(``worker-crash:`` / ``timeout:`` / ``pool-broken:``) instead of
healing.  The report carries the containment metric deltas per
phase, so CI can additionally assert that faults *were* injected —
a chaos lane that silently injects nothing proves nothing.
"""

from __future__ import annotations

import contextlib
import os

from repro.chaos.faults import ENV_FAULT, parse_fault_plan
from repro.errors import ReproError
from repro.obs import metrics

#: Report document version.
CHAOS_SCHEMA = 1

#: Error-class prefixes the containment layer synthesizes; a faulted
#: point landing on one of these is "quarantined", not "mismatched".
CONTAINMENT_PREFIXES = ("worker-crash:", "timeout:", "pool-broken:")

#: The plan used when neither ``--faults`` nor ``$REPRO_FAULT`` says
#: otherwise: every point crashes its worker once and heals on
#: retry, and a third of warm cache reads hit a corrupt entry.
DEFAULT_PLAN = "worker_crash:p=1,attempts=1;cache_corrupt:p=0.33"

_COUNTERS = {
    "restarts": lambda: metrics.POOL_RESTARTS,
    "retries": lambda: metrics.POINT_RETRIES,
    "quarantines": lambda: metrics.POINT_QUARANTINES,
    "corrupt_entries": lambda: metrics.CACHE_CORRUPT,
    "injections": lambda: metrics.FAULTS_INJECTED,
}


@contextlib.contextmanager
def _fault_env(value):
    """Set/clear ``$REPRO_FAULT`` for one phase, restoring after."""
    saved = os.environ.get(ENV_FAULT)
    try:
        if value is None:
            os.environ.pop(ENV_FAULT, None)
        else:
            os.environ[ENV_FAULT] = value
        yield
    finally:
        if saved is None:
            os.environ.pop(ENV_FAULT, None)
        else:
            os.environ[ENV_FAULT] = saved


def _counter_totals():
    return {name: get().total() for name, get in _COUNTERS.items()}


def _signature(point):
    """The deterministic identity of a landed point."""
    return {
        "error": point.error,
        "mapped": point.mapped,
        "cycles": point.cycles,
        "output_digest": point.output_digest,
    }


def _is_quarantined(point):
    return point.error is not None and \
        point.error.startswith(CONTAINMENT_PREFIXES)


def _run_phase(name, specs, fault_text, cache_dir, workers,
               point_timeout, progress):
    from repro.runtime.cache import ResultCache
    from repro.runtime.pool import run_sweep

    before = _counter_totals()
    with _fault_env(fault_text):
        result = run_sweep(
            specs, workers=workers,
            cache=ResultCache(cache_dir),
            progress=progress,
            point_timeout=point_timeout)
    points = result.points
    summary = {
        "elapsed_seconds": round(result.elapsed_seconds, 3),
        "cache_hits": result.cache_hits,
        "quarantined": sum(1 for p in points if _is_quarantined(p)),
    }
    after = _counter_totals()
    summary.update({name: round(after[name] - before[name], 3)
                    for name in _COUNTERS})
    return points, summary


def run_chaos(specs, faults=None, workers=2, point_timeout=30.0,
              allow_quarantine=0, base_dir=None, progress=None):
    """Run the three-phase chaos comparison; returns the report.

    ``faults`` is a ``REPRO_FAULT``-grammar string (default:
    ``$REPRO_FAULT``, else :data:`DEFAULT_PLAN`); it is parsed —
    and rejected — up front, before any compute is spent.
    ``base_dir`` hosts the per-phase cache directories (default: a
    fresh temporary directory).
    """
    import tempfile

    if allow_quarantine < 0:
        # "Up to -1 quarantined points" fails every run, healed or
        # not: a usage error, not a verdict.
        raise ReproError(f"allow_quarantine must be >= 0, "
                         f"got {allow_quarantine}")
    if faults is None:
        faults = os.environ.get(ENV_FAULT) or DEFAULT_PLAN
    plan = parse_fault_plan(faults)
    if plan is None:
        raise ReproError("empty fault plan: nothing to inject")
    if workers < 2:
        # worker_crash / point_hang only fire in worker children and
        # containment implicates every in-flight spec — two workers
        # keep the collateral realistic while staying cheap.
        workers = 2
    specs = [spec.resolve() for spec in specs]
    if base_dir is None:
        base_dir = tempfile.mkdtemp(prefix="repro-chaos-")
    clean_dir = os.path.join(base_dir, "clean")
    fault_dir = os.path.join(base_dir, "faulted")

    clean, clean_summary = _run_phase(
        "clean", specs, None, clean_dir, workers, None, progress)
    cold, cold_summary = _run_phase(
        "fault_cold", specs, plan.describe(), fault_dir, workers,
        point_timeout, progress)
    warm, warm_summary = _run_phase(
        "fault_warm", specs, plan.describe(), fault_dir, workers,
        point_timeout, progress)

    reference = {spec.describe(): point
                 for spec, point in zip(specs, clean)}
    mismatched, quarantined, lost = [], [], []
    for phase, points in (("fault_cold", cold), ("fault_warm", warm)):
        for spec, point in zip(specs, points):
            key = spec.describe()
            if point is None:
                lost.append({"phase": phase, "spec": key})
                continue
            if _is_quarantined(point):
                quarantined.append({"phase": phase, "spec": key,
                                    "error": point.error})
                continue
            want = _signature(reference[key])
            got = _signature(point)
            if got != want:
                mismatched.append({"phase": phase, "spec": key,
                                   "expected": want, "got": got})
    ok = (not lost and not mismatched
          and len(quarantined) <= allow_quarantine)
    return {
        "kind": "chaos-report",
        "schema": CHAOS_SCHEMA,
        "ok": ok,
        "faults": plan.describe(),
        "points": len(specs),
        "workers": workers,
        "point_timeout": point_timeout,
        "allow_quarantine": allow_quarantine,
        "cache_base_dir": str(base_dir),
        "phases": {
            "clean": clean_summary,
            "fault_cold": cold_summary,
            "fault_warm": warm_summary,
        },
        "verdict": {
            "mismatched": mismatched,
            "quarantined": quarantined,
            "lost": lost,
        },
    }


def render_report(report):
    """The human-facing summary of one chaos run."""
    lines = [
        f"chaos: {report['points']} points under "
        f"'{report['faults']}' (workers={report['workers']}, "
        f"point-timeout={report['point_timeout']:g}s)"]
    for name, phase in report["phases"].items():
        injected = (phase["restarts"] if name != "fault_warm"
                    else phase["corrupt_entries"])
        lines.append(
            f"  {name:10s} {phase['elapsed_seconds']:7.1f}s  "
            f"hits={phase['cache_hits']:<3d} "
            f"restarts={phase['restarts']:g} "
            f"retries={phase['retries']:g} "
            f"corrupt={phase['corrupt_entries']:g} "
            f"quarantined={phase['quarantined']}"
            + ("" if injected or name == "clean" else "  (no faults fired)"))
    verdict = report["verdict"]
    lines.append(
        f"verdict: {'OK' if report['ok'] else 'FAILED'} — "
        f"{len(verdict['mismatched'])} mismatched, "
        f"{len(verdict['lost'])} lost, "
        f"{len(verdict['quarantined'])} quarantined "
        f"(allowed {report['allow_quarantine']})")
    for entry in verdict["mismatched"][:10]:
        lines.append(f"  mismatch [{entry['phase']}] {entry['spec']}: "
                     f"expected {entry['expected']}, got "
                     f"{entry['got']}")
    for entry in verdict["quarantined"][:10]:
        lines.append(f"  quarantined [{entry['phase']}] "
                     f"{entry['spec']}: {entry['error']}")
    return "\n".join(lines)
