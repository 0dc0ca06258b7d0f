"""Persistent run ledger: every measured run leaves a record.

The bench trajectory used to be a single frozen ``BENCH_N.json``
point per PR — fine for CI gating, useless for the question "has the
mapper been drifting slower over the last twenty runs on *this*
machine?".  The ledger answers it: an append-only JSONL file under
the cache directory (so ``REPRO_CACHE_DIR`` relocates and isolates it
exactly like cached results) to which every ``repro bench`` /
``repro sweep`` / ``repro diff`` appends one summary line — except a
run sampled with ``--flame-out``, which the profiler slows down.

Design points:

- **append-only JSONL** (:mod:`repro.jsonl`, shared with the serve
  job journal) — a crashed writer corrupts at most its own line, and
  readers skip malformed lines instead of dying;
- **schema-versioned** like every other repro document, with the
  command name and host recorded so comparisons can filter to
  same-host, same-command entries;
- **never fatal** — :func:`record` swallows OSError and honours
  ``REPRO_LEDGER=0``; telemetry must not fail the run it observes;
- **rolling-median gating** — ``repro bench --compare-ledger``
  synthesizes a baseline document from the median of the last N
  same-host bench entries and reuses the existing
  :func:`~repro.perf.schema.compare_benchmarks`, so one noisy run
  neither gates wrongly nor poisons the baseline.
"""

from __future__ import annotations

import datetime
import json
import os
import pathlib
import platform
import statistics
import time

from repro import __version__, jsonl
from repro.errors import ReproError
from repro.perf.schema import compare_benchmarks
from repro.runtime.cache import default_cache_dir

#: Version of a ledger entry.
LEDGER_SCHEMA = 1

#: Set to ``0``/``false``/``no`` to disable ledger recording.
ENV_LEDGER = "REPRO_LEDGER"

#: File name of the ledger inside the cache directory.
LEDGER_FILENAME = "ledger.jsonl"

#: Default window (entries) for rolling-median comparisons.
DEFAULT_WINDOW = 5


def ledger_path(cache_dir=None):
    """Ledger location: ``<cache dir>/ledger.jsonl``."""
    base = pathlib.Path(cache_dir) if cache_dir else default_cache_dir()
    return base / LEDGER_FILENAME


def recording_enabled():
    """False when ``REPRO_LEDGER`` opts out."""
    return os.environ.get(ENV_LEDGER, "").strip().lower() \
        not in ("0", "false", "no")


def make_entry(command, summary, created_unix=None):
    """One ledger line for a finished run of ``command``."""
    recorded = created_unix if created_unix is not None else time.time()
    return {
        "kind": "ledger-entry",
        "schema": LEDGER_SCHEMA,
        "command": command,
        "recorded_unix": round(recorded, 3),
        "recorded_at": datetime.datetime.fromtimestamp(
            recorded, datetime.timezone.utc).isoformat(),
        "hostname": platform.node(),
        "package_version": __version__,
        "summary": summary,
    }


#: Append one entry as a compact JSON line; returns the path.
append_entry = jsonl.append


def record(command, summary, cache_dir=None):
    """Best-effort append; returns the entry, or None when skipped.

    The ledger observes runs — it must never fail one.  Disabled via
    ``REPRO_LEDGER=0`` and silent on filesystem errors.
    """
    if not recording_enabled():
        return None
    entry = make_entry(command, summary)
    try:
        append_entry(entry, ledger_path(cache_dir))
    except OSError:
        return None
    return entry


def read_ledger(path=None, command=None, host=None, limit=None):
    """``(entries, skipped)`` oldest-first, with optional filters.

    Malformed lines (torn writes, foreign junk) are counted in
    ``skipped`` and otherwise ignored.  ``limit`` keeps the *newest*
    N entries after filtering.
    """
    entries, skipped = jsonl.read(
        path or ledger_path(), "ledger-entry",
        valid=lambda entry: isinstance(entry.get("summary"), dict))
    entries = [entry for entry in entries
               if (command is None or entry.get("command") == command)
               and (host is None or entry.get("hostname") == host)]
    if limit is not None and limit >= 0:
        entries = entries[-limit:] if limit else []
    return entries, skipped


def bench_summary(payload):
    """Ledger summary of a bench document (name → reduced seconds)."""
    return {
        "total_seconds": payload.get("total_seconds", 0.0),
        "cases": {case["case"]: case["seconds"]
                  for case in payload.get("cases", [])},
        "warmup": payload.get("warmup"),
        "repeat": payload.get("repeat"),
        "reducer": payload.get("reducer"),
    }


def sweep_summary(result):
    """Ledger summary of a :class:`~repro.runtime.sweep.SweepResult`."""
    return {
        "points": len(result.points),
        "computed": result.computed,
        "cache_hits": result.cache_hits,
        "crashed": len(result.crashed),
        "elapsed_seconds": round(result.elapsed_seconds, 6),
    }


def diff_summary(diff_result):
    """Ledger summary of a :class:`~repro.runtime.diff.DiffResult`."""
    document = diff_result.to_json()
    return {
        "points": document["summary"]["points"],
        "mismatches": document["mismatches"],
        "ok": document["ok"],
        "backends": document["backends"],
        "elapsed_seconds": document["summary"]["elapsed_seconds"],
    }


def compare_to_ledger(payload, entries, window=DEFAULT_WINDOW,
                      max_regress_pct=25.0):
    """Gate a bench document against the rolling ledger median.

    Synthesizes a baseline from the per-case median of the last
    ``window`` bench entries and defers to
    :func:`~repro.perf.schema.compare_benchmarks`.  Returns
    ``(rows, regressions, entries_used)``.
    """
    bench_entries = [entry for entry in entries
                     if entry.get("command") == "bench"][-window:]
    if not bench_entries:
        raise ReproError(
            "ledger holds no bench entries to compare against "
            "(run `repro bench` at least once first)")
    samples = {}
    for entry in bench_entries:
        for name, seconds in (entry["summary"].get("cases")
                              or {}).items():
            if isinstance(seconds, (int, float)):
                samples.setdefault(name, []).append(float(seconds))
    baseline = {"cases": [
        {"case": name, "seconds": statistics.median(values)}
        for name, values in sorted(samples.items())]}
    rows, regressions = compare_benchmarks(
        payload, baseline, max_regress_pct)
    return rows, regressions, len(bench_entries)


#: Unicode block glyphs for terminal sparklines, lowest to highest.
_SPARK_GLYPHS = "▁▂▃▄▅▆▇█"


def sparkline(values):
    """Terminal sparkline; flat/empty series render as mid blocks."""
    values = [float(value) for value in values]
    if not values:
        return ""
    low, high = min(values), max(values)
    if high <= low:
        return _SPARK_GLYPHS[3] * len(values)
    span = high - low
    return "".join(
        _SPARK_GLYPHS[min(len(_SPARK_GLYPHS) - 1,
                          int((value - low) / span
                              * len(_SPARK_GLYPHS)))]
        for value in values)


def _trend_value(entry):
    """The one number an entry contributes to its command's trend."""
    summary = entry.get("summary", {})
    command = entry.get("command")
    if command == "bench":
        return summary.get("total_seconds")
    return summary.get("elapsed_seconds")


def render_history(entries, skipped=0):
    """What ``repro history`` prints: per-command trends, then rows."""
    if not entries:
        return ("ledger is empty — bench/sweep/diff runs append to it "
                "automatically")
    by_command = {}
    for entry in entries:
        by_command.setdefault(entry.get("command", "?"),
                              []).append(entry)
    lines = []
    for command in sorted(by_command):
        rows = by_command[command]
        values = [value for value in
                  (_trend_value(entry) for entry in rows)
                  if isinstance(value, (int, float))]
        trend = f"  {sparkline(values)}" if len(values) >= 2 else ""
        lines.append(f"{command}: {len(rows)} run(s){trend}")
    lines.append("")
    lines.append(f"{'recorded (UTC)':25s} {'command':8s} "
                 f"{'host':12s} summary")
    for entry in entries:
        summary = entry.get("summary", {})
        if entry.get("command") == "bench":
            detail = (f"total {summary.get('total_seconds', 0):.3f}s, "
                      f"{len(summary.get('cases') or {})} case(s)")
        elif entry.get("command") == "sweep":
            detail = (f"{summary.get('points', 0)} point(s), "
                      f"{summary.get('cache_hits', 0)} hit(s), "
                      f"{summary.get('elapsed_seconds', 0):.3f}s")
        elif entry.get("command") == "diff":
            verdict = "ok" if summary.get("ok") else \
                f"{summary.get('mismatches', 0)} mismatch(es)"
            detail = f"{summary.get('points', 0)} point(s), {verdict}"
        else:
            detail = json.dumps(summary, sort_keys=True)[:60]
        stamp = str(entry.get("recorded_at", "?"))[:19]
        lines.append(f"{stamp:25s} {entry.get('command', '?'):8s} "
                     f"{str(entry.get('hostname', '?'))[:12]:12s} "
                     f"{detail}")
    if skipped:
        lines.append(f"({skipped} malformed line(s) skipped)")
    return "\n".join(lines)
