"""Trace analytics: turn a span tree into operator answers.

PR 8's tracer records *what happened*; this module answers *what it
means*.  Given a list of span dicts — live from the collector, or
reloaded from a ``--trace-out`` Chrome trace file — it computes:

- the **critical path**: the chain from the root span down through
  whichever child ends last at every level, i.e. the sequence of
  operations that actually bounded the run's wall clock (everything
  off this path overlapped something on it);
- **per-stage self time**: wall time exclusive of children, grouped
  by span name — the honest answer to "where does the time go",
  since a parent span's wall time double-counts everything nested
  inside it;
- **worker occupancy**: per ``(pid, thread)`` lane, how much of the
  root window the lane spent inside spans — idle lanes in a
  distributed sweep show up as low utilisation, not as a feeling;
- **straggler shards**: in a ``run_distributed`` trace, shards whose
  wall time exceeds ``straggler_factor ×`` the median shard — the
  servers the fleet waited on.

The result is a JSON-safe payload (``kind: "trace-analysis"``,
schema-versioned like the bench/sweep documents) surfaced by
``repro trace FILE`` and folded into the ``repro report``
dashboard.  Spans are analysed as *data*: a subset trace whose
parents were dropped by the bounded collector degrades to multiple
roots (counted in ``orphans``), never to a crash.
"""

from __future__ import annotations

import json
import statistics

from repro.errors import ReproError

#: Version of the trace-analysis payload.
TRACE_ANALYSIS_SCHEMA = 1

#: A shard slower than this multiple of the median shard is a
#: straggler (only meaningful with >= 2 shards).
DEFAULT_STRAGGLER_FACTOR = 1.5

#: Chrome-event ``args`` keys that carry span identity rather than
#: user attributes (the inverse of what ``chrome_trace`` injects).
_IDENTITY_ARGS = ("trace_id", "span_id", "parent_id", "cpu_ms",
                  "status")


def spans_from_chrome(document):
    """Reconstruct span dicts from Chrome trace-event JSON.

    The exporter rides every span's identity along in ``args``
    precisely so a saved ``--trace-out`` file remains analysable —
    this is the inverse transform.  Events without a ``span_id``
    (foreign traces, hand-edited files) are skipped, not fatal.
    """
    if not isinstance(document, dict):
        raise ReproError("not a Chrome trace document (expected a "
                         "JSON object with traceEvents)")
    events = document.get("traceEvents")
    if not isinstance(events, list):
        raise ReproError("not a Chrome trace document (no "
                         "traceEvents list)")
    spans = []
    for event in events:
        if not isinstance(event, dict) or event.get("ph") != "X":
            continue
        args = event.get("args") or {}
        span_id = args.get("span_id")
        if not isinstance(span_id, str) or not span_id:
            continue
        attrs = {key: value for key, value in args.items()
                 if key not in _IDENTITY_ARGS}
        try:
            cpu_us = int(round(float(args.get("cpu_ms", 0)) * 1000))
        except (TypeError, ValueError):
            cpu_us = 0
        spans.append({
            "name": str(event.get("name", "?")),
            "trace_id": str(args.get("trace_id") or ""),
            "span_id": span_id,
            "parent_id": args.get("parent_id"),
            "start_unix_us": int(event.get("ts", 0) or 0),
            "wall_us": int(event.get("dur", 0) or 0),
            "cpu_us": cpu_us,
            "pid": event.get("pid", 0),
            "thread": str(event.get("tid", "main")),
            "status": str(args.get("status", "ok")),
            "attrs": attrs,
        })
    return spans


def load_trace_file(path):
    """Spans from a ``--trace-out`` Chrome trace JSON file."""
    try:
        with open(path) as handle:
            document = json.load(handle)
    except OSError as error:
        raise ReproError(f"cannot read trace {path}: {error}") \
            from None
    except json.JSONDecodeError as error:
        raise ReproError(f"trace {path} is not JSON: {error}") \
            from None
    spans = spans_from_chrome(document)
    if not spans:
        raise ReproError(
            f"trace {path} holds no repro spans (was it written by "
            f"--trace-out?)")
    return spans


def _index(spans):
    """``(by_id, children, roots, orphans)`` for a span list.

    A root is a span with no parent *in this list* — the genuine
    root, plus any span whose parent the bounded collector dropped
    (those are additionally counted as orphans).
    """
    by_id = {}
    for span in spans:
        span_id = span.get("span_id")
        if isinstance(span_id, str) and span_id:
            by_id.setdefault(span_id, span)
    children = {}
    roots, orphans = [], 0
    for span in by_id.values():
        parent = span.get("parent_id")
        if parent is not None and parent in by_id:
            children.setdefault(parent, []).append(span)
        else:
            roots.append(span)
            if parent is not None:
                orphans += 1
    for kids in children.values():
        kids.sort(key=lambda s: (s.get("start_unix_us", 0),
                                 s["span_id"]))
    return by_id, children, roots, orphans


def _wall(span):
    return max(0, int(span.get("wall_us", 0) or 0))


def _end(span):
    return int(span.get("start_unix_us", 0) or 0) + _wall(span)


def _self_us(span, children):
    """Wall time exclusive of children, floored at zero.

    Children overlap freely (parallel workers under one sweep span),
    so the naive subtraction can go negative; a negative self time is
    an artifact, not an answer.
    """
    kids = children.get(span["span_id"], ())
    return max(0, _wall(span) - sum(_wall(kid) for kid in kids))


def _start(span):
    return int(span.get("start_unix_us", 0) or 0)


def _critical_segments(span, children, lo=None, hi=None, depth=0):
    """``(span, start, end)`` segments that bounded the wall clock.

    Walk backwards from the span's end: whatever child is active at
    the cursor is what the parent was waiting for, so recurse into
    it, then jump the cursor to that child's start and repeat.  Gaps
    between children — and a childless stretch — are the span's own
    time on the path.  Unlike a naive "descend into the latest-ending
    child" this credits *every* stage of a sequential pipeline, not
    just the last one.  Child intervals are clipped to the parent's
    (cross-process clock skew must not mint time), and segments are
    disjoint by construction, so their sum cannot exceed the root's
    wall.
    """
    start, end = _start(span), _end(span)
    if hi is not None:
        end = min(end, hi)
    if lo is not None:
        start = max(start, lo)
    if end <= start or depth > 200:
        return []
    segments = []
    cursor = end
    kids = [kid for kid in children.get(span["span_id"], ())
            if _end(kid) > start and _start(kid) < end]
    for kid in sorted(kids, key=lambda s: (_end(s), s["span_id"]),
                      reverse=True):
        kid_end = min(_end(kid), cursor)
        if kid_end <= start:
            break
        if kid_end < cursor:
            segments.append((span, kid_end, cursor))
        segments.extend(_critical_segments(
            kid, children, lo=start, hi=kid_end, depth=depth + 1))
        cursor = max(_start(kid), start)
        if cursor <= start:
            break
    if cursor > start:
        segments.append((span, start, cursor))
    return segments


def _lane_busy_us(lane_spans):
    """Union length of the lane's span intervals (overlap-safe)."""
    intervals = sorted((int(s.get("start_unix_us", 0) or 0), _end(s))
                       for s in lane_spans)
    busy = 0
    cursor = None
    for start, end in intervals:
        if cursor is None or start > cursor:
            busy += max(0, end - start)
            cursor = end
        elif end > cursor:
            busy += end - cursor
            cursor = end
    return busy


def analyze_spans(spans, straggler_factor=DEFAULT_STRAGGLER_FACTOR):
    """The :data:`TRACE_ANALYSIS_SCHEMA` payload for a span list."""
    spans = [span for span in spans
             if isinstance(span, dict)
             and isinstance(span.get("span_id"), str)]
    if not spans:
        raise ReproError("no spans to analyze (record them with "
                         "--trace-out or REPRO_TRACE=1)")
    by_id, children, roots, orphans = _index(spans)
    root = max(roots, key=lambda s: (_wall(s), s["span_id"]))
    root_wall = _wall(root)

    segments = _critical_segments(root, children)
    # One row per span on the path, in chronological order of first
    # contribution; self_us is its total on-path time.
    on_path = {}
    for span, seg_start, seg_end in sorted(
            segments, key=lambda seg: (seg[1], seg[0]["span_id"])):
        row = on_path.get(span["span_id"])
        if row is None:
            attrs = span.get("attrs") or {}
            row = on_path[span["span_id"]] = {
                "span_id": span["span_id"],
                "name": span.get("name", "?"),
                "wall_us": _wall(span),
                "self_us": 0,
                "start_unix_us": _start(span),
                "status": span.get("status", "ok"),
            }
            if attrs:
                row["attrs"] = {key: attrs[key]
                                for key in sorted(attrs)}
        row["self_us"] += seg_end - seg_start
    path_rows = list(on_path.values())
    # Segments are disjoint inside the root window, so the sum is
    # <= the root's wall by construction; the cap makes it a hard
    # guarantee even for traces whose cross-process clocks disagree.
    path_us = min(sum(row["self_us"] for row in path_rows),
                  root_wall) if root_wall else 0

    stages = {}
    for span in by_id.values():
        name = span.get("name", "?")
        entry = stages.setdefault(name, {
            "name": name, "count": 0, "total_self_us": 0,
            "total_wall_us": 0, "max_wall_us": 0, "errors": 0})
        entry["count"] += 1
        entry["total_self_us"] += _self_us(span, children)
        entry["total_wall_us"] += _wall(span)
        entry["max_wall_us"] = max(entry["max_wall_us"], _wall(span))
        if span.get("status") == "error":
            entry["errors"] += 1
    stage_rows = sorted(stages.values(),
                        key=lambda row: (-row["total_self_us"],
                                         row["name"]))

    lanes = {}
    for span in by_id.values():
        lanes.setdefault((span.get("pid", 0),
                          str(span.get("thread", "main"))),
                         []).append(span)
    worker_rows = []
    for (pid, thread), lane_spans in sorted(lanes.items(),
                                            key=lambda kv: (str(kv[0][0]),
                                                            kv[0][1])):
        busy = min(_lane_busy_us(lane_spans), root_wall) \
            if root_wall else _lane_busy_us(lane_spans)
        worker_rows.append({
            "pid": pid, "thread": thread,
            "spans": len(lane_spans), "busy_us": busy,
            "utilization": round(busy / root_wall, 4)
            if root_wall else 0.0,
        })

    shard_spans = [span for span in by_id.values()
                   if span.get("name") == "shard"]
    shard_walls = sorted(_wall(span) for span in shard_spans)
    stragglers = []
    median_us = statistics.median(shard_walls) if shard_walls else 0
    if len(shard_spans) >= 2 and median_us > 0:
        for span in shard_spans:
            ratio = _wall(span) / median_us
            if ratio > straggler_factor:
                attrs = span.get("attrs") or {}
                stragglers.append({
                    "span_id": span["span_id"],
                    "shard": attrs.get("shard"),
                    "server": attrs.get("server"),
                    "wall_us": _wall(span),
                    "ratio": round(ratio, 2),
                })
        stragglers.sort(key=lambda row: -row["wall_us"])

    return {
        "kind": "trace-analysis",
        "schema": TRACE_ANALYSIS_SCHEMA,
        "trace_id": root.get("trace_id", ""),
        "spans": len(by_id),
        "roots": len(roots),
        "orphans": orphans,
        "errors": sum(1 for span in by_id.values()
                      if span.get("status") == "error"),
        "root": {"span_id": root["span_id"],
                 "name": root.get("name", "?"),
                 "wall_us": root_wall},
        "critical_path": path_rows,
        "critical_path_us": path_us,
        "stages": stage_rows,
        "workers": worker_rows,
        "shards": {
            "count": len(shard_spans),
            "median_us": int(median_us),
            "max_us": shard_walls[-1] if shard_walls else 0,
            "straggler_factor": straggler_factor,
            "stragglers": stragglers,
        },
    }


def _ms(us):
    return f"{us / 1000.0:9.2f} ms"


def render_analysis(payload):
    """Human-readable analysis (what ``repro trace FILE`` prints)."""
    root = payload["root"]
    lines = [
        f"trace {payload['trace_id'] or '?'}: {payload['spans']} "
        f"span(s), root {root['name']} {_ms(root['wall_us']).strip()}"
        + (f", {payload['errors']} error span(s)"
           if payload["errors"] else "")
        + (f", {payload['orphans']} orphan(s)"
           if payload["orphans"] else ""),
        "",
        f"critical path — {_ms(payload['critical_path_us']).strip()} "
        f"of the root's {_ms(root['wall_us']).strip()}:",
    ]
    for row in payload["critical_path"]:
        attrs = row.get("attrs") or {}
        detail = " ".join(f"{key}={attrs[key]}"
                          for key in sorted(attrs)
                          if key not in ("stage",))
        flag = " !" if row["status"] == "error" else ""
        lines.append(f"  {row['name']:24s} {_ms(row['wall_us'])} wall "
                     f"{_ms(row['self_us'])} self{flag}"
                     + (f"  [{detail}]" if detail else ""))
    lines += ["", f"{'stage':24s} {'count':>6s} {'self':>12s} "
                  f"{'wall':>12s} {'max':>12s}"]
    for row in payload["stages"]:
        lines.append(f"{row['name']:24s} {row['count']:6d} "
                     f"{_ms(row['total_self_us'])} "
                     f"{_ms(row['total_wall_us'])} "
                     f"{_ms(row['max_wall_us'])}")
    lines += ["", "worker occupancy (of the root window):"]
    for row in payload["workers"]:
        lines.append(f"  pid {row['pid']}/{row['thread']:20s} "
                     f"{row['spans']:4d} span(s) "
                     f"{_ms(row['busy_us'])} busy "
                     f"{row['utilization']:6.1%}")
    shards = payload["shards"]
    if shards["count"]:
        lines += ["", f"shards: {shards['count']}, median "
                      f"{_ms(shards['median_us']).strip()}, max "
                      f"{_ms(shards['max_us']).strip()}"]
        if shards["stragglers"]:
            for row in shards["stragglers"]:
                lines.append(
                    f"  straggler shard {row['shard']} @ "
                    f"{row['server']}: {_ms(row['wall_us']).strip()} "
                    f"({row['ratio']}x median)")
        else:
            lines.append(f"  no shard beyond "
                         f"{shards['straggler_factor']}x the median")
    return "\n".join(lines)
