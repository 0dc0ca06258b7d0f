"""Trace analytics: critical path, self time, occupancy, stragglers."""

import json

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.obs import trace
from repro.obs.analyze import (
    analyze_spans,
    load_trace_file,
    render_analysis,
    spans_from_chrome,
)

TRACE = "0" * 31 + "1"


def make_span(name, span_id, parent_id, start_us, wall_us,
              pid=1, thread="main", status="ok", **attrs):
    return {
        "name": name, "trace_id": TRACE,
        "span_id": span_id, "parent_id": parent_id,
        "start_unix_us": start_us, "wall_us": wall_us,
        "cpu_us": wall_us, "pid": pid, "thread": thread,
        "status": status, "attrs": attrs,
    }


def sequential_tree():
    """root(0..100) -> a(0..40) -> a1(10..30), then b(40..90)."""
    return [
        make_span("root", "r" * 16, None, 0, 100),
        make_span("a", "a" * 16, "r" * 16, 0, 40),
        make_span("a1", "1" * 16, "a" * 16, 10, 20),
        make_span("b", "b" * 16, "r" * 16, 40, 50),
    ]


class TestCriticalPath:
    def test_ids_exist_and_duration_bounded(self):
        spans = sequential_tree()
        payload = analyze_spans(spans)
        ids = {span["span_id"] for span in spans}
        assert all(row["span_id"] in ids
                   for row in payload["critical_path"])
        assert payload["critical_path_us"] <= \
            payload["root"]["wall_us"]

    def test_sequential_stages_all_credited(self):
        payload = analyze_spans(sequential_tree())
        names = [row["name"] for row in payload["critical_path"]]
        # Both sequential children are on the path, not just the
        # latest-ending one.
        assert "a" in names and "b" in names and "a1" in names
        by_name = {row["name"]: row
                   for row in payload["critical_path"]}
        # a's on-path time excludes a1's nested 20us: 40 - 20 = 20,
        # root's own time is the 10us tail after b.
        assert by_name["a"]["self_us"] == 20
        assert by_name["a1"]["self_us"] == 20
        assert by_name["b"]["self_us"] == 50
        assert by_name["root"]["self_us"] == 10
        assert payload["critical_path_us"] == 100

    def test_overlapping_children_never_exceed_root(self):
        # Two children covering the same window (parallel workers).
        spans = [
            make_span("root", "r" * 16, None, 0, 100),
            make_span("w0", "a" * 16, "r" * 16, 0, 100),
            make_span("w1", "b" * 16, "r" * 16, 0, 100),
        ]
        payload = analyze_spans(spans)
        assert payload["critical_path_us"] <= 100

    def test_child_clock_skew_clipped_to_parent(self):
        # A worker span (separate process clock) leaking past the
        # root's window must not mint critical-path time.
        spans = [
            make_span("root", "r" * 16, None, 0, 100),
            make_span("late", "a" * 16, "r" * 16, 50, 500),
        ]
        payload = analyze_spans(spans)
        assert payload["critical_path_us"] <= 100


class TestStagesAndWorkers:
    def test_self_time_exclusive_of_children(self):
        payload = analyze_spans(sequential_tree())
        stages = {row["name"]: row for row in payload["stages"]}
        assert stages["root"]["total_self_us"] == 10  # 100-40-50
        assert stages["a"]["total_self_us"] == 20     # 40-20
        assert stages["b"]["total_self_us"] == 50

    def test_stage_rows_sorted_by_self_time(self):
        payload = analyze_spans(sequential_tree())
        selfs = [row["total_self_us"] for row in payload["stages"]]
        assert selfs == sorted(selfs, reverse=True)

    def test_worker_occupancy_union_not_double_counted(self):
        # One lane, nested spans: busy time is the union (100), not
        # the sum (190).
        payload = analyze_spans(sequential_tree())
        assert len(payload["workers"]) == 1
        lane = payload["workers"][0]
        assert lane["busy_us"] == 100
        assert lane["utilization"] == 1.0

    def test_idle_lane_shows_low_utilization(self):
        spans = sequential_tree() + [
            make_span("blip", "c" * 16, "r" * 16, 0, 10,
                      pid=2, thread="w0"),
        ]
        payload = analyze_spans(spans)
        lanes = {(row["pid"], row["thread"]): row
                 for row in payload["workers"]}
        assert lanes[(2, "w0")]["utilization"] == pytest.approx(0.1)


class TestStragglers:
    def shard_spans(self, walls):
        spans = [make_span("run_distributed", "d" * 16, None,
                           0, max(walls) + 10)]
        for i, wall in enumerate(walls):
            spans.append(make_span(
                "shard", f"{i:016x}", "d" * 16, 0, wall,
                shard=i, server=f"http://s{i}"))
        return spans

    def test_straggler_flagged_beyond_factor(self):
        payload = analyze_spans(self.shard_spans([100, 100, 300]))
        shards = payload["shards"]
        assert shards["count"] == 3
        assert shards["median_us"] == 100
        assert len(shards["stragglers"]) == 1
        straggler = shards["stragglers"][0]
        assert straggler["shard"] == 2
        assert straggler["server"] == "http://s2"
        assert straggler["ratio"] == 3.0

    def test_balanced_shards_have_no_stragglers(self):
        payload = analyze_spans(self.shard_spans([100, 110, 105]))
        assert payload["shards"]["stragglers"] == []

    def test_single_shard_never_a_straggler(self):
        payload = analyze_spans(self.shard_spans([100]))
        assert payload["shards"]["count"] == 1
        assert payload["shards"]["stragglers"] == []


class TestRobustness:
    def test_empty_spans_raise(self):
        with pytest.raises(ReproError, match="no spans"):
            analyze_spans([])

    def test_orphan_parents_counted_not_fatal(self):
        spans = [
            make_span("root", "r" * 16, None, 0, 100),
            make_span("lost", "a" * 16, "f" * 16, 0, 10),
        ]
        payload = analyze_spans(spans)
        assert payload["orphans"] == 1
        assert payload["roots"] == 2
        assert payload["root"]["name"] == "root"

    def test_error_spans_counted(self):
        spans = sequential_tree()
        spans[2]["status"] = "error"
        payload = analyze_spans(spans)
        assert payload["errors"] == 1

    def test_payload_is_json_safe(self):
        payload = analyze_spans(sequential_tree())
        assert json.loads(json.dumps(payload)) == payload

    def test_render_mentions_critical_path(self):
        text = render_analysis(analyze_spans(sequential_tree()))
        assert "critical path" in text
        assert "worker occupancy" in text


class TestChromeRoundTrip:
    def test_live_spans_survive_chrome_export(self):
        trace.enable_tracing()
        with trace.span("outer", kernel="fir"):
            with trace.span("inner"):
                pass
        spans = trace.drain_spans()
        document = trace.chrome_trace(spans)
        back = spans_from_chrome(document)
        assert {s["span_id"] for s in back} == \
            {s["span_id"] for s in spans}
        by_id = {s["span_id"]: s for s in back}
        outer = next(s for s in back if s["name"] == "outer")
        inner = next(s for s in back if s["name"] == "inner")
        assert inner["parent_id"] == outer["span_id"]
        assert outer["attrs"]["kernel"] == "fir"
        assert by_id[outer["span_id"]]["trace_id"] == \
            outer["trace_id"]

    def test_analysis_equivalent_before_and_after(self, tmp_path):
        trace.enable_tracing()
        with trace.span("outer"):
            with trace.span("inner"):
                pass
        spans = trace.drain_spans()
        live = analyze_spans(spans)
        path = tmp_path / "t.json"
        trace.write_chrome_trace(path, spans)
        reloaded = analyze_spans(load_trace_file(path))
        assert reloaded["root"]["span_id"] == live["root"]["span_id"]
        assert [r["span_id"] for r in reloaded["critical_path"]] == \
            [r["span_id"] for r in live["critical_path"]]

    def test_junk_file_raises(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        with pytest.raises(ReproError, match="not JSON"):
            load_trace_file(bad)

    def test_foreign_chrome_trace_rejected(self, tmp_path):
        foreign = tmp_path / "foreign.json"
        foreign.write_text(json.dumps({"traceEvents": [
            {"ph": "X", "name": "x", "ts": 0, "dur": 5}]}))
        with pytest.raises(ReproError, match="no repro spans"):
            load_trace_file(foreign)


def _record_sweep_trace(path):
    """Record a one-point sweep's spans to ``path``."""
    assert main(["sweep", "--kernels", "dc_filter", "--configs",
                 "HOM64", "--variants", "basic", "--quiet",
                 "--trace-out", str(path)]) == 0


class TestCliAnalyze:
    def test_trace_analyze_from_file(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        _record_sweep_trace(out)
        capsys.readouterr()
        assert main(["trace", str(out)]) == 0
        text = capsys.readouterr().out
        assert "critical path" in text
        assert "sweep" in text

    def test_trace_analyze_json_payload(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        _record_sweep_trace(out)
        capsys.readouterr()
        assert main(["trace", str(out), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "trace-analysis"
        assert payload["critical_path_us"] <= \
            payload["root"]["wall_us"]
        ids = {row["span_id"] for row in payload["critical_path"]}
        assert ids  # non-empty path

    def test_missing_file_is_one_line_error(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "nope.json")]) == 1
        err = capsys.readouterr().err
        assert "error:" in err
