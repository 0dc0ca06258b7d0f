"""Dashboard renderer: valid standalone HTML, byte-stable output."""

from repro.cli import main
from repro.obs.analyze import analyze_spans
from repro.obs.report import render_report, svg_sparkline
from repro.perf.ledger import append_entry, ledger_path, make_entry


def fixed_entries():
    return [
        make_entry("bench", {
            "total_seconds": 1.0 + i * 0.1,
            "cases": {"fir@HOM32/full": 1.0 + i * 0.1},
            "warmup": 1, "repeat": 3, "reducer": "min",
        }, created_unix=1700000000 + i) for i in range(4)
    ] + [
        make_entry("sweep", {
            "points": 8, "computed": 8, "cache_hits": 0,
            "crashed": 0, "elapsed_seconds": 2.5,
        }, created_unix=1700000100),
        make_entry("diff", {
            "points": 8, "mismatches": 0, "ok": True,
            "backends": ["analytic", "cycle"],
            "elapsed_seconds": 3.0,
        }, created_unix=1700000200),
    ]


def fixed_analysis():
    spans = [
        {"name": "sweep", "trace_id": "t" * 32, "span_id": "r" * 16,
         "parent_id": None, "start_unix_us": 0, "wall_us": 1000,
         "cpu_us": 900, "pid": 1, "thread": "main", "status": "ok",
         "attrs": {}},
        {"name": "map <fir>", "trace_id": "t" * 32,
         "span_id": "a" * 16, "parent_id": "r" * 16,
         "start_unix_us": 100, "wall_us": 800, "cpu_us": 800,
         "pid": 1, "thread": "main", "status": "ok",
         "attrs": {"kernel": "<fir>&co"}},
    ]
    return analyze_spans(spans)


class TestSvgSparkline:
    def test_polyline_with_rounded_coords(self):
        svg = svg_sparkline([1.0, 2.0, 3.0])
        assert svg.startswith('<svg class="sparkline"')
        assert "<polyline" in svg and svg.endswith("</svg>")
        # Coordinates carry at most 2 decimals.
        for token in svg.split('points="')[1].split('"')[0].split():
            for coord in token.split(","):
                whole, _, frac = coord.partition(".")
                assert len(frac) <= 2

    def test_single_value_degrades_to_dot(self):
        svg = svg_sparkline([5.0])
        assert "<circle" in svg and "<polyline" not in svg

    def test_empty_is_empty(self):
        assert svg_sparkline([]) == ""

    def test_flat_series_renders(self):
        assert "<polyline" in svg_sparkline([2.0, 2.0, 2.0])

    def test_deterministic(self):
        assert svg_sparkline([1, 2, 3]) == svg_sparkline([1, 2, 3])


class TestRenderReport:
    def test_standalone_html_with_required_parts(self):
        html_text = render_report(ledger_entries=fixed_entries(),
                                  analysis=fixed_analysis(),
                                  metrics_text="# HELP x y\nx 1\n",
                                  cache_stats={"entries": 3,
                                               "total_bytes": 42})
        assert html_text.startswith("<!DOCTYPE html>")
        assert html_text.rstrip().endswith("</html>")
        assert '<svg class="sparkline"' in html_text
        assert '<table class="critical-path">' in html_text
        assert "prefers-color-scheme" in html_text
        # No external resources: self-contained by construction.
        assert "http://" not in html_text
        assert "<script" not in html_text

    def test_span_names_and_attrs_escaped(self):
        html_text = render_report(analysis=fixed_analysis())
        assert "map &lt;fir&gt;" in html_text
        assert "map <fir>" not in html_text

    def test_metrics_text_escaped(self):
        html_text = render_report(
            metrics_text='x{label="<b>"} 1\n')
        assert "&lt;b&gt;" in html_text

    def test_byte_stable_for_fixed_inputs(self):
        entries = fixed_entries()
        first = render_report(ledger_entries=entries,
                              analysis=fixed_analysis())
        second = render_report(ledger_entries=entries,
                               analysis=fixed_analysis())
        assert first == second

    def test_renders_with_no_inputs(self):
        html_text = render_report()
        assert "<!DOCTYPE html>" in html_text
        assert "empty" in html_text


class TestCliReport:
    def seed_ledger(self):
        path = ledger_path()
        for entry in fixed_entries():
            append_entry(entry, path)

    def test_report_writes_html(self, tmp_path, capsys):
        self.seed_ledger()
        out = tmp_path / "dash.html"
        assert main(["report", "--out", str(out), "--no-cache"]) == 0
        text = out.read_text()
        assert text.startswith("<!DOCTYPE html>")
        assert '<svg class="sparkline"' in text
        assert "report ->" in capsys.readouterr().err

    def test_report_byte_stable_across_invocations(self, tmp_path,
                                                   capsys):
        # The acceptance bar: same ledger -> same bytes, because the
        # renderer takes no timestamps of its own.
        self.seed_ledger()
        first, second = tmp_path / "a.html", tmp_path / "b.html"
        assert main(["report", "--out", str(first),
                     "--no-cache"]) == 0
        assert main(["report", "--out", str(second),
                     "--no-cache"]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_report_to_stdout(self, capsys):
        self.seed_ledger()
        assert main(["report", "--out", "-", "--no-cache"]) == 0
        assert "<!DOCTYPE html>" in capsys.readouterr().out

    def test_report_folds_in_trace(self, tmp_path, capsys):
        self.seed_ledger()
        trace_file = tmp_path / "trace.json"
        assert main(["sweep", "--kernels", "dc_filter",
                     "--configs", "HOM64", "--variants", "basic",
                     "--trace-out", str(trace_file), "--quiet"]) == 0
        out = tmp_path / "dash.html"
        assert main(["report", "--out", str(out), "--trace",
                     str(trace_file), "--no-cache"]) == 0
        capsys.readouterr()
        assert '<table class="critical-path">' in out.read_text()

    def test_report_includes_cache_stats(self, tmp_path, capsys):
        assert main(["sweep", "--kernels", "dc_filter", "--configs",
                     "HOM64", "--variants", "basic", "--quiet",
                     "--cache-dir", str(tmp_path)]) == 0
        out = tmp_path / "dash.html"
        assert main(["report", "--out", str(out), "--cache-dir",
                     str(tmp_path)]) == 0
        capsys.readouterr()
        text = out.read_text()
        assert "<h2>Cache</h2>" in text
        assert "total_bytes" in text

    def test_bad_trace_is_one_line_error(self, tmp_path, capsys):
        assert main(["report", "--out", "-", "--trace",
                     str(tmp_path / "nope.json"),
                     "--no-cache"]) == 1
        assert "error:" in capsys.readouterr().err
