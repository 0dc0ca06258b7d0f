"""Run ledger: persistence, filtering, rolling-median gating, CLI."""

import json
import platform

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.perf import ledger
from repro.perf.ledger import (
    ENV_LEDGER,
    LEDGER_SCHEMA,
    append_entry,
    compare_to_ledger,
    ledger_path,
    make_entry,
    read_ledger,
    record,
    render_history,
    sparkline,
)

BENCH_ARGS = ["bench", "--cases", "dc_filter@HOM64/basic",
              "--warmup", "0", "--repeat", "1", "--quiet"]


def bench_entry(seconds, case="dc_filter@HOM64/basic",
                hostname=None):
    entry = make_entry("bench", {
        "total_seconds": seconds,
        "cases": {case: seconds},
        "warmup": 0, "repeat": 1, "reducer": "min",
    })
    if hostname is not None:
        entry["hostname"] = hostname
    return entry


class TestLedgerFile:
    def test_round_trip(self, tmp_path):
        path = ledger_path(tmp_path)
        append_entry(make_entry("sweep", {"points": 4}), path)
        append_entry(make_entry("bench", {"total_seconds": 1.0,
                                          "cases": {}}), path)
        entries, skipped = read_ledger(path)
        assert skipped == 0
        assert [e["command"] for e in entries] == ["sweep", "bench"]
        assert all(e["schema"] == LEDGER_SCHEMA for e in entries)
        assert all(e["hostname"] == platform.node()
                   for e in entries)

    def test_malformed_lines_skipped_not_fatal(self, tmp_path):
        path = ledger_path(tmp_path)
        append_entry(make_entry("bench", {"cases": {}}), path)
        with open(path, "a") as fh:
            fh.write("{torn line\n")
            fh.write(json.dumps({"kind": "something-else"}) + "\n")
        entries, skipped = read_ledger(path)
        assert len(entries) == 1
        assert skipped == 2

    def test_filters_and_limit(self, tmp_path):
        path = ledger_path(tmp_path)
        for i in range(5):
            append_entry(make_entry("bench", {"i": i}), path)
        append_entry(make_entry("sweep", {"points": 1}), path)
        bench_only, _ = read_ledger(path, command="bench")
        assert len(bench_only) == 5
        newest, _ = read_ledger(path, command="bench", limit=2)
        assert [e["summary"]["i"] for e in newest] == [3, 4]
        other_host, _ = read_ledger(path, host="not-this-host")
        assert other_host == []

    def test_missing_file_reads_empty(self, tmp_path):
        entries, skipped = read_ledger(tmp_path / "none.jsonl")
        assert entries == [] and skipped == 0

    def test_record_honours_cache_dir_env(self):
        # tests/conftest.py points REPRO_CACHE_DIR at a tmp dir, so
        # record() with no cache_dir lands there — never in $HOME.
        entry = record("bench", {"cases": {}})
        assert entry is not None
        entries, _ = read_ledger()
        assert entries[-1]["summary"] == {"cases": {}}

    def test_record_disabled_by_env(self, monkeypatch):
        monkeypatch.setenv(ENV_LEDGER, "0")
        assert record("bench", {"cases": {}}) is None
        entries, _ = read_ledger()
        assert entries == []

    def test_record_swallows_unwritable_dir(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where the dir should go")
        assert record("bench", {"cases": {}},
                      cache_dir=blocker / "sub") is None


class TestCompareToLedger:
    def test_median_of_window(self, monkeypatch):
        monkeypatch.setattr(ledger, "WINDOW", 3)
        entries = [bench_entry(s) for s in (1.0, 2.0, 3.0, 100.0)]
        current = {"cases": [{"case": "dc_filter@HOM64/basic",
                              "seconds": 2.4}]}
        rows, regressions, used = compare_to_ledger(current, entries)
        assert used == 3
        # Window keeps the newest 3 (2, 3, 100): median 3.0.
        assert rows[0]["baseline_seconds"] == 3.0
        assert regressions == []

    def test_regression_detected(self):
        entries = [bench_entry(1.0) for _ in range(5)]
        current = {"cases": [{"case": "dc_filter@HOM64/basic",
                              "seconds": 2.0}]}
        _, regressions, _ = compare_to_ledger(current, entries)
        assert len(regressions) == 1

    def test_empty_ledger_raises(self):
        current = {"cases": []}
        with pytest.raises(ReproError, match="no bench entries"):
            compare_to_ledger(current, [])

    def test_non_bench_entries_ignored(self):
        entries = [make_entry("sweep", {"points": 3})]
        with pytest.raises(ReproError, match="no bench entries"):
            compare_to_ledger({"cases": []}, entries)


class TestRendering:
    def test_sparkline_shape(self):
        line = sparkline([1, 2, 3, 8])
        assert len(line) == 4
        assert line[0] == "▁" and line[-1] == "█"
        assert sparkline([5, 5]) == "▄▄"
        assert sparkline([]) == ""

    def test_history_lists_runs_and_trend(self):
        entries = [bench_entry(s) for s in (0.5, 1.0, 2.0)]
        text = render_history(entries)
        assert "bench: 3 run(s)" in text
        assert "total 2.000s" in text

    def test_history_empty_message(self):
        assert "empty" in render_history([])

    def test_history_reports_skipped(self):
        text = render_history([bench_entry(1.0)], skipped=2)
        assert "2 malformed" in text


class TestCliLedger:
    def test_two_bench_runs_show_in_history(self, capsys):
        assert main(BENCH_ARGS) == 0
        assert main(BENCH_ARGS) == 0
        capsys.readouterr()
        assert main(["history", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        benches = [e for e in payload["entries"]
                   if e["command"] == "bench"]
        assert len(benches) >= 2

    def test_sweep_and_diff_append_entries(self, tmp_path, capsys):
        sweep = ["sweep", "--kernels", "dc_filter", "--configs",
                 "HOM64", "--variants", "basic", "--quiet",
                 "--cache-dir", str(tmp_path)]
        assert main(sweep) == 0
        assert main(["diff", "--kernels", "dc_filter", "--configs",
                     "HOM64", "--variants", "basic", "--quiet",
                     "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["history", "--cache-dir", str(tmp_path),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        commands = [e["command"] for e in payload["entries"]]
        assert "sweep" in commands and "diff" in commands

    def test_history_command_filter(self, capsys):
        assert main(BENCH_ARGS) == 0
        capsys.readouterr()
        assert main(["history", "--command", "sweep", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == []

    def test_compare_ledger_gates_injected_regression(self, capsys):
        # Seed the ledger with implausibly fast same-host runs: any
        # real run regresses against their median -> exit 3.
        path = ledger_path()
        for _ in range(5):
            append_entry(bench_entry(1e-6), path)
        assert main(BENCH_ARGS + ["--compare-ledger"]) == 3
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "ledger gate" in out

    def test_compare_ledger_passes_against_itself(self, capsys,
                                                  monkeypatch):
        from repro.perf import schema

        assert main(BENCH_ARGS) == 0
        # An immediate identical re-run sits at the median (one
        # entry); the wide headroom absorbs a one-repeat run's noise.
        monkeypatch.setattr(schema, "MAX_REGRESS_PCT", 400.0)
        assert main(BENCH_ARGS + ["--compare-ledger"]) == 0

    def test_compare_ledger_ignores_other_hosts(self, capsys):
        path = ledger_path()
        for _ in range(5):
            append_entry(bench_entry(1e-6, hostname="elsewhere"),
                         path)
        assert main(BENCH_ARGS + ["--compare-ledger"]) == 1
        assert "no bench entries" in capsys.readouterr().err

    def test_empty_ledger_gate_is_one_line_error(self, capsys):
        assert main(BENCH_ARGS + ["--compare-ledger"]) == 1
        assert "no bench entries" in capsys.readouterr().err
