"""The three-phase chaos harness: faulted runs must equal clean runs.

One small real run (two specs, real workers, real injected crashes)
proves the whole loop: plan parsing, injection, containment, warm
cache corruption, and the signature comparison that turns it all
into a verdict.
"""

import pytest

from repro.chaos.harness import (
    CHAOS_SCHEMA,
    DEFAULT_PLAN,
    render_report,
    run_chaos,
)
from repro.cli import main
from repro.errors import ReproError
from repro.runtime.sweep import PointSpec

SPECS = [
    PointSpec("dc_filter", "HOM64", "basic"),
    PointSpec("dc_filter", "HET1", "basic"),
]


class TestRunChaos:
    def test_bad_plan_is_rejected_before_any_compute(self, tmp_path):
        with pytest.raises(ReproError, match="unknown fault kind"):
            run_chaos(SPECS, faults="disk_melt:p=1",
                      base_dir=tmp_path)

    def test_empty_plan_is_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="empty fault plan"):
            run_chaos(SPECS, faults="seed=3", base_dir=tmp_path)

    def test_negative_quarantine_allowance_is_rejected_up_front(
            self, tmp_path, capsys):
        # No run could pass "at most -1 quarantined points": it is a
        # usage error (exit 1), raised before any phase writes.
        with pytest.raises(ReproError, match="allow_quarantine"):
            run_chaos(SPECS, allow_quarantine=-1, base_dir=tmp_path)
        assert main(["chaos", "--kernels", "dc_filter", "--configs",
                     "HOM64", "--variants", "basic", "--quiet",
                     "--allow-quarantine", "-1"]) == 1
        assert "error: allow_quarantine" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_crash_and_corrupt_run_heals_to_the_clean_answer(
            self, tmp_path):
        report = run_chaos(
            SPECS, faults="worker_crash:p=1,attempts=1;"
                          "cache_corrupt:p=1",
            workers=2, point_timeout=30.0, base_dir=tmp_path)
        assert report["ok"], render_report(report)
        assert report["schema"] == CHAOS_SCHEMA
        assert report["points"] == len(SPECS)
        verdict = report["verdict"]
        assert verdict["mismatched"] == []
        assert verdict["lost"] == []
        assert verdict["quarantined"] == []
        phases = report["phases"]
        # The lane must prove faults actually fired: cold crashes
        # restart the pool, warm reads trip the corrupt-entry path.
        assert phases["clean"]["restarts"] == 0
        assert phases["fault_cold"]["restarts"] >= 1
        assert phases["fault_cold"]["retries"] >= len(SPECS)
        assert phases["fault_warm"]["corrupt_entries"] >= 1
        assert phases["fault_warm"]["cache_hits"] < len(SPECS)
        # Single-worker requests are bumped: the injected kinds only
        # fire inside pool children.
        assert report["workers"] >= 2
        text = render_report(report)
        assert "verdict: OK" in text

    def test_default_plan_parses(self):
        from repro.chaos.faults import parse_fault_plan

        plan = parse_fault_plan(DEFAULT_PLAN)
        assert plan.clause("worker_crash").attempts == 1
        assert plan.clause("cache_corrupt") is not None
