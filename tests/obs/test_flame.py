"""Sampling profiler: collection, collapsed-stack output, and the
CLI rule that a sampled run never reaches the ledger or a gate."""

import json
import time
from collections import Counter

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.obs.flame import (
    SamplingProfiler,
    collapsed_lines,
    render_flame,
    write_collapsed,
)
from repro.perf import bench_payload
from repro.perf.ledger import append_entry, ledger_path, make_entry
from repro.runtime.stream import ENV_POINT_TIMEOUT

SWEEP_ARGS = ["sweep", "--kernels", "dc_filter", "--configs", "HOM64",
              "--variants", "basic", "--quiet"]
BENCH_ARGS = ["bench", "--cases", "dc_filter@HOM64/basic",
              "--warmup", "0", "--repeat", "1", "--quiet"]


def busy_wait(seconds):
    """A distinctive frame the sampler can catch."""
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        sum(range(100))


class TestSamplingProfiler:
    def test_catches_busy_function(self):
        profiler = SamplingProfiler(hz=400)
        profiler.start()
        busy_wait(0.15)
        counts = profiler.stop()
        assert sum(counts.values()) > 0
        assert any("busy_wait" in stack for stack in counts)

    def test_zero_hz_rejected(self):
        with pytest.raises(ReproError, match="sampling rate"):
            SamplingProfiler(hz=0)

    def test_double_start_rejected(self):
        profiler = SamplingProfiler(hz=50)
        profiler.start()
        try:
            with pytest.raises(ReproError, match="already started"):
                profiler.start()
        finally:
            profiler.stop()

    def test_stop_idempotent(self):
        profiler = SamplingProfiler(hz=50)
        profiler.start()
        first = profiler.stop()
        assert profiler.stop() is first

    def test_thread_pinning_excludes_other_threads(self):
        import threading
        stop = threading.Event()

        def noisy_wait():
            stop.wait(2.0)

        noisy = threading.Thread(target=noisy_wait, daemon=True)
        noisy.start()
        profiler = SamplingProfiler(
            hz=400, thread_ids={threading.get_ident()})
        profiler.start()
        busy_wait(0.1)
        counts = profiler.stop()
        stop.set()
        # The unpinned thread's distinctive frame never appears.
        assert counts
        assert not any("noisy_wait" in stack for stack in counts)

    def test_stack_order_outermost_first(self):
        profiler = SamplingProfiler(hz=400)
        profiler.start()
        busy_wait(0.1)
        counts = profiler.stop()
        stack = next(s for s in counts if "busy_wait" in s)
        frames = stack.split(";")
        # busy_wait is innermost — at the tail, not the head.
        assert "busy_wait" in frames[-1]


class TestCollapsedOutput:
    def test_lines_sorted_and_formatted(self):
        counts = Counter({"m.f;m.g": 2, "m.a": 5})
        assert collapsed_lines(counts) == ["m.a 5", "m.f;m.g 2"]

    def test_write_collapsed_round_trips(self, tmp_path):
        counts = Counter({"mod.outer;mod.inner": 7})
        path = tmp_path / "out.flame"
        write_collapsed(path, counts)
        assert path.read_text() == "mod.outer;mod.inner 7\n"

    def test_render_flame_ranks_leaves(self):
        counts = Counter({"a;b;hot": 80, "a;b;cold": 20})
        text = render_flame(counts)
        assert "100 sample(s)" in text
        assert text.index("hot") < text.index("cold")

    def test_render_empty_suggests_fix(self):
        hint = render_flame(Counter())
        assert "bench --repeat" in hint
        assert "--hz" not in hint


class TestCliFlame:
    #: Profiling one case: map it repeatedly under one sample (one
    #: mapping is too fast to sample).
    PROFILE_ARGS = ["bench", "--cases", "dc_filter@HOM64/basic",
                    "--warmup", "0", "--repeat", "4", "--quiet"]

    def test_profile_flame_renders_table(self, tmp_path, capsys):
        target = tmp_path / "case.flame"
        assert main(self.PROFILE_ARGS + ["--flame-out",
                                         str(target)]) == 0
        err = capsys.readouterr().err
        assert f"stack sample(s) @ 97 Hz -> {target}" in err
        assert "distinct stack(s)" in err
        assert "self%  total%  samples  function" in err
        assert "hottest stacks:" in err

    def test_profile_flame_out_writes_collapsed(self, tmp_path,
                                                capsys):
        target = tmp_path / "case.flame"
        assert main(self.PROFILE_ARGS + ["--flame-out",
                                         str(target)]) == 0
        capsys.readouterr()
        lines = target.read_text().splitlines()
        # Collapsed format: "frame;frame;... count".
        assert all(line.rsplit(" ", 1)[1].isdigit()
                   for line in lines if line)

    def test_sweep_flame_out(self, tmp_path, capsys):
        target = tmp_path / "sweep.flame"
        assert main(SWEEP_ARGS + ["--cache-dir", str(tmp_path),
                                  "--flame-out", str(target)]) == 0
        err = capsys.readouterr().err
        assert target.exists()
        assert "stack sample(s)" in err

    @pytest.mark.parametrize("extra", [["--workers", "2"],
                                       ["--shard", "0/2"]])
    def test_sweep_flame_out_needs_the_driving_thread(
            self, tmp_path, capsys, extra):
        # Worker processes leave the sampled thread waiting on the
        # pool, and a shard never opened the profile at all.
        target = tmp_path / "sweep.flame"
        assert main(SWEEP_ARGS + extra + [
            "--cache-dir", str(tmp_path),
            "--flame-out", str(target)]) == 1
        assert "--flame-out" in capsys.readouterr().err
        assert not target.exists()

    @pytest.mark.parametrize("source", ["flag", "environment"])
    def test_sweep_flame_out_refuses_a_point_deadline(
            self, tmp_path, capsys, monkeypatch, source):
        # A deadline sends even --workers 1 through the executor, so
        # the sampled thread would only wait on the pool.
        extra = ["--point-timeout", "60"] if source == "flag" else []
        if source == "environment":
            monkeypatch.setenv(ENV_POINT_TIMEOUT, "60")
        target = tmp_path / "sweep.flame"
        assert main(SWEEP_ARGS + extra + [
            "--cache-dir", str(tmp_path),
            "--flame-out", str(target)]) == 1
        assert "point deadline" in capsys.readouterr().err
        assert not target.exists()

    @pytest.mark.parametrize("command", [SWEEP_ARGS, BENCH_ARGS])
    def test_sampled_run_leaves_the_ledger_untouched(
            self, tmp_path, capsys, command):
        path = ledger_path(tmp_path)
        append_entry(make_entry("bench", {"cases": {}}), path)
        before = path.read_bytes()
        target = tmp_path / "run.flame"
        assert main(command + ["--cache-dir", str(tmp_path),
                               "--flame-out", str(target)]) == 0
        capsys.readouterr()
        assert target.exists()
        assert path.read_bytes() == before

    @pytest.mark.parametrize("gate", ["--compare", "--compare-ledger"])
    def test_sampled_bench_cannot_be_gated(self, tmp_path, capsys,
                                           gate):
        # Baselines every real run passes: only the usage error can
        # fail the command.
        path = ledger_path(tmp_path)
        append_entry(make_entry("bench", {
            "cases": {"dc_filter@HOM64/basic": 1e9}}), path)
        baseline = tmp_path / "BENCH_base.json"
        baseline.write_text(json.dumps(bench_payload(
            [{"case": "dc_filter@HOM64/basic", "seconds": 1e9,
              "samples": [1e9], "counts": {"mapped": True}}],
            warmup=0, repeat=1)))
        gate_args = [gate, str(baseline)] if gate == "--compare" \
            else [gate]
        target = tmp_path / "bench.flame"
        assert main(BENCH_ARGS + gate_args + [
            "--cache-dir", str(tmp_path),
            "--flame-out", str(target)]) == 1
        assert "--flame-out" in capsys.readouterr().err
        assert not target.exists()
