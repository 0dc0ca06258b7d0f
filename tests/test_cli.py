"""CLI smoke tests (small but real end-to-end paths)."""

import json

import pytest

from repro.cli import main

#: A tiny but real sweep: two dc_filter points.
SWEEP_ARGS = ["sweep", "--kernels", "dc_filter", "--configs", "HOM64",
              "--variants", "basic,full"]


def run_json(capsys, argv):
    """Run the CLI, parse the stdout payload."""
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestCli:
    def test_kernels_listing(self, capsys):
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        assert "fir" in out
        assert "fft" in out

    def test_area(self, capsys):
        assert main(["area"]) == 0
        out = capsys.readouterr().out
        assert "HOM64" in out

    def test_map_dc_filter(self, capsys):
        assert main(["map", "dc_filter", "--config", "HET1"]) == 0
        out = capsys.readouterr().out
        assert "fits: True" in out
        assert "T16" in out

    def test_run_dc_filter(self, capsys):
        assert main(["run", "dc_filter", "--config", "HET1"]) == 0
        out = capsys.readouterr().out
        assert "verified OK" in out
        assert "speedup" in out

    def test_energy_dc_filter(self, capsys):
        assert main(["energy", "dc_filter", "--config", "HET1",
                     "--flow", "full"]) == 0
        out = capsys.readouterr().out
        assert "uJ" in out
        assert "leakage" in out

    def test_bad_kernel_rejected(self):
        with pytest.raises(SystemExit):
            main(["map", "unknown_kernel"])


class TestSweepJson:
    def test_cold_then_warm_computed_counts(self, tmp_path, capsys):
        argv = SWEEP_ARGS + ["--json", "--cache-dir", str(tmp_path)]
        code, cold = run_json(capsys, argv)
        assert code == 0
        assert cold["summary"]["computed"] == 2
        assert cold["summary"]["crashed"] == 0
        code, warm = run_json(capsys, argv)
        assert code == 0
        # The machine-checkable warm-cache assertion CI relies on.
        assert warm["summary"]["computed"] == 0
        assert warm["summary"]["cache_hits"] == 2
        assert [p["point"] for p in warm["points"]] \
            == [p["point"] for p in cold["points"]]

    def test_shards_merge_back_to_the_full_sweep(self, tmp_path,
                                                 capsys):
        cache = ["--cache-dir", str(tmp_path / "cache")]
        _, full = run_json(capsys, SWEEP_ARGS + ["--json"] + cache)
        files = []
        for index in range(2):
            argv = SWEEP_ARGS + ["--json", "--shard", f"{index}/2"] \
                + cache
            code, payload = run_json(capsys, argv)
            assert code == 0
            assert payload["shard"] == {"index": index, "total": 2}
            path = tmp_path / f"shard-{index}.json"
            path.write_text(json.dumps(payload))
            files.append(str(path))
        code, merged = run_json(capsys, ["merge", "--json"] + files)
        assert code == 0
        assert merged["points"] == full["points"]

    def test_merge_rejects_incomplete_shards(self, tmp_path, capsys):
        cache = ["--cache-dir", str(tmp_path / "cache")]
        _, payload = run_json(
            capsys, SWEEP_ARGS + ["--json", "--shard", "0/2"] + cache)
        path = tmp_path / "only.json"
        path.write_text(json.dumps(payload))
        assert main(["merge", str(path)]) == 1
        err = capsys.readouterr().err
        assert "cover" in err
        # The diagnostic names the absent shard index and which file
        # supplied the one that *is* there.
        assert "missing shard indices [1] of 2" in err
        assert "only.json" in err

    def test_bad_shard_rejected(self, capsys):
        assert main(SWEEP_ARGS + ["--shard", "4/2"]) == 1
        assert "shard index" in capsys.readouterr().err


class TestDiffCommand:
    #: Two dc_filter points through both backends — small but real.
    DIFF_ARGS = ["diff", "--kernels", "dc_filter", "--configs",
                 "HOM64", "--variants", "basic,full", "--no-cache",
                 "--quiet"]

    def test_fast_subset_is_within_tolerance(self, capsys):
        assert main(self.DIFF_ARGS) == 0
        out = capsys.readouterr().out
        assert "all within tolerance" in out

    def test_json_report_shape(self, capsys):
        code, payload = run_json(capsys, self.DIFF_ARGS + ["--json"])
        assert code == 0
        assert payload["ok"] is True
        assert payload["backends"] == ["analytic", "cycle"]
        assert payload["mismatches"] == 0
        assert payload["summary"]["points"] == 2
        for record in payload["points"]:
            assert record["status"] == "ok"
            assert record["output_match"] is True
            assert record["cycles"]["analytic"] \
                >= record["cycles"]["cycle"]

    def test_out_writes_the_artifact_file(self, tmp_path, capsys):
        report = tmp_path / "diff-report.json"
        assert main(self.DIFF_ARGS + ["--out", str(report)]) == 0
        capsys.readouterr()
        payload = json.loads(report.read_text())
        assert payload["ok"] is True
        assert payload["tolerance"] == {"abs": 2, "rel": 0.01}

    def test_zero_tolerance_flags_the_trailing_idle(self, capsys):
        # With tolerances forced to zero, the known one-cycle gap
        # between the backends becomes a reported mismatch and the
        # exit code is the differential verdict (4), so the gate in
        # CI genuinely bites.
        code = main(self.DIFF_ARGS + ["--abs-tol", "0",
                                      "--rel-tol", "0"])
        assert code == 4
        out = capsys.readouterr().out
        assert "cycles" in out

    def test_unknown_backend_rejected(self, capsys):
        assert main(self.DIFF_ARGS
                    + ["--backends", "analytic,sat"]) == 1
        assert "unknown backend" in capsys.readouterr().err

    def test_identical_backends_rejected(self, capsys):
        assert main(self.DIFF_ARGS
                    + ["--backends", "cycle,cycle"]) == 1
        assert "distinct" in capsys.readouterr().err


class TestSweepBackendFlag:
    def test_cycle_backend_sweep(self, capsys):
        code, payload = run_json(
            capsys, SWEEP_ARGS + ["--json", "--no-cache",
                                  "--backend", "cycle"])
        assert code == 0
        assert payload["summary"]["crashed"] == 0
        for record in payload["points"]:
            assert record["spec"]["backend"] == "cycle"
            assert record["point"]["output_digest"]

    def test_unknown_backend_rejected_before_any_work(self, capsys):
        assert main(SWEEP_ARGS + ["--backend", "typo"]) == 1
        assert "unknown backend" in capsys.readouterr().err


class TestMergeDiagnostics:
    """`repro merge` failures are one-line diagnoses naming the
    offending shard indices and files — never bare tracebacks."""

    def shard_file(self, capsys, tmp_path, index, total=2, seed=None):
        argv = list(SWEEP_ARGS) + ["--json", "--shard",
                                   f"{index}/{total}", "--cache-dir",
                                   str(tmp_path / "cache")]
        if seed is not None:
            argv += ["--seed", str(seed)]
        _, payload = run_json(capsys, argv)
        path = tmp_path / f"shard-{index}-{seed}.json"
        path.write_text(json.dumps(payload))
        return path

    def test_missing_file_is_a_clean_error(self, tmp_path, capsys):
        ghost = tmp_path / "ghost.json"
        assert main(["merge", str(ghost)]) == 1
        err = capsys.readouterr().err
        assert "cannot read" in err
        assert "ghost.json" in err

    def test_duplicate_shard_names_both_files(self, tmp_path,
                                              capsys):
        original = self.shard_file(capsys, tmp_path, 0)
        twin = tmp_path / "twin.json"
        twin.write_text(original.read_text())
        assert main(["merge", str(original), str(twin)]) == 1
        err = capsys.readouterr().err
        assert "shard 0 appears more than once" in err
        assert original.name in err
        assert twin.name in err

    def test_fingerprint_mismatch_names_both_files(self, tmp_path,
                                                   capsys):
        ours = self.shard_file(capsys, tmp_path, 0)
        theirs = self.shard_file(capsys, tmp_path, 1, seed=99)
        assert main(["merge", str(ours), str(theirs)]) == 1
        err = capsys.readouterr().err
        assert "different sweeps" in err
        assert ours.name in err
        assert theirs.name in err

    def test_missing_shard_lists_absent_indices(self, tmp_path,
                                                capsys):
        have = [self.shard_file(capsys, tmp_path, index, total=4)
                for index in (0, 2)]
        assert main(["merge", str(have[0]), str(have[1])]) == 1
        err = capsys.readouterr().err
        assert "missing shard indices [1, 3] of 4" in err
        assert have[0].name in err and have[1].name in err

    def test_record_without_a_point_names_the_file(self, tmp_path,
                                                   capsys):
        path = self.shard_file(capsys, tmp_path, 0, total=1)
        payload = json.loads(path.read_text())
        del payload["points"][0]["point"]
        path.write_text(json.dumps(payload))
        assert main(["merge", str(path)]) == 1
        err = capsys.readouterr().err
        assert "no 'point'" in err
        assert path.name in err

    def test_corrupt_huge_shard_total_diagnoses_promptly(
            self, tmp_path, capsys):
        # A hand-edited total of 10**12 must produce the coverage
        # diagnostic, not materialise a trillion-element range.
        path = self.shard_file(capsys, tmp_path, 0, total=2)
        payload = json.loads(path.read_text())
        payload["shard"]["total"] = 10**12
        path.write_text(json.dumps(payload))
        assert main(["merge", str(path)]) == 1
        err = capsys.readouterr().err
        assert "cover" in err
        assert "of 1000000000000" in err


class TestCacheCommand:
    def test_stats_prune_clear_cycle(self, tmp_path, capsys):
        cache_dir = ["--cache-dir", str(tmp_path)]
        assert main(SWEEP_ARGS + cache_dir) == 0
        capsys.readouterr()

        code, stats = run_json(capsys,
                               ["cache", "stats", "--json"] + cache_dir)
        assert code == 0
        assert stats["entries"] == 2
        assert stats["total_bytes"] > 0

        assert main(["cache", "prune", "--max-bytes", "0"]
                    + cache_dir) == 0
        assert "evicted 2" in capsys.readouterr().out

        assert main(SWEEP_ARGS + cache_dir) == 0
        capsys.readouterr()
        assert main(["cache", "clear"] + cache_dir) == 0
        assert "cleared 2" in capsys.readouterr().out
        _, stats = run_json(capsys,
                            ["cache", "stats", "--json"] + cache_dir)
        assert stats["entries"] == 0

    def test_human_stats(self, tmp_path, capsys):
        assert main(["cache", "stats", "--cache-dir",
                     str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries" in out
        assert "byte cap" in out

    def test_prune_without_cap_errors(self, tmp_path, capsys,
                                      monkeypatch):
        from repro.runtime.cache import ENV_CACHE_MAX_BYTES
        monkeypatch.delenv(ENV_CACHE_MAX_BYTES, raising=False)
        assert main(["cache", "prune", "--cache-dir",
                     str(tmp_path)]) == 1
        assert "no byte cap" in capsys.readouterr().err


class TestFigureFlags:
    def test_figure_shard_json_is_a_partial_sweep(self, tmp_path,
                                                  capsys):
        # 1/8 of fig10's 21 points = 2-3 dc-filter-sized mappings.
        code, payload = run_json(capsys, [
            "figure", "fig10", "--shard", "0/8", "--json",
            "--cache-dir", str(tmp_path)])
        assert code == 0
        assert payload["shard"] == {"index": 0, "total": 8}
        assert payload["spec_total"] == 21
        assert 0 < len(payload["points"]) < 21

    def test_unshardable_figure_errors(self, capsys):
        assert main(["figure", "fig9", "--shard", "0/2"]) == 1
        assert "no prewarmable" in capsys.readouterr().err

    def test_shard_without_cache_or_json_rejected(self, capsys):
        assert main(SWEEP_ARGS + ["--shard", "0/2", "--no-cache"]) == 1
        assert "discards all results" in capsys.readouterr().err
        assert main(["figure", "fig10", "--shard", "0/2",
                     "--no-cache"]) == 1
        assert "discards all results" in capsys.readouterr().err

    def test_figure_json_data(self, capsys):
        code, data = run_json(capsys, ["figure", "fig11", "--json"])
        assert code == 0
        assert data["CPU"]["ratio"] == 1.0
        assert "HOM64" in data

    def test_figure_choices_match_the_canonical_listing(self):
        # The parser keeps a literal copy of FIGURE_NAMES so that
        # building it never imports the eval/experiments stack; this
        # pins the two against drift.
        import argparse

        from repro.cli import _parser
        from repro.eval.experiments import FIGURE_NAMES
        parser = _parser()
        commands = next(action for action in parser._actions
                        if isinstance(action,
                                      argparse._SubParsersAction))
        name = next(action
                    for action in commands.choices["figure"]._actions
                    if action.dest == "name")
        assert tuple(name.choices) == tuple(FIGURE_NAMES)


def _commands_taking(flag):
    """Subcommands whose parser declares ``flag``."""
    import argparse

    from repro.cli import _parser
    commands = next(action for action in _parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    return sorted(name for name, parser in commands.choices.items()
                  if any(flag in action.option_strings
                         for action in parser._actions))


class TestUsageErrors:
    #: Flags retired for the module constants that replaced them, with
    #: arguments that reach the parser's verdict (nothing runs).
    RETIRED = [
        (["serve"], ["--max-finished-jobs", "64"]),
        (["serve"], ["--job-ttl", "60"]),
        (["serve"], ["--jobs", "2"]),
        (["serve"], ["--max-queued", "1"]),
        (["serve"], ["--max-specs", "10"]),
        (["submit", "--server", "http://127.0.0.1:9"],
         ["--idle-timeout", "5"]),
        (["submit", "--server", "http://127.0.0.1:9"],
         ["--retries", "2"]),
        (["bench"], ["--reducer", "median"]),
        (["bench"], ["--window", "3"]),
        (["bench"], ["--max-regress", "10"]),
        # trace only analyses a saved file; sweep --trace-out records.
        (["trace", "t.json"], ["--kernels", "fir"]),
        (["trace", "t.json"], ["--workers", "2"]),
        (["trace", "t.json"], ["--analyze"]),
        (["trace", "t.json"], ["--from", "t.json"]),
    ]

    @pytest.mark.parametrize("command,retired", RETIRED,
                             ids=[flag for _, (flag, *_) in RETIRED])
    def test_retired_flag_is_refused_by_name(self, capsys, command,
                                             retired):
        with pytest.raises(SystemExit) as caught:
            main(command + retired)
        assert caught.value.code == 2
        assert f"unrecognized arguments: {' '.join(retired)}" \
            in capsys.readouterr().err

    def test_retired_profile_command_is_refused(self, capsys):
        # bench --cases K@C/V --warmup 0 --flame-out FILE replaced it.
        with pytest.raises(SystemExit) as caught:
            main(["profile", "--kernel", "fir"])
        assert caught.value.code == 2
        assert "invalid choice: 'profile'" in capsys.readouterr().err

    #: Abbreviations of kept flags: refused, so that a removed flag
    #: which prefixes a kept one cannot live on as a hidden alias.
    ABBREVIATED = [
        ["sweep", "--flame", "s.txt"],
        ["bench", "--flame", "b.txt"],
        ["explore", "--strat", "exhaustive"],
    ]

    @pytest.mark.parametrize("argv", ABBREVIATED,
                             ids=[" ".join(argv[:2])
                                  for argv in ABBREVIATED])
    def test_abbreviated_flag_is_refused(self, capsys, argv):
        from repro.cli import _parser

        with pytest.raises(SystemExit) as caught:
            _parser().parse_args(argv)
        assert caught.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,least", [("--repeat", "0", 1),
                                                  ("--warmup", "-1", 0)],
                             ids=["--repeat", "--warmup"])
    def test_bench_count_below_its_floor_is_a_usage_error(
            self, capsys, flag, value, least):
        with pytest.raises(SystemExit) as caught:
            main(["bench", f"{flag}={value}"])
        assert caught.value.code == 2
        assert f"{flag}: must be at least {least}, got {value}" \
            in capsys.readouterr().err

    def test_every_worker_pool_command_is_covered(self):
        assert {"sweep", "figure", "explore", "serve"} \
            <= set(_commands_taking("--workers"))

    @pytest.mark.parametrize("command", _commands_taking("--workers"))
    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_is_a_usage_error(self, capsys, command,
                                                workers):
        with pytest.raises(SystemExit) as caught:
            main([command, f"--workers={workers}"])
        assert caught.value.code == 2
        assert f"--workers: must be at least 1, got {workers}" \
            in capsys.readouterr().err
