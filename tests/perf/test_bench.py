"""repro.perf — harness, schema and the regression gate."""

import json

import pytest

from repro import cli
from repro.errors import ReproError
from repro.perf import (
    BENCH_JSON_SCHEMA,
    BenchCase,
    bench_payload,
    compare_benchmarks,
    default_cases,
    load_bench_file,
    parse_bench_payload,
    parse_case,
    render_bench,
    render_comparison,
    run_bench,
)


class TestCases:
    def test_parse_case(self):
        case = parse_case("fft@hom32/full")
        assert case == BenchCase("fft", "HOM32", "full")
        assert case.name == "fft@HOM32/full"

    @pytest.mark.parametrize("text", [
        "fft", "fft@HOM32", "nope@HOM32/full", "fft@NOPE/full",
        "fft@HOM32/nope"])
    def test_parse_case_rejects_junk(self, text):
        with pytest.raises(ReproError):
            parse_case(text)

    def test_default_cases_are_the_tracked_suite(self):
        from repro.kernels import PAPER_KERNEL_ORDER
        cases = default_cases()
        assert [c.kernel for c in cases] == list(PAPER_KERNEL_ORDER)
        assert {c.config for c in cases} == {"HOM32"}
        assert {c.variant for c in cases} == {"full"}

    def test_default_cases_axes(self):
        cases = default_cases(kernels=("fir",),
                              configs=("HOM32", "het1"),
                              variants=("basic", "full"))
        assert len(cases) == 4
        assert {c.config for c in cases} == {"HOM32", "HET1"}


class TestHarness:
    def test_run_bench_payload_shape(self):
        results = run_bench([BenchCase("dc_filter", "HOM32", "basic")],
                            warmup=0, repeat=2)
        payload = bench_payload(results, warmup=0, repeat=2,
                                created_unix=123)
        parsed = parse_bench_payload(payload)
        assert parsed["schema"] == BENCH_JSON_SCHEMA
        assert parsed["reducer"] == "min"
        (case,) = parsed["cases"]
        assert case["case"] == "dc_filter@HOM32/basic"
        assert case["seconds"] == min(case["samples"])
        assert len(case["samples"]) == 2
        assert case["counts"]["mapped"] is True
        assert case["counts"]["ops"] > 0
        assert payload["total_seconds"] == case["seconds"]
        assert payload["host"]["python"]
        assert render_bench(payload)  # renders without blowing up

    def test_run_bench_rejects_bad_knobs(self):
        case = BenchCase("dc_filter", "HOM32", "basic")
        with pytest.raises(ReproError):
            run_bench([case], repeat=0)
        with pytest.raises(ReproError):
            run_bench([case], warmup=-1)


def _payload_with(seconds_by_case):
    cases = [{"case": name, "kernel": name.split("@")[0],
              "config": "HOM32", "variant": "full",
              "seconds": seconds, "samples": [seconds],
              "counts": {"mapped": True}}
             for name, seconds in seconds_by_case.items()]
    return bench_payload(cases, warmup=0, repeat=1)


class TestCompare:
    def test_detects_injected_regression(self):
        baseline = _payload_with({"a@HOM32/full": 1.0,
                                  "b@HOM32/full": 2.0})
        current = _payload_with({"a@HOM32/full": 1.1,
                                 "b@HOM32/full": 3.0})
        rows, regressions = compare_benchmarks(current, baseline)
        assert len(rows) == 2
        assert [r["case"] for r in regressions] == ["b@HOM32/full"]
        assert regressions[0]["delta_pct"] == 50.0
        assert "REGRESSION" in render_comparison(rows, regressions)

    def test_faster_and_new_cases_are_fine(self):
        baseline = _payload_with({"a@HOM32/full": 2.0})
        current = _payload_with({"a@HOM32/full": 1.0,
                                 "new@HOM32/full": 9.0})
        _, regressions = compare_benchmarks(current, baseline)
        assert regressions == []

    def test_load_bench_file_rejects_junk(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{\"kind\": \"sweep\"}")
        with pytest.raises(ReproError):
            load_bench_file(path)
        path.write_text("not json")
        with pytest.raises(ReproError):
            load_bench_file(path)


class TestCLI:
    def test_bench_compare_exits_nonzero_on_regression(self, tmp_path,
                                                       capsys):
        # An impossible-to-beat baseline: any real timing is a
        # regression beyond every threshold.
        baseline = _payload_with({"dc_filter@HOM32/basic": 1e-9})
        path = tmp_path / "BENCH_base.json"
        path.write_text(json.dumps(baseline))
        code = cli.main(["bench", "--cases", "dc_filter@HOM32/basic",
                         "--warmup", "0", "--repeat", "1", "--quiet",
                         "--compare", str(path)])
        assert code == 3
        assert "REGRESSION" in capsys.readouterr().out

    def test_bench_compare_passes_generous_baseline(self, tmp_path,
                                                    capsys):
        baseline = _payload_with({"dc_filter@HOM32/basic": 1e9})
        path = tmp_path / "BENCH_base.json"
        path.write_text(json.dumps(baseline))
        code = cli.main(["bench", "--cases", "dc_filter@HOM32/basic",
                         "--warmup", "0", "--repeat", "1", "--quiet",
                         "--compare", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "no case regressed" in out

    def test_bench_json_and_out_file(self, tmp_path, capsys):
        out_file = tmp_path / "bench.json"
        code = cli.main(["bench", "--cases", "dc_filter@HOM32/basic",
                         "--warmup", "0", "--repeat", "1", "--quiet",
                         "--json", "--out", str(out_file)])
        assert code == 0
        stdout_doc = json.loads(capsys.readouterr().out)
        file_doc = json.loads(out_file.read_text())
        assert stdout_doc["cases"][0]["case"] == "dc_filter@HOM32/basic"
        assert (file_doc["cases"][0]["case"]
                == stdout_doc["cases"][0]["case"])
