"""repro.bench: case registry, report schema, regression gating, CLI."""

from __future__ import annotations

import json
import os

import pytest

from repro.bench import (
    BenchCase,
    build_cases,
    case_names,
    compare_reports,
    environment_fingerprint,
    load_report,
    run_case,
    run_cases,
    validate_report,
    write_report,
)
from repro.bench.__main__ import main as run_bench_cli
from repro.errors import BenchmarkError


def tiny_case(name: str = "tiny", group: str = "unit") -> BenchCase:
    return BenchCase(
        name=name,
        group=group,
        setup=lambda: list(range(100)),
        body=lambda state: sum(state),
        repeats=2,
    )


def tiny_report(**case_kwargs) -> dict:
    report = run_cases([tiny_case(**case_kwargs)], suite="smoke")
    return validate_report(report)


class TestCaseRegistry:
    def test_smoke_suite_covers_required_groups(self):
        cases = build_cases("smoke")
        groups = {case.group for case in cases}
        assert {"driver", "compile", "campaign", "sort", "overhead"} <= groups

    def test_full_suite_scales_sort_sides(self):
        smoke = {c.name for c in build_cases("smoke")}
        full = {c.name for c in build_cases("full")}
        assert "sort_snake_1_side16" in smoke
        assert "sort_snake_1_side64" not in smoke
        assert {"sort_snake_1_side16", "sort_snake_1_side32",
                "sort_snake_1_side64"} <= full

    def test_every_paper_algorithm_present(self):
        from repro.core.algorithms import ALGORITHM_NAMES

        names = set(case_names("smoke"))
        for algorithm in ALGORITHM_NAMES:
            assert f"sort_{algorithm}_side16" in names

    def test_unknown_suite_rejected(self):
        with pytest.raises(BenchmarkError):
            build_cases("nightly")


class TestRunner:
    def test_report_is_schema_valid(self):
        report = tiny_report()
        entry = report["cases"]["tiny"]
        assert entry["repeats"] == 2
        assert entry["wall"]["min"] <= entry["wall"]["mean"] <= entry["wall"]["max"]

    def test_env_fingerprint_fields(self):
        env = environment_fingerprint()
        assert {"python", "platform", "machine", "numpy", "repro"} <= env.keys()

    def test_env_fingerprint_counts_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert environment_fingerprint()["cpu_count"] == 1

    def test_repeats_override_and_validation(self):
        report = run_cases([tiny_case()], suite="smoke", repeats=4)
        assert report["cases"]["tiny"]["repeats"] == 4
        with pytest.raises(BenchmarkError):
            run_case(tiny_case(), repeats=0)

    def test_sort_case_records_span_breakdown(self):
        (case,) = [c for c in build_cases("smoke") if c.name == "sort_snake_1_side16"]
        entry = run_case(case, repeats=1)
        assert {"run", "compile", "kernel"} <= entry["spans"].keys()

    def test_batched_sample_case_runs_the_strided_loop(self):
        (case,) = [
            c for c in build_cases("smoke") if c.name == "sample_snake_1_side32_batch64"
        ]
        assert case.group == "sort"
        entry = run_case(case, repeats=1)
        spans = entry["spans"]
        assert {"kernel", "step", "detect", "replay"} <= spans.keys()
        # One batched run; every stride is stepped, then checked once.
        assert spans["run"]["count"] == 1
        assert spans["detect"]["count"] == spans["step"]["count"]

    def test_write_and_load_roundtrip(self, tmp_path):
        report = tiny_report()
        path = tmp_path / "deep" / "BENCH_test.json"
        write_report(report, path)  # creates parent dirs
        assert load_report(path) == report

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d.pop("format"), "format"),
            (lambda d: d.update(schema_version=99), "schema_version"),
            (lambda d: d.pop("cases"), "cases"),
            (lambda d: d["cases"]["tiny"].pop("wall"), "wall"),
        ],
    )
    def test_schema_violations_rejected(self, mutate, message):
        report = tiny_report()
        mutate(report)
        with pytest.raises(BenchmarkError, match=message):
            validate_report(report)

    def test_load_rejects_missing_and_invalid_files(self, tmp_path):
        with pytest.raises(BenchmarkError, match="not found"):
            load_report(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(BenchmarkError, match="not valid JSON"):
            load_report(bad)


def slowed(report: dict, name: str, factor: float) -> dict:
    out = json.loads(json.dumps(report))
    out["cases"][name]["wall"] = {
        k: v * factor for k, v in out["cases"][name]["wall"].items()
    }
    return out


class TestCompare:
    def test_identical_reports_pass(self):
        report = tiny_report()
        comparison = compare_reports(report, report)
        assert comparison.ok
        assert comparison.exit_code() == 0
        assert comparison.env_matches

    def test_injected_slowdown_is_a_regression(self):
        baseline = tiny_report()
        comparison = compare_reports(slowed(baseline, "tiny", 10.0), baseline)
        assert not comparison.ok
        assert comparison.exit_code() == 1
        (finding,) = comparison.regressions
        assert finding.status == "regression"
        assert finding.ratio == pytest.approx(10.0)

    def test_per_case_threshold_overrides_default(self):
        baseline = tiny_report()
        baseline["cases"]["tiny"]["threshold"] = 20.0
        comparison = compare_reports(slowed(baseline, "tiny", 10.0), baseline)
        assert comparison.ok

    def test_missing_case_gates_new_case_does_not(self):
        baseline = tiny_report()
        current = tiny_report(name="renamed")
        comparison = compare_reports(current, baseline)
        statuses = {c.name: c.status for c in comparison.cases}
        assert statuses == {"tiny": "missing", "renamed": "new"}
        assert comparison.exit_code() == 1

    def test_speedup_reported_as_improvement(self):
        baseline = tiny_report()
        comparison = compare_reports(slowed(baseline, "tiny", 0.1), baseline)
        assert comparison.ok
        assert comparison.cases[0].status == "improvement"

    def test_bad_threshold_rejected(self):
        report = tiny_report()
        with pytest.raises(BenchmarkError):
            compare_reports(report, report, default_threshold=0.0)

    def test_render_names_the_verdict(self):
        baseline = tiny_report()
        text = compare_reports(slowed(baseline, "tiny", 10.0), baseline).render()
        assert "regression" in text
        assert "REGRESSIONS" in text


class TestCli:
    def run_tiny(self, tmp_path, *extra: str) -> tuple[int, str]:
        out = tmp_path / "bench.json"
        code = run_bench_cli(
            [
                "--smoke",
                "--cases",
                "compile_cache_hit",
                "--repeats",
                "1",
                "--quiet",
                "--json-out",
                str(out),
                *extra,
            ]
        )
        return code, str(out)

    def test_list_exits_zero(self, capsys):
        assert run_bench_cli(["--list"]) == 0
        assert "driver_steps_side16" in capsys.readouterr().out

    def test_run_writes_valid_report(self, tmp_path):
        code, out = self.run_tiny(tmp_path)
        assert code == 0
        assert "compile_cache_hit" in load_report(out)["cases"]

    def test_json_out_creates_parent_dirs(self, tmp_path):
        nested = tmp_path / "a" / "b" / "bench.json"
        code = run_bench_cli(
            ["--cases", "compile_cache_hit", "--repeats", "1", "--quiet",
             "--json-out", str(nested)]
        )
        assert code == 0 and nested.exists()

    def test_compare_gate_failure_exit_1(self, tmp_path, capsys):
        code, out = self.run_tiny(tmp_path)
        assert code == 0
        current = load_report(out)
        slow = slowed(current, "compile_cache_hit", 1000.0)
        slow_path = tmp_path / "slow.json"
        slow_path.write_text(json.dumps(slow))
        code = run_bench_cli(
            ["--compare", str(out), "--against", str(slow_path)]
        )
        assert code == 1
        assert "regression" in capsys.readouterr().out

    def test_compare_ok_exit_0(self, tmp_path):
        code, out = self.run_tiny(tmp_path)
        assert run_bench_cli(["--compare", out, "--against", out]) == 0

    def test_usage_errors_exit_2(self, tmp_path, capsys):
        assert run_bench_cli(["--against", "x.json"]) == 2
        assert run_bench_cli(["--compare", str(tmp_path / "missing.json"),
                           "--against", str(tmp_path / "missing.json")]) == 2
        assert run_bench_cli(["--cases", "no_such_case", "--quiet",
                           "--json-out", str(tmp_path / "b.json")]) == 2
        capsys.readouterr()

    def test_repro_cli_dispatches_bench(self, capsys):
        from repro.cli import main as repro_main

        assert repro_main(["bench", "--list"]) == 0
        assert "span_overhead_disabled" in capsys.readouterr().out


class TestCommittedBaseline:
    def test_baseline_smoke_is_schema_valid_and_covers_suite(self):
        baseline = load_report("benchmarks/results/baseline-smoke.json")
        assert baseline["suite"] == "smoke"
        expected = set(case_names("smoke"))
        assert set(baseline["cases"]) == expected
        # CI baselines must carry generous explicit thresholds: shared
        # runners are noisy and the gate should only catch real cliffs.
        for name, entry in baseline["cases"].items():
            assert entry.get("threshold", 0) >= 3.0, name
