"""Unit tests for the unified benchmark runner (against a fake suite)
and the perf suite's regression gate (against canned case timings)."""

import json

import pytest

from repro.obs import perf
from repro.obs.bench import (
    default_bench_dir,
    discover,
    render_results,
    run_benchmarks,
)

PASSING = """
def test_fast():
    assert 1 + 1 == 2
"""

FAILING = """
def test_broken():
    assert False, "deliberately failing"
"""


def fake_suite(tmp_path):
    bench_dir = tmp_path / "benchmarks"
    bench_dir.mkdir()
    (bench_dir / "bench_alpha.py").write_text(PASSING, encoding="utf-8")
    (bench_dir / "bench_beta.py").write_text(FAILING, encoding="utf-8")
    (bench_dir / "not_a_bench.py").write_text(PASSING, encoding="utf-8")
    return bench_dir


class TestDiscovery:
    def test_only_bench_modules_found(self, tmp_path):
        bench_dir = fake_suite(tmp_path)
        assert [path.stem for path in discover(bench_dir)] == [
            "bench_alpha",
            "bench_beta",
        ]

    def test_default_dir_is_the_repo_suite(self):
        bench_dir = default_bench_dir()
        assert bench_dir.name == "benchmarks"
        assert discover(bench_dir), "repo benchmark suite should be discoverable"


class TestRunner:
    def test_report_written_and_failures_reported(self, tmp_path):
        bench_dir = fake_suite(tmp_path)
        report_path = tmp_path / "report.json"
        results, written_to = run_benchmarks(
            bench_dir=bench_dir, quick=True, report_path=report_path
        )
        assert written_to == report_path
        by_name = {result.name: result for result in results}
        assert by_name["bench_alpha"].ok
        assert not by_name["bench_beta"].ok
        assert "deliberately failing" in by_name["bench_beta"].output_tail

        blob = json.loads(report_path.read_text(encoding="utf-8"))
        assert blob["suite"] == "repro-benchmarks"
        assert blob["mode"] == "quick"
        assert blob["ok"] is False
        assert [entry["name"] for entry in blob["benchmarks"]] == [
            "bench_alpha",
            "bench_beta",
        ]
        assert all("wall_seconds" in entry for entry in blob["benchmarks"])

    def test_only_filter(self, tmp_path):
        bench_dir = fake_suite(tmp_path)
        results, _ = run_benchmarks(
            bench_dir=bench_dir,
            only=["alpha"],
            quick=True,
            report_path=tmp_path / "report.json",
        )
        assert [result.name for result in results] == ["bench_alpha"]

    def test_render(self, tmp_path):
        bench_dir = fake_suite(tmp_path)
        results, _ = run_benchmarks(
            bench_dir=bench_dir, quick=True, report_path=tmp_path / "report.json"
        )
        rendered = render_results(results)
        assert "bench_alpha" in rendered
        assert "FAIL" in rendered
        assert render_results([]) == "no benchmark modules found"


class TestPerfSuite:
    """The gate logic, on canned case timings (real cases are too slow
    for a unit test; the integration path is CI's perf-smoke job)."""

    @pytest.fixture
    def canned(self, monkeypatch):
        def fake_case(name, seconds, gate=True):
            return lambda rounds: {
                "name": name,
                "seconds": seconds,
                "calibration_seconds": 0.01,
                "ops": 1,
                "ok": True,
                "gate": gate,
            }

        monkeypatch.setattr(
            perf,
            "_case_checker_causal",
            lambda rounds, ops_per_process=40: fake_case(
                f"checker_causal_{8 * ops_per_process}", 0.05
            )(rounds),
        )
        monkeypatch.setattr(
            perf,
            "_case_checker_sessions",
            fake_case("checker_sessions_320", 0.02),
        )
        monkeypatch.setattr(
            perf,
            "_case_causality_chain5",
            fake_case("causality_chain5_large", 0.1),
        )
        monkeypatch.setattr(
            perf, "_case_sim_propagate", fake_case("sim_propagate_3x8x40", 0.2)
        )
        monkeypatch.setattr(
            perf, "_case_explorer", lambda scenario, jobs: ([], [])
        )

    def write_baseline(self, tmp_path, causal_seconds, calibration=0.01):
        baseline = tmp_path / "perf_baseline.json"
        baseline.write_text(
            json.dumps(
                {
                    "calibration": calibration,
                    "cases": {
                        "checker_causal_320": {"seconds": causal_seconds},
                        "checker_sessions_320": {"seconds": 0.02},
                        "causality_chain5_large": {"seconds": 0.1},
                    },
                    "pre_optimization": {"checker_causal_320": 0.5},
                }
            ),
            encoding="utf-8",
        )
        return baseline

    def test_passes_within_tolerance(self, canned, tmp_path):
        baseline = self.write_baseline(tmp_path, causal_seconds=0.05)
        report, failures, path = perf.run_perf_suite(
            quick=True,
            report_path=tmp_path / "BENCH_perf.json",
            baseline_path=baseline,
        )
        assert failures == []
        assert report["ok"]
        assert path.exists()
        blob = json.loads(path.read_text(encoding="utf-8"))
        assert blob["suite"] == "repro-perf"
        # 0.5s before the optimization, 0.05s now -> 10x.
        assert blob["speedup_vs_pre_optimization"]["checker_causal_320"] == 10.0

    def test_fails_beyond_thirty_percent_regression(self, canned, tmp_path):
        # Baseline says 0.05s was achieved at calibration 0.01; the
        # "current" run reports the same calibration but 0.05s cases
        # against a 0.03s baseline -> 66% slower -> gate failure.
        baseline = self.write_baseline(tmp_path, causal_seconds=0.03)
        report, failures, _ = perf.run_perf_suite(
            quick=True,
            report_path=tmp_path / "BENCH_perf.json",
            baseline_path=baseline,
        )
        assert any("checker_causal_320" in failure for failure in failures)
        assert not report["ok"]

    def test_calibration_normalizes_machine_speed(self, canned, tmp_path):
        # Same 0.05s wall time, but the baseline machine was 2x faster
        # (calibration 0.005 vs our 0.01): normalized time is 0.025s,
        # well inside the 0.03 * 1.3 budget.
        baseline = self.write_baseline(
            tmp_path, causal_seconds=0.03, calibration=0.005
        )
        _, failures, _ = perf.run_perf_suite(
            quick=True,
            report_path=tmp_path / "BENCH_perf.json",
            baseline_path=baseline,
        )
        assert failures == []

    def test_runs_without_baseline(self, canned, tmp_path):
        report, failures, _ = perf.run_perf_suite(
            quick=True,
            report_path=tmp_path / "BENCH_perf.json",
            baseline_path=tmp_path / "missing.json",
        )
        assert failures == []
        assert report["baseline"] is None
        assert report["speedup_vs_pre_optimization"] == {}

    def test_render_perf(self, canned, tmp_path):
        baseline = self.write_baseline(tmp_path, causal_seconds=0.05)
        report, _, _ = perf.run_perf_suite(
            quick=True,
            report_path=tmp_path / "BENCH_perf.json",
            baseline_path=baseline,
        )
        rendered = perf.render_perf(report)
        assert "checker_causal_320" in rendered
        assert "vs pre-optimization" in rendered

    def test_repo_baseline_is_committed(self):
        assert perf.default_baseline_path().exists(), (
            "benchmarks/perf_baseline.json must be committed for the "
            "perf-smoke gate"
        )
