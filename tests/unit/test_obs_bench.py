"""Unit tests for the benchmark pipelines: ``pytest benchmarks`` collects
the ``bench_*.py`` modules, and ``repro bench`` runs the perf suite's
regression gate (here against canned case timings)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro.explore
from repro.explore import ExploreResult
from repro.obs import perf

REPO_ROOT = Path(__file__).resolve().parents[2]

PASSING = """
def test_fast():
    assert 1 + 1 == 2
"""


def collected(bench_dir):
    """Test ids ``pytest --collect-only`` finds under *bench_dir*, using the
    repo's pytest configuration."""
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "--collect-only",
            "-p", "no:cacheprovider", "-c", str(REPO_ROOT / "pyproject.toml"),
            "--rootdir", str(bench_dir.parent), str(bench_dir),
        ],
        capture_output=True,
        text=True,
        check=False,
    )
    return [line for line in proc.stdout.splitlines() if "::" in line]


class TestDiscovery:
    def test_only_bench_modules_found(self, tmp_path):
        bench_dir = tmp_path / "benchmarks"
        bench_dir.mkdir()
        for name in ("bench_alpha.py", "bench_beta.py", "not_a_bench.py"):
            (bench_dir / name).write_text(PASSING, encoding="utf-8")
        assert collected(bench_dir) == [
            "benchmarks/bench_alpha.py::test_fast",
            "benchmarks/bench_beta.py::test_fast",
        ]

    def test_default_dir_is_the_repo_suite(self):
        bench_dir = perf.default_baseline_path().parent
        assert bench_dir == REPO_ROOT / "benchmarks"
        assert sorted(bench_dir.glob("bench_*.py")), "repo benchmark suite should exist"
        assert perf.default_report_path() == REPO_ROOT / "BENCH_perf.json"


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

    def test_explorer_case_is_normalized_by_mean_calibration(self, monkeypatch):
        # A minute-long explorer case is calibrated before and after; a
        # host-speed swing between the two must not rescale the case by
        # whichever value happened to come first.
        calibrations = iter([0.01, 0.03, 0.02, 0.04])
        monkeypatch.setattr(perf, "calibrate", lambda: next(calibrations))

        def fake_explore(scenario, *, jobs, **bounds):
            return ExploreResult(scenario=scenario, explored=4, exhausted=True)

        monkeypatch.setattr(repro.explore, "explore", fake_explore)
        cases, failures = perf._case_explorer("s", (1, 2))
        assert failures == []
        assert [
            (
                case["calibration_before_seconds"],
                case["calibration_after_seconds"],
                case["calibration_seconds"],
            )
            for case in cases
        ] == [(0.01, 0.03, pytest.approx(0.02)), (0.02, 0.04, pytest.approx(0.03))]

    def test_sim_propagate_case_pins_its_totals(self, monkeypatch):
        case = perf._case_sim_propagate(1)
        assert case["ok"]
        assert {key: case[key] for key in perf.SIM_PROPAGATE_TOTALS} == perf.SIM_PROPAGATE_TOTALS
        # One event more in the pin, as a hot-path change moving one
        # event would read, fails the case.
        moved = {**perf.SIM_PROPAGATE_TOTALS, "events": case["events"] + 1}
        monkeypatch.setattr(perf, "SIM_PROPAGATE_TOTALS", moved)
        assert not perf._case_sim_propagate(1)["ok"]

    def test_repo_baseline_is_committed(self):
        assert perf.default_baseline_path().exists(), (
            "benchmarks/perf_baseline.json must be committed for the "
            "perf-smoke gate"
        )
