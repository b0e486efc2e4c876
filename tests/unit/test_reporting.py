"""Tests for the EXPERIMENTS.md generator and the claims it checks."""

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro import experiments
from repro.analysis import Comparison
from repro.cli import main
from repro.reporting import SECTIONS, generate_report, md_table

REAL_MESSAGES_PER_WRITE = experiments.messages_per_write_interconnected


def off_by_one(m, shared):
    """One message per write more than measured: E2's n+m-1 claim fails."""
    measured, n = REAL_MESSAGES_PER_WRITE(m, shared)
    return measured + 1, n


class TestMdTable:
    def test_renders_rows(self):
        table = md_table([Comparison("case", 2.0, 2.0)])
        assert "| case | 2.00 | 2.00 | 1.00 |" in table
        assert table.startswith("| configuration |")


class TestSections:
    def test_every_section_has_title_intro_runner(self):
        assert len(SECTIONS) >= 15  # E1-E11, X1-X4 and X7
        for title, intro, runner in SECTIONS:
            assert title and intro
            assert callable(runner)

    def test_experiment_ids_cover_design(self):
        titles = " ".join(title for title, _, __ in SECTIONS)
        for experiment_id in (
            "E1", "E2", "E3", "E4", "E5", "E6", "E8", "E9", "E10", "E11",
            "X1", "X2", "X3", "X4", "X7",
        ):
            assert experiment_id in titles, f"{experiment_id} missing from the report"


class TestGenerateReport:
    def test_full_report_generates(self, monkeypatch, tmp_path):
        # Outside the repository root: the report needs only the package.
        monkeypatch.chdir(tmp_path)
        progressed = []
        report = generate_report(progress=progressed.append)
        assert report.startswith("# EXPERIMENTS")
        assert len(progressed) == len(SECTIONS)
        # Every section made it into the output with a table.
        for title, _, __ in SECTIONS:
            assert f"## {title}" in report
        assert report.count("|") > 100


class TestClaims:
    def test_failing_claim_exits_1_and_writes_no_report(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(experiments, "messages_per_write_interconnected", off_by_one)
        path = tmp_path / "EXPERIMENTS.md"
        assert main(["experiments", "--output", str(path)]) == 1
        out = capsys.readouterr().out
        assert "E2 — interconnected message count" in out
        assert "m=2 systems, shared IS (n=8)" in out
        assert not path.exists()

    def test_claims_are_checked_under_python_O(self):
        # ``-O`` strips assert statements; the claims must not be one.
        script = (
            "from repro import experiments, reporting\n"
            "real = experiments.messages_per_write_interconnected\n"
            "def off_by_one(m, shared):\n"
            "    measured, n = real(m, shared)\n"
            "    return measured + 1, n\n"
            "experiments.messages_per_write_interconnected = off_by_one\n"
            "reporting.experiment_e2()\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 1
        assert "ClaimError: m=2 systems, shared IS (n=8)" in proc.stderr
