"""Smoke tests for the EXPERIMENTS.md generator."""

from repro.analysis import Comparison
from repro.reporting import SECTIONS, generate_report, md_table


class TestMdTable:
    def test_renders_rows(self):
        table = md_table([Comparison("case", 2.0, 2.0)])
        assert "| case | 2.00 | 2.00 | 1.00 |" in table
        assert table.startswith("| configuration |")


class TestSections:
    def test_every_section_has_title_intro_runner(self):
        assert len(SECTIONS) >= 14  # E1-E11 + X1-X4
        for title, intro, runner in SECTIONS:
            assert title and intro
            assert callable(runner)

    def test_experiment_ids_cover_design(self):
        titles = " ".join(title for title, _, __ in SECTIONS)
        for experiment_id in (
            "E1", "E2", "E3", "E4", "E5", "E6", "E8", "E9", "E10", "E11",
            "X1", "X2", "X3", "X4",
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
