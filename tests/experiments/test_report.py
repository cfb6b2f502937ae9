"""Tests for the EXPERIMENTS.md generator."""

from __future__ import annotations


from repro.experiments.base import ExperimentReport
from repro.experiments.report import experiments_markdown, write_experiments_md


def _fake_reports():
    a = ExperimentReport("table1", "Fake launch table")
    a.add("overhead", 1081.0, 1090.0, "ns")
    a.notes.append("a note")
    a.add_artifact("ARTIFACT-BLOCK")
    b = ExperimentReport("fig5", "Fake heatmap")
    b.add("cell", 1.43, 1.40, "us")
    return [a, b]


class TestMarkdown:
    def test_sections_rendered(self):
        md = experiments_markdown(_fake_reports())
        assert "## table1: Fake launch table" in md
        assert "## fig5: Fake heatmap" in md
        assert "| overhead | 1081 | 1090 | ns | +0.8% |" in md
        assert "> a note" in md
        assert "ARTIFACT-BLOCK" in md

    def test_overall_summary_present(self):
        md = experiments_markdown(_fake_reports())
        assert "2 experiments" in md
        assert "mean |err|" in md

    def test_header_documents_regeneration(self):
        md = experiments_markdown(_fake_reports())
        assert "repro-experiments" in md
        assert "docs/calibration.md" in md


class TestWriteFile:
    def test_writes_to_path(self, tmp_path, monkeypatch):
        # Patch the registry to the fast fakes so the test stays quick.
        import repro.experiments.report as report_mod

        monkeypatch.setattr(
            report_mod,
            "experiments_markdown",
            lambda **kw: experiments_markdown(_fake_reports()),
        )
        out = write_experiments_md(tmp_path / "E.md")
        text = out.read_text()
        assert "Fake launch table" in text
        assert "Generated in" in text
