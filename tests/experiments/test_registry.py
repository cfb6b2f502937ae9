"""Tests for the experiment registry, report machinery, and CLI."""

from __future__ import annotations

import json

import pytest

from repro.experiments.base import ComparisonRow, ExperimentReport
from repro.experiments.cli import main
from repro.experiments.registry import EXPERIMENTS, filter_by_tags, known_tags
from repro.experiments.service import run_experiment


class TestReport:
    def test_rel_err(self):
        row = ComparisonRow("x", paper=100.0, measured=110.0)
        assert row.rel_err == pytest.approx(0.10)

    def test_rel_err_none_cases(self):
        assert ComparisonRow("x", None, 1.0).rel_err is None
        assert ComparisonRow("x", 0.0, 1.0).rel_err is None

    def test_summary_statistics(self):
        rep = ExperimentReport("id", "t")
        rep.add("a", 100.0, 110.0)
        rep.add("b", 100.0, 90.0)
        assert rep.mean_rel_err == pytest.approx(0.10)
        assert rep.max_rel_err == pytest.approx(0.10)

    def test_render_contains_rows_and_notes(self):
        rep = ExperimentReport("id", "Title")
        rep.add("metric", 1.0, 1.1, "us", note="hello")
        rep.notes.append("a note")
        rep.add_artifact("ARTIFACT")
        out = rep.render()
        for token in ("Title", "metric", "hello", "a note", "ARTIFACT", "+10.0%"):
            assert token in out


class TestRegistry:
    def test_covers_every_paper_artifact(self):
        expected = {
            "table1", "table2", "table3", "table4", "table5", "table6", "table8",
            "fig4", "fig5", "fig7", "fig8", "fig9", "fig15", "fig16", "fig18",
            "deadlock", "validation", "sync_methods", "divergence",
            "pitfalls_sanitized",
        }
        assert set(EXPERIMENTS) == expected

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_experiment("fig999")

    @pytest.mark.parametrize("exp_id", ["table1", "table4", "table5", "fig18", "deadlock"])
    def test_fast_experiments_produce_clean_reports(self, exp_id):
        rep = run_experiment(exp_id)
        assert rep.exp_id == exp_id
        assert rep.rows
        assert rep.render()

    def test_reproduction_quality_gate(self):
        """Headline experiments must land within 10% mean error."""
        for exp_id in ("table1", "table4", "table5"):
            rep = run_experiment(exp_id)
            assert rep.mean_rel_err is not None and rep.mean_rel_err < 0.10, exp_id


class TestSpecs:
    def test_ids_match_keys(self):
        for exp_id, spec in EXPERIMENTS.items():
            assert spec.id == exp_id

    def test_every_spec_has_scenarios_title_tags(self):
        for spec in EXPERIMENTS.values():
            assert spec.default_scenarios
            assert spec.title
            assert spec.tags

    def test_tolerances_match_current_reproduction(self):
        """Every default run must land inside the CLI's tolerance gate."""
        for spec in EXPERIMENTS.values():
            rep = run_experiment(spec.id)
            if spec.tolerance is not None and rep.mean_rel_err is not None:
                assert rep.mean_rel_err <= spec.tolerance, spec.id


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "fig16" in out

    def test_list_shows_titles_and_tags(self, capsys):
        main(["--list"])
        out = capsys.readouterr().out
        assert "Warp-level synchronization" in out  # title
        assert "[reduction, multi-gpu]" in out  # tags

    def test_run_single(self, capsys):
        assert main(["table5", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "sum 32 doubles" in out

    def test_unknown_id_exit_code(self, capsys):
        assert main(["nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_json_output_parses_and_is_lossless(self, capsys, tmp_path):
        assert main(["table4", "--json", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        [data] = json.loads(out)
        rep = ExperimentReport.from_dict(data)
        assert rep.exp_id == "table4"
        assert rep.rows and rep.scenario["points"]

    def test_jobs_matches_serial_output(self, capsys, tmp_path):
        assert main(["table4", "deadlock", "--no-cache"]) == 0
        serial = capsys.readouterr().out
        assert (
            main(["table4", "deadlock", "--jobs", "2", "--cache-dir", str(tmp_path)])
            == 0
        )
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_cache_roundtrip_output_identical(self, capsys, tmp_path):
        args = ["table4", "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert warm == cold

    def test_scenario_override_narrows_gpus(self, capsys):
        assert main(["table4", "--no-cache", "--scenario", "gpus=P100"]) == 0
        out = capsys.readouterr().out
        # Rows for P100 only (the qualitative note still mentions both).
        assert "P100 warp sync latency" in out
        assert "V100 warp sync latency" not in out
        # Overrides collapsed both per-GPU defaults into one scenario; the
        # deduped point must run once, not once per default.
        assert out.count("P100 warp sync latency") == 1

    def test_gpu_count_override_clamps_sweeps(self, capsys):
        """--scenario gpu_count=4 must clamp Fig 8's paper sweep, not crash."""
        assert (
            main(["fig8", "--no-cache", "--scenario", "gpu_count=4"]) == 0
        )
        out = capsys.readouterr().out
        assert "V100 x4" in out and "x5" not in out

    def test_bad_scenario_override_exit_code(self, capsys):
        assert main(["table4", "--scenario", "gpus=K80"]) == 2
        assert "bad --scenario" in capsys.readouterr().err

    def test_driver_failure_exit_code(self, capsys, monkeypatch, tmp_path):
        from dataclasses import replace

        from repro.experiments import registry

        def boom(scenario):
            raise RuntimeError("smoke")

        monkeypatch.setitem(
            registry.EXPERIMENTS, "table4", replace(EXPERIMENTS["table4"], driver=boom)
        )
        assert main(["table4", "--cache-dir", str(tmp_path)]) == 1
        assert "smoke" in capsys.readouterr().err

    def test_tolerance_exceeded_exit_code(self, capsys, monkeypatch, tmp_path):
        from dataclasses import replace

        from repro.experiments import registry

        monkeypatch.setitem(
            registry.EXPERIMENTS,
            "table4",
            replace(EXPERIMENTS["table4"], tolerance=-1.0),
        )
        assert main(["table4", "--no-cache"]) == 1
        assert "exceeded tolerance" in capsys.readouterr().err


class TestTags:
    def test_known_tags_union(self):
        tags = known_tags()
        assert "smoke" in tags and "sync" in tags
        assert tags == tuple(sorted(tags))

    def test_filter_by_tags(self):
        ids = list(EXPERIMENTS)
        smoke = filter_by_tags(ids, ["smoke"])
        # CI's smoke subset, selected by tag instead of a name list.
        assert smoke == [
            "table1", "fig8", "sync_methods", "table4", "table5", "divergence",
            "deadlock", "pitfalls_sanitized", "validation",
        ]
        assert filter_by_tags(ids, ["warp", "block"]) == [
            "table2", "fig4", "table5", "fig18", "divergence"
        ]

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="known tags"):
            filter_by_tags(list(EXPERIMENTS), ["smoek"])

    def test_cli_list_filtered_by_tags(self, capsys):
        assert main(["--list", "--tags", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "validation" in out
        assert "fig16" not in out

    def test_cli_run_filtered_by_tags(self, capsys):
        assert main(["--tags", "model,warp", "table4", "table2", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Predicted worker switching points" in out
        assert "Warp-level synchronization" in out

    def test_cli_bad_tag_exit_code(self, capsys):
        assert main(["--tags", "nope"]) == 2
        assert "bad --tags" in capsys.readouterr().err

    def test_cli_empty_tag_selection_exit_code(self, capsys):
        # Valid tag, but none of the named experiments carry it.
        assert main(["table4", "--tags", "warp"]) == 2
        assert "no experiments match" in capsys.readouterr().err
