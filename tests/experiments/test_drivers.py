"""End-to-end checks on the heavier experiment drivers.

These run the full sweeps once each and assert the paper's qualitative
claims plus quantitative error bounds against its published values.
"""

from __future__ import annotations

import pytest

from repro.experiments.exp_divergence import run_divergence
from repro.experiments.exp_launch import run_fig9
from repro.experiments.exp_model import run_table3, run_validation
from repro.experiments.exp_reduction import run_fig15, run_fig16, run_table6
from repro.experiments.exp_sync import (
    run_fig4,
    run_fig5,
    run_fig7,
    run_fig8,
    run_sync_methods,
    run_table2,
)
from repro.experiments.scenario import Scenario
from repro.experiments.summary import run_summary


class TestSyncDrivers:
    def test_table2_quality(self):
        rep = run_table2()
        assert rep.mean_rel_err < 0.05

    def test_fig4_saturation(self):
        rep = run_fig4()
        assert rep.mean_rel_err < 0.05

    def test_fig5_quality(self):
        rep = run_fig5()
        assert rep.mean_rel_err < 0.10
        assert any("blocks/SM" in n for n in rep.notes)

    def test_fig7_quality(self):
        rep = run_fig7()
        assert rep.mean_rel_err < 0.10

    def test_fig8_quality(self):
        rep = run_fig8()
        assert rep.mean_rel_err < 0.10
        assert any("plateau" in n or "hop" in n for n in rep.notes)


class TestLaunchDrivers:
    def test_fig9_anchors_and_claims(self):
        rep = run_fig9(Scenario(gpu_counts=(1, 2, 5, 6, 8)))
        assert rep.mean_rel_err < 0.08
        # The two qualitative claims recorded in the notes must both hold.
        assert any("True" in n for n in rep.notes)
        assert not any("False" in n for n in rep.notes)


class TestModelDrivers:
    def test_table3_quality(self):
        assert run_table3().mean_rel_err < 0.03

    def test_validation_cross_checks(self):
        rep = run_validation()
        assert rep.mean_rel_err is not None
        for row in rep.rows:
            if "fadd" in row.label:
                assert abs(row.rel_err) < 0.10


class TestReductionDrivers:
    def test_fig15_claims(self):
        rep = run_fig15()
        bool_rows = [r for r in rep.rows if r.unit == "bool"]
        assert bool_rows and all(r.measured == 1.0 for r in bool_rows)

    def test_table6_quality(self):
        assert run_table6().mean_rel_err < 0.03

    def test_fig16_claims(self):
        rep = run_fig16()
        bool_rows = [r for r in rep.rows if r.unit == "bool"]
        assert all(r.measured == 1.0 for r in bool_rows)


class TestSummary:
    def test_every_table8_observation_passes(self):
        rep = run_summary()
        failing = [r.label for r in rep.rows if r.measured != 1.0]
        assert not failing, failing

    def test_engine_backend_reaches_its_groups(self, monkeypatch):
        """``--backend engine`` keeps every table8 barrier on the engine, and
        the engine run reports the same rows as the default one."""
        from repro.sim.backends import AnalyticBackend
        from repro.sim.engine import use_backend

        default = run_summary()

        def refuse(*args, **kwargs):
            raise AssertionError("analytic backend ran under backend=engine")

        monkeypatch.setattr(AnalyticBackend, "run_rounds", refuse)
        with use_backend("engine"):
            assert run_summary().rows == default.rows


class TestSyncMethodsDriver:
    def test_default_sweep_anchors_and_claims(self):
        rep = run_sync_methods()
        # Cooperative anchors (Fig 8/9 points) hold within the gate.
        assert rep.rows and rep.mean_rel_err < 0.10
        # The contention model's two growth laws are asserted by the driver
        # itself and reported as a note.
        assert any(
            "monotone in participant count: True" in n
            and "monotone in injected workload traffic: True" in n
            for n in rep.notes
        )
        # The DGX-1 cube-mesh produces at least one method crossover.
        assert any("method crossover" in n for n in rep.notes)
        assert len(rep.artifacts) >= 2  # strategy table + contention scan

    def test_sync_strategy_restricts_the_sweep(self):
        from repro.experiments.scenario import Scenario

        rep = run_sync_methods(
            Scenario(gpus=("V100",), sync_strategy="atomic")
        )
        # No cooperative series -> no paper anchors -> gate vacuous.
        assert not rep.rows and rep.mean_rel_err is None
        art = rep.artifacts[0]
        assert "atomic" in art and "cooperative" not in art

    def test_knob_overrides_flow_to_the_strategy(self):
        from repro.experiments.scenario import Scenario

        base = run_sync_methods(
            Scenario(gpus=("V100",), sync_strategy="atomic")
        )
        loaded = run_sync_methods(
            Scenario(
                gpus=("V100",), sync_strategy="atomic",
                extras=(("workload_util", "0.75"),),
            )
        )

        def last_latency(rep):
            # Final data row of the sweep table: "| 8 | <latency> |".
            row = [
                line for line in rep.artifacts[0].splitlines()
                if line.startswith("|    8 |")
            ][-1]
            return float(row.split("|")[2])

        assert last_latency(loaded) > last_latency(base)

    def test_non_default_topology_reprices_the_curves(self):
        from repro.experiments.scenario import Scenario

        mesh = run_sync_methods(Scenario(gpus=("V100",)))
        xbar = run_sync_methods(
            Scenario(gpus=("V100",), node="DGX2", gpu_count=8)
        )
        # Overridden machine room: anchors suppressed, sweep still runs.
        assert not xbar.rows
        assert mesh.artifacts[0] != xbar.artifacts[0]


class TestDivergenceDriver:
    """``run_divergence`` checks its extras before it builds a program."""

    @staticmethod
    def _run(key, value):
        return run_divergence(Scenario(gpus=("V100",), extras=((key, value),)))

    @pytest.mark.parametrize("phases", ["0", "-2"])
    def test_phases_below_one_rejected(self, phases):
        # With no phase there is no per-phase table to report.
        with pytest.raises(ValueError, match=r"extra\.phases must be >= 1"):
            self._run("phases", phases)

    def test_negative_divergent_every_rejected(self):
        # A negative period diverges in every phase while the report
        # counts none, so the re-convergence row cannot hold.
        with pytest.raises(ValueError, match=r"extra\.divergent_every must be >= 0"):
            self._run("divergent_every", "-1")

    def test_zero_arms_rejected(self):
        # A ladder without arms has nothing to re-converge from.
        with pytest.raises(ValueError, match=r"extra\.arms must be >= 1"):
            self._run("arms", "0")


class TestExplicitCooperativeKeepsAnchors:
    def test_fig8_rows_identical_to_default(self):
        from repro.experiments.scenario import Scenario

        default = run_fig8(Scenario(gpus=("V100",)))
        explicit = run_fig8(Scenario(gpus=("V100",), sync_strategy="cooperative"))
        # Kind-string cooperative resolves to the byte-identical default
        # strategy, so the anchors (and the tolerance gate) must survive.
        assert explicit.rows == default.rows
        assert explicit.render() == default.render()

    def test_cooperative_with_knobs_suppresses_anchors(self):
        from repro.experiments.scenario import Scenario

        rep = run_fig5(
            Scenario(
                gpus=("V100",), sync_strategy="cooperative",
                extras=(("atomic_service_ns", "12"),),
            )
        )
        assert not rep.rows
        assert any("tolerance gate does not apply" in n for n in rep.notes)
