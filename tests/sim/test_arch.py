"""Tests for architecture specs and calibration blocks."""

from __future__ import annotations

import dataclasses

import pytest

from repro.sim.arch import (
    DGX1_V100,
    GPU_REGISTRY,
    NODE_REGISTRY,
    P100,
    P100_PCIE_NODE,
    V100,
    get_gpu_spec,
    get_node_spec,
)


class TestRegistry:
    def test_lookup_case_insensitive(self):
        assert get_gpu_spec("v100") is V100
        assert get_gpu_spec("P100") is P100

    def test_unknown_gpu_raises_with_choices(self):
        with pytest.raises(ValueError, match="V100"):
            get_gpu_spec("K80")

    def test_node_lookup(self):
        assert get_node_spec("DGX1") is DGX1_V100
        assert get_node_spec("p100x2") is P100_PCIE_NODE

    def test_unknown_node_raises(self):
        with pytest.raises(ValueError):
            get_node_spec("dgx9")

    def test_registries_consistent(self):
        assert set(GPU_REGISTRY) == {"V100", "P100"}
        assert set(NODE_REGISTRY) == {"DGX1", "DGX2", "P100x2"}

    def test_dgx2_is_a_one_hop_fabric(self):
        spec = get_node_spec("DGX2")
        assert spec.gpu_count == 16
        assert spec.interconnect == "nvswitch"
        assert spec.cross_gpu.hop2_penalty_ns == 0.0


class TestHardwareLimits:
    def test_v100_structure_matches_whitepaper(self, v100):
        assert v100.sm_count == 80
        assert v100.partitions_per_sm == 4
        assert v100.max_threads_per_sm == 2048
        assert v100.max_warps_per_sm == 64
        assert v100.freq_mhz == 1312.0  # Table VII

    def test_p100_structure_matches_whitepaper(self, p100):
        assert p100.sm_count == 56
        assert p100.partitions_per_sm == 2
        assert p100.freq_mhz == 1189.0  # Table VII

    def test_volta_only_features(self, v100, p100):
        assert v100.has_nanosleep and not p100.has_nanosleep
        assert v100.independent_thread_scheduling
        assert not p100.independent_thread_scheduling
        assert v100.warp_sync.blocking and not p100.warp_sync.blocking

    def test_specs_are_frozen(self, spec):
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.sm_count = 1

    def test_cycle_conversion_roundtrip(self, spec):
        assert spec.ns_to_cycles(spec.cycles_to_ns(321.0)) == pytest.approx(321.0)

    def test_cycle_duration(self, v100, p100):
        assert v100.cycle_ns == pytest.approx(1e3 / 1312.0)
        assert p100.cycle_ns == pytest.approx(1e3 / 1189.0)


class TestLaunchCalib:
    def test_all_launch_types_present(self, spec):
        assert set(spec.launch) == {"traditional", "cooperative", "multi_device"}

    def test_unknown_launch_type_raises(self, spec):
        with pytest.raises(ValueError, match="unknown launch type"):
            spec.launch_calib("graph")

    def test_fusion_identity_matches_table1(self, v100):
        # gap + eps is what the fusion method recovers (Table I overhead).
        for lt, overhead in (
            ("traditional", 1081.0), ("cooperative", 1063.0), ("multi_device", 1258.0)
        ):
            c = v100.launch_calib(lt)
            assert c.gap_ns + c.exec_null_ns == pytest.approx(overhead)

    def test_fig3_identity_matches_table1(self, v100):
        # gap + dispatch is the Fig-3 estimator's value (Table I total).
        for lt, total in (
            ("traditional", 8888.0), ("cooperative", 10248.0), ("multi_device", 10874.0)
        ):
            c = v100.launch_calib(lt)
            assert c.gap_ns + c.dispatch_ns == pytest.approx(total)

    def test_multi_device_gap_grows_quadratically(self, v100):
        c = v100.launch_calib("multi_device")
        g1, g2, g8 = c.gap_for(1), c.gap_for(2), c.gap_for(8)
        assert g1 < g2 < g8
        assert g8 + c.exec_null_ns == pytest.approx(67200.0, rel=0.01)  # Fig 9

    def test_multi_device_dispatch_saturation_threshold(self, v100):
        # ~250 us of kernel needed to saturate the 8-GPU pipeline (IX-B).
        c = v100.launch_calib("multi_device")
        assert 230_000 < c.dispatch_for(8) < 270_000

    @pytest.mark.parametrize("field", ["api_ns", "dispatch_ns", "exec_null_ns"])
    @pytest.mark.parametrize("value", [-1.0, float("inf"), float("nan")])
    def test_negative_or_non_finite_field_rejected(self, v100, field, value):
        # The engine would reject such a delay mid-run; the host timeline
        # replay would not, so the calibration refuses it up front.
        with pytest.raises(ValueError, match=f"LaunchCalib.{field} must be finite"):
            dataclasses.replace(v100.launch_calib("traditional"), **{field: value})

    def test_single_device_types_have_no_gpu_scaling(self, spec):
        c = spec.launch_calib("traditional")
        assert c.gap_for(4) == c.gap_ns
        assert c.dispatch_for(4) == c.dispatch_ns


class TestDerivedCalib:
    def test_grid_sync_atomic_contention_grows(self, spec):
        gs = spec.grid_sync
        assert gs.atomic_service_ns(32, spec.sm_count) > gs.atomic_service_ns(
            1, spec.sm_count
        )

    def test_multigrid_local_formula_monotone_in_blocks(self, spec):
        mg = spec.multigrid_local
        assert mg.local_ns(2, 4) > mg.local_ns(1, 4)

    def test_multigrid_local_formula_monotone_in_warps(self, spec):
        mg = spec.multigrid_local
        assert mg.local_ns(1, 32) > mg.local_ns(1, 1)

    def test_hbm_method_efficiencies_ordered(self, spec):
        hbm = spec.hbm
        assert hbm.effective_gbps("implicit") >= hbm.effective_gbps("grid")
        assert hbm.effective_gbps("implicit") >= hbm.effective_gbps("cub")
        assert hbm.effective_gbps("implicit") < hbm.theory_gbps

    def test_hbm_unknown_method_raises(self, spec):
        with pytest.raises(ValueError):
            spec.hbm.effective_gbps("nccl")

    def test_cub_pascal_deficit_preserved(self, v100, p100):
        # Table VI: CUB loses ~8% on P100 but ~2% on V100.
        v_ratio = v100.hbm.rel_eff_cub
        p_ratio = p100.hbm.rel_eff_cub
        assert p_ratio < 0.93 < 0.97 < v_ratio


class TestNodeSpec:
    def test_omp_barrier_cost_grows_slowly(self, dgx1):
        costs = [dgx1.omp_barrier_ns(n) for n in (1, 2, 4, 8)]
        assert costs == sorted(costs)
        assert costs[-1] < 2000.0  # flat-ish (Fig 9)

    def test_omp_barrier_invalid_count(self, dgx1):
        with pytest.raises(ValueError):
            dgx1.omp_barrier_ns(0)

    def test_dgx1_is_8_v100s_on_nvlink(self, dgx1):
        assert dgx1.gpu is V100
        assert dgx1.gpu_count == 8
        assert dgx1.interconnect == "nvlink-cube-mesh"

    def test_p100_node_is_dual_pcie(self, p100_node):
        assert p100_node.gpu is P100
        assert p100_node.gpu_count == 2
        assert p100_node.interconnect == "pcie"

    def test_pcie_cross_phase_costlier_than_nvlink(self, dgx1, p100_node):
        assert p100_node.cross_gpu.base_ns > dgx1.cross_gpu.base_ns
        assert p100_node.cross_gpu.release_coef_ns > dgx1.cross_gpu.release_coef_ns
