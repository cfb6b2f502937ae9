"""Tests for interconnect topologies (DGX-1 cube-mesh, PCIe)."""

from __future__ import annotations

import pytest

from repro.sim.interconnect import (
    DGX1_NVLINK_LINKS,
    build_dgx1_nvlink,
    build_interconnect,
    build_nvswitch,
    build_pcie,
    build_ring,
)


class TestDGX1Topology:
    def test_eight_gpus(self):
        assert build_dgx1_nvlink().gpu_count == 8

    def test_link_list_matches_hybrid_cube_mesh(self):
        ic = build_dgx1_nvlink()
        for a, b in DGX1_NVLINK_LINKS:
            assert ic.hops(a, b) == 1

    def test_each_gpu_has_four_neighbors(self):
        ic = build_dgx1_nvlink()
        for g in range(8):
            assert len(ic.neighbors(g)) == 4

    def test_quad_membership_one_hop_from_leader(self):
        ic = build_dgx1_nvlink()
        # GPU 0 reaches its quad (1,2,3) and cube partner (4) in one hop.
        for g in (1, 2, 3, 4):
            assert ic.hops(0, g) == 1

    def test_cross_quad_non_partner_is_two_hops(self):
        ic = build_dgx1_nvlink()
        for g in (5, 6, 7):
            assert ic.hops(0, g) == 2

    def test_paper_plateau_structure(self):
        """Sets {0..k} for k<=4 are 1-hop; k>=5 introduces 2-hop members —
        exactly the Fig 8/9 latency plateau boundaries."""
        ic = build_dgx1_nvlink()
        for k in range(1, 5):
            assert ic.max_hops_from(0, list(range(k + 1))) == 1
        for k in range(5, 8):
            assert ic.max_hops_from(0, list(range(k + 1))) == 2

    def test_two_hop_member_counts(self):
        ic = build_dgx1_nvlink()
        assert ic.two_hop_members(0, list(range(6))) == [5]
        assert ic.two_hop_members(0, list(range(8))) == [5, 6, 7]

    def test_hops_symmetric(self):
        ic = build_dgx1_nvlink()
        for a in range(8):
            for b in range(8):
                assert ic.hops(a, b) == ic.hops(b, a)

    def test_self_hops_zero(self):
        ic = build_dgx1_nvlink()
        assert ic.hops(3, 3) == 0


class TestPCIe:
    def test_two_gpu_pcie(self):
        ic = build_pcie(2)
        assert ic.gpu_count == 2
        assert ic.hops(0, 1) == 1

    def test_single_gpu_degenerate(self):
        assert build_pcie(1).gpu_count == 1

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            build_pcie(0)

    def test_pcie_slower_than_nvlink(self):
        p, n = build_pcie(2), build_dgx1_nvlink()
        nbytes = 1_000_000
        assert p.peer_transfer_ns(0, 1, nbytes) > n.peer_transfer_ns(0, 1, nbytes)


class TestNVSwitch:
    """DGX-2-style crossbar: every pair is one hop, at any GPU count."""

    def test_default_sixteen_gpus(self):
        assert build_nvswitch().gpu_count == 16

    @pytest.mark.parametrize("n", [2, 8, 16])
    def test_all_pairs_one_hop(self, n):
        ic = build_nvswitch(n)
        for a in range(n):
            for b in range(n):
                assert ic.hops(a, b) == (0 if a == b else 1)

    def test_no_two_hop_members_ever(self):
        ic = build_nvswitch(16)
        assert ic.two_hop_members(0, list(range(16))) == []

    def test_rejects_out_of_range_counts(self):
        with pytest.raises(ValueError):
            build_nvswitch(0)
        with pytest.raises(ValueError, match="16 GPUs"):
            build_nvswitch(17)

    def test_single_gpu_degenerate(self):
        assert build_nvswitch(1).gpu_count == 1


class TestRing:
    """NCCL-style ring: hop count is ring distance (max n // 2)."""

    def test_neighbors_one_hop(self):
        ic = build_ring(8)
        assert ic.hops(0, 1) == 1
        assert ic.hops(0, 7) == 1  # wraps around

    def test_antipode_is_half_ring(self):
        ic = build_ring(8)
        assert ic.hops(0, 4) == 4
        assert ic.max_hops_from(0, list(range(8))) == 4

    def test_hop_staircase(self):
        ic = build_ring(8)
        assert [ic.hops(0, g) for g in range(8)] == [0, 1, 2, 3, 4, 3, 2, 1]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_small_rings(self, n):
        ic = build_ring(n)
        assert ic.gpu_count == n
        if n > 1:
            assert ic.hops(0, n - 1) == 1

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            build_ring(0)


class TestPlateauEmergence:
    """Regression: the Fig 8/9 plateau boundaries (2-5 GPUs cheap, 6-8
    expensive) must *emerge* from the DGX-1 graph — and disappear when the
    same node is rebuilt on an NVSwitch crossbar."""

    def _latencies(self, interconnect=None):
        from dataclasses import replace

        from repro.sim.arch import DGX1_V100
        from repro.sim.node import Node
        from repro.sync import MultiGridGroup

        spec = DGX1_V100 if interconnect is None else replace(
            DGX1_V100, interconnect=interconnect
        )
        node = Node(spec)
        return {
            n: MultiGridGroup(node, 1, 32, gpu_ids=range(n))
            .simulate()
            .latency_per_sync_us
            for n in range(2, 9)
        }

    def test_dgx1_two_plateaus_with_jump_at_six(self):
        lat = self._latencies()
        low, high = [lat[n] for n in (2, 3, 4, 5)], [lat[n] for n in (6, 7, 8)]
        # Within each plateau the spread is small...
        assert max(low) - min(low) < 0.25 * min(low)
        assert max(high) - min(high) < 0.25 * min(high)
        # ...and the jump between them dominates both spreads.
        jump = min(high) - max(low)
        assert jump > 4 * (max(low) - min(low))
        assert lat[6] > 1.5 * lat[5]

    def test_plateau_tracks_two_hop_membership(self):
        """The jump happens exactly when {0..n-1} first contains a GPU two
        hops from leader 0 — i.e. it is a property of the graph."""
        ic = build_dgx1_nvlink()
        lat = self._latencies()
        for n in range(3, 9):
            gained_2hop = (
                ic.max_hops_from(0, list(range(n))) >= 2
                and ic.max_hops_from(0, list(range(n - 1))) < 2
            )
            jumped = lat[n] > 1.5 * lat[n - 1]
            assert jumped == gained_2hop, f"n={n}"

    def test_nvswitch_flattens_the_plateau(self):
        lat = self._latencies(interconnect="nvswitch")
        vals = list(lat.values())
        # No two-hop members on a crossbar: no jump anywhere.
        assert max(vals) - min(vals) < 0.25 * min(vals)
        for n in range(3, 9):
            assert lat[n] < 1.5 * lat[n - 1]


class TestFactory:
    def test_builds_subgraph_for_fewer_gpus(self):
        ic = build_interconnect("nvlink-cube-mesh", 4)
        assert ic.gpu_count == 4
        assert ic.max_hops_from(0, [1, 2, 3]) == 1

    def test_rejects_too_many_gpus(self):
        with pytest.raises(ValueError, match="8 GPUs"):
            build_interconnect("nvlink-cube-mesh", 9)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_interconnect("infiniband", 2)

    @pytest.mark.parametrize("kind,n", [("nvswitch", 16), ("ring", 6), ("pcie", 2)])
    def test_builds_every_registered_kind(self, kind, n):
        assert build_interconnect(kind, n).gpu_count == n

    def test_transfer_time_includes_payload(self):
        ic = build_dgx1_nvlink()
        small = ic.peer_transfer_ns(0, 1, 1000)
        large = ic.peer_transfer_ns(0, 1, 1_000_000)
        assert large > small
        assert ic.peer_transfer_ns(0, 0, 10**6) == 0.0


def _reference_hops(kind, n):
    """All-pairs hop table computed independently of the BFS."""
    if kind == "ring":
        return [[min(abs(i - j), n - abs(i - j)) for j in range(n)] for i in range(n)]
    # nvswitch and pcie: every distinct pair one hop.
    d = [[0 if i == j else 1 for j in range(n)] for i in range(n)]
    if kind == "nvlink-cube-mesh":
        # Floyd-Warshall over the DGX-1 links among the GPUs present.
        d = [[0 if i == j else float("inf") for j in range(n)] for i in range(n)]
        for a, b in DGX1_NVLINK_LINKS:
            if a < n and b < n:
                d[a][b] = d[b][a] = 1
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return d


# Every GPU count each builder accepts; ring and PCIe have no upper bound,
# so they are checked up to the largest node (16 GPUs).
_EVERY_TOPOLOGY = (
    [("nvlink-cube-mesh", n) for n in range(1, 9)]
    + [(kind, n) for kind in ("nvswitch", "ring", "pcie") for n in range(1, 17)]
)


class TestHopTable:
    """Pins every hop count of every topology to an independent reference."""

    @pytest.mark.parametrize("kind,n", _EVERY_TOPOLOGY)
    def test_all_pairs_match_reference(self, kind, n):
        ic = build_interconnect(kind, n)
        assert ic.gpu_count == n
        table = [[ic.hops(i, j) for j in range(n)] for i in range(n)]
        assert table == _reference_hops(kind, n)

    @pytest.mark.parametrize("kind,n", _EVERY_TOPOLOGY)
    def test_neighbors_sorted_one_hop_list(self, kind, n):
        ic = build_interconnect(kind, n)
        for g in range(n):
            nbrs = ic.neighbors(g)
            assert isinstance(nbrs, list) and nbrs == sorted(nbrs)
            assert nbrs == [h for h in range(n) if ic.hops(g, h) == 1]
