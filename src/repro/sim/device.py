"""Whole-GPU device model: device state and the grid-sync cost model.

The grid barrier's DES protocol lives in :class:`repro.sync.GridGroup`;
the closed-form latency model :func:`grid_sync_latency_ns` stays here —
it is the Fig 5 fit, not a protocol.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.arch import GPUSpec
from repro.sim.memory import HBM
from repro.sim.occupancy import blocks_per_sm as occ_blocks_per_sm

__all__ = ["Device", "GridSyncResult", "grid_sync_latency_ns"]


@dataclass(frozen=True)
class GridSyncResult:
    """Outcome of a grid-sync micro-benchmark."""

    blocks_per_sm: int
    threads_per_block: int
    total_blocks: int
    warps_per_sm: int
    n_syncs: int
    total_ns: float

    @property
    def latency_per_sync_ns(self) -> float:
        return self.total_ns / self.n_syncs

    @property
    def latency_per_sync_us(self) -> float:
        return self.latency_per_sync_ns / 1e3


def grid_sync_latency_ns(
    spec: GPUSpec, blocks_per_sm: int, threads_per_block: int
) -> float:
    """Closed-form expected latency of one grid sync (for cross-checks).

    ``T = base + total_blocks * atomic_service(b) + warps_per_sm * release``
    — the relative least-squares fit to the Fig 5 heat-maps, where the L2
    atomic service time degrades linearly in the outstanding block count.
    The DES protocol in :class:`repro.sync.GridGroup` reproduces this
    structurally.
    """
    gs = spec.grid_sync
    occ = occ_blocks_per_sm(spec, threads_per_block)
    if blocks_per_sm > occ.blocks_per_sm:
        raise ValueError(
            f"{blocks_per_sm} blocks/SM x {threads_per_block} thr/blk "
            f"not co-resident on {spec.name} (limit {occ.blocks_per_sm})"
        )
    total_blocks = blocks_per_sm * spec.sm_count
    warps_per_sm = blocks_per_sm * occ.warps_per_block
    return (
        gs.base_ns
        + total_blocks * gs.atomic_service_ns(blocks_per_sm, spec.sm_count)
        + warps_per_sm * gs.per_warp_release_ns
    )


class Device:
    """One simulated GPU: spec, ordinal and HBM streaming model.

    The runtime (:mod:`repro.cudasim`) owns streams and launches; the
    device owns the bandwidth model used by the reduction workloads.
    """

    def __init__(self, spec: GPUSpec, index: int = 0):
        self.spec = spec
        self.index = index
        self.hbm = HBM(spec.hbm)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Device({self.spec.name}, index={self.index})"
