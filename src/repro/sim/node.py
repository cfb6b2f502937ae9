"""Multi-GPU node model: devices + interconnect + multi-grid cost model.

The multi-grid barrier (``multi_grid.sync()``) has two phases — a
per-GPU **local phase** (grid barrier with system-scope fences) and a
topology-dependent **cross-GPU phase** (leader flag exchange over the
interconnect; the DGX-1 cube-mesh's two-hop members create the paper's
2–5 vs 6–8 GPU plateaus, Figs 8/9).  The DES protocol lives in
:class:`repro.sync.MultiGridGroup`; the closed-form phase models
(:func:`multigrid_local_latency_ns`, :func:`cross_gpu_latency_ns`) stay
here — they are the Figs 7/8 fits, not protocols.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence

from repro.sim.arch import NodeSpec
from repro.sim.device import Device
from repro.sim.interconnect import Interconnect, build_interconnect
from repro.sim.occupancy import blocks_per_sm as occ_blocks_per_sm

__all__ = [
    "Node",
    "MultiGridSyncResult",
    "multigrid_local_latency_ns",
    "cross_gpu_latency_ns",
]


@dataclass(frozen=True)
class MultiGridSyncResult:
    """Outcome of a multi-grid sync micro-benchmark."""

    gpu_ids: tuple
    blocks_per_sm: int
    threads_per_block: int
    n_syncs: int
    total_ns: float
    local_ns: float
    cross_ns: float

    @property
    def latency_per_sync_ns(self) -> float:
        return self.total_ns / self.n_syncs

    @property
    def latency_per_sync_us(self) -> float:
        return self.latency_per_sync_ns / 1e3


class Node:
    """A multi-GPU server: devices and the interconnect between them."""

    def __init__(self, spec: NodeSpec, gpu_count: Optional[int] = None):
        n = gpu_count if gpu_count is not None else spec.gpu_count
        if not (1 <= n <= spec.gpu_count):
            raise ValueError(
                f"gpu_count must be in [1, {spec.gpu_count}] for {spec.name}"
            )
        self.spec = spec
        self.devices: List[Device] = [Device(spec.gpu, i) for i in range(n)]
        self.interconnect: Interconnect = build_interconnect(spec.interconnect, n)

    @property
    def gpu_count(self) -> int:
        return len(self.devices)

    def device(self, index: int) -> Device:
        try:
            return self.devices[index]
        except IndexError:
            raise ValueError(
                f"GPU {index} out of range [0,{self.gpu_count})"
            ) from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({self.spec.name!r}, gpus={self.gpu_count})"


def multigrid_local_latency_ns(
    spec: NodeSpec, blocks_per_sm: int, threads_per_block: int
) -> float:
    """Single-GPU component of one multi-grid sync.

    ``T = base + pb*b + pw*w + pbw*b*w + pw2*w^2`` with ``b`` = blocks/SM
    and ``w`` = warps/SM (relative LSQ fit to the 1-GPU panels of Figs 7/8;
    docs/calibration.md).
    """
    gpu = spec.gpu
    occ = occ_blocks_per_sm(gpu, threads_per_block)
    if blocks_per_sm > occ.blocks_per_sm:
        raise ValueError(
            f"{blocks_per_sm} blocks/SM x {threads_per_block} thr/blk "
            f"not co-resident on {gpu.name}"
        )
    return gpu.multigrid_local.local_ns(
        blocks_per_sm, blocks_per_sm * occ.warps_per_block
    )


def cross_gpu_latency_ns(
    spec: NodeSpec,
    interconnect: Interconnect,
    gpu_ids: Sequence[int],
    blocks_per_sm: int,
) -> float:
    """Cross-GPU phase of one multi-grid sync over ``gpu_ids``.

    ``T = base + per_gpu*(n-1) + hop2_penalty*[max_hop>=2]
          + per_2hop*n_2hop + release_coef*(b^1.5 - 1)``

    Hop counts come from the interconnect graph with the lowest-numbered
    participant as leader (CUDA uses the first device of the launch).
    """
    return _cross_gpu_latency_cached(
        spec, interconnect, tuple(gpu_ids), blocks_per_sm
    )


@lru_cache(maxsize=4096)
def _cross_gpu_latency_cached(
    spec: NodeSpec,
    interconnect: Interconnect,
    gpu_ids: tuple,
    blocks_per_sm: int,
) -> float:
    # Interconnect hashes by identity, which is the memoization we want:
    # a Node builds its graph once and every group shares it.
    n = len(gpu_ids)
    if n <= 1:
        return 0.0
    cg = spec.cross_gpu
    leader = min(gpu_ids)
    max_hop = interconnect.max_hops_from(leader, list(gpu_ids))
    n_2hop = len(interconnect.two_hop_members(leader, list(gpu_ids)))
    t = cg.base_ns + cg.per_gpu_ns * (n - 1)
    if max_hop >= 2:
        t += cg.hop2_penalty_ns + cg.per_2hop_gpu_ns * n_2hop
    t += cg.release_coef_ns * (blocks_per_sm**cg.release_exponent - 1.0)
    return t
