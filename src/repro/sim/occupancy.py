"""CUDA occupancy calculator.

Determines how many blocks of a given shape can be co-resident on one SM,
bounded by the four classic limits: warps, threads, blocks, and shared
memory.  Two consumers:

* Cooperative launches must fit the *whole grid* co-resident
  (``cudaLaunchCooperativeKernel`` fails otherwise) — this produces the
  blank cells of the paper's Figures 5, 7 and 8 (every populated cell obeys
  ``blocks/SM x threads/block <= 2048``).
* The block-sync experiments (Fig 4) need the active-warp count at which the
  barrier units saturate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.sim.arch import GPUSpec

__all__ = ["OccupancyResult", "blocks_per_sm", "max_cooperative_blocks", "active_warps_per_sm"]


@dataclass(frozen=True)
class OccupancyResult:
    """Occupancy of one launch configuration on one SM."""

    blocks_per_sm: int
    warps_per_block: int
    active_warps: int
    limiting_factor: str

    @property
    def active_threads(self) -> int:
        return self.active_warps * 32


def _warps_per_block(spec: GPUSpec, threads_per_block: int) -> int:
    return math.ceil(threads_per_block / spec.warp_size)


def blocks_per_sm(
    spec: GPUSpec,
    threads_per_block: int,
    shared_mem_per_block: int = 0,
) -> OccupancyResult:
    """Maximum co-resident blocks per SM for a block shape.

    Raises
    ------
    ValueError
        If the block shape itself is illegal (0 threads, more threads than
        ``max_threads_per_block``, or more shared memory than a block may
        allocate).
    """
    if threads_per_block <= 0:
        raise ValueError("threads_per_block must be positive")
    if threads_per_block > spec.max_threads_per_block:
        raise ValueError(
            f"{threads_per_block} threads/block exceeds "
            f"{spec.name} limit {spec.max_threads_per_block}"
        )
    if shared_mem_per_block > spec.shared_mem_per_block:
        raise ValueError(
            f"{shared_mem_per_block} B shared/block exceeds "
            f"{spec.name} limit {spec.shared_mem_per_block}"
        )

    wpb = _warps_per_block(spec, threads_per_block)

    limits = {
        "warps": spec.max_warps_per_sm // wpb,
        "threads": spec.max_threads_per_sm // (wpb * spec.warp_size),
        "blocks": spec.max_blocks_per_sm,
    }
    if shared_mem_per_block > 0:
        limits["shared_mem"] = spec.shared_mem_per_sm // shared_mem_per_block

    factor = min(limits, key=lambda k: limits[k])
    blocks = limits[factor]
    if blocks == 0:
        # Block legal but cannot be resident (e.g. shared memory demand).
        return OccupancyResult(0, wpb, 0, factor)
    return OccupancyResult(blocks, wpb, blocks * wpb, factor)


def max_cooperative_blocks(
    spec: GPUSpec,
    threads_per_block: int,
    shared_mem_per_block: int = 0,
) -> int:
    """Largest grid accepted by a cooperative launch on this GPU."""
    occ = blocks_per_sm(spec, threads_per_block, shared_mem_per_block)
    return occ.blocks_per_sm * spec.sm_count


def active_warps_per_sm(
    spec: GPUSpec,
    threads_per_block: int,
    resident_blocks: int,
) -> int:
    """Active warps when ``resident_blocks`` blocks occupy an SM (clamped)."""
    occ = blocks_per_sm(spec, threads_per_block)
    blocks = min(resident_blocks, occ.blocks_per_sm)
    return blocks * occ.warps_per_block
