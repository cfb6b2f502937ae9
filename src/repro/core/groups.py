"""Cooperative-groups API (the paper's Figure 2 hierarchy).

Mirrors CUDA's ``cooperative_groups`` namespace over the simulator::

    env = KernelEnv.cooperative(V100, blocks_per_sm=2, threads_per_block=256)
    grid = this_grid(env)
    t = grid.latency_model()          # cost model, ns per sync
    grid.simulate()                   # DES protocol run

The factories validate the launch the way CUDA does and return the
:mod:`repro.sync` scopes (``WarpGroup``, ``BlockGroup``, ``GridGroup``,
``MultiGridGroup``) — the same hierarchy ``CudaRuntime.this_grid`` /
``this_multi_grid`` build on a shared engine.  Hierarchy and
constraints follow the paper:

* **tile / coalesced groups** only synchronize within a warp in CUDA 10
  (Section III-A) — ``tiled_partition`` rejects sizes above 32;
* **grid groups** require a cooperative launch
  (``cudaLaunchCooperativeKernel``) — constructing one from a traditional
  launch raises;
* **multi-grid groups** require the multi-device launch;
* synchronizing a *subset* of a grid/multi-grid group deadlocks
  (Section VIII-B) — reproduced by the simulation, see
  :mod:`repro.core.pitfalls`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.cudasim.errors import CooperativeLaunchTooLarge, CudaError, InvalidConfiguration
from repro.sim.arch import GPUSpec
from repro.sim.node import Node
from repro.sim.occupancy import max_cooperative_blocks
from repro.sync import BlockGroup, GridGroup, MultiGridGroup, WarpGroup

__all__ = [
    "KernelEnv",
    "tiled_partition",
    "coalesced_threads",
    "this_thread_block",
    "this_grid",
    "this_multi_grid",
    "VALID_TILE_SIZES",
]

# CUDA tile sizes are powers of two up to the warp (Section V-A).
VALID_TILE_SIZES: Tuple[int, ...] = (1, 2, 4, 8, 16, 32)


@dataclass(frozen=True)
class KernelEnv:
    """Launch context a kernel-side group is created under.

    ``launch_kind`` is one of ``"traditional"``, ``"cooperative"``,
    ``"multi_device"`` — the capability ladder of the paper's Section III.
    """

    spec: GPUSpec
    blocks_per_sm: int
    threads_per_block: int
    launch_kind: str = "traditional"
    node: Optional[Node] = None
    gpu_ids: Tuple[int, ...] = (0,)

    def __post_init__(self):
        if self.launch_kind not in ("traditional", "cooperative", "multi_device"):
            raise InvalidConfiguration(f"unknown launch kind {self.launch_kind!r}")
        if self.blocks_per_sm < 1 or self.threads_per_block < 1:
            raise InvalidConfiguration("empty launch configuration")
        if self.threads_per_block > self.spec.max_threads_per_block:
            raise InvalidConfiguration(
                f"{self.threads_per_block} threads/block exceeds "
                f"{self.spec.name} limit"
            )
        if self.launch_kind in ("cooperative", "multi_device"):
            limit = max_cooperative_blocks(self.spec, self.threads_per_block)
            if self.blocks_per_sm * self.spec.sm_count > limit:
                raise CooperativeLaunchTooLarge(
                    f"{self.blocks_per_sm} blocks/SM x {self.threads_per_block} "
                    f"threads/block cannot co-reside on {self.spec.name}"
                )
        if self.launch_kind == "multi_device" and self.node is None:
            raise InvalidConfiguration("multi_device launch needs a node")

    # -- constructors ------------------------------------------------------

    @classmethod
    def traditional(cls, spec: GPUSpec, blocks_per_sm: int = 1,
                    threads_per_block: int = 128) -> "KernelEnv":
        return cls(spec, blocks_per_sm, threads_per_block, "traditional")

    @classmethod
    def cooperative(cls, spec: GPUSpec, blocks_per_sm: int = 1,
                    threads_per_block: int = 128) -> "KernelEnv":
        return cls(spec, blocks_per_sm, threads_per_block, "cooperative")

    @classmethod
    def multi_device(cls, node: Node, blocks_per_sm: int = 1,
                     threads_per_block: int = 128,
                     gpu_ids: Optional[Sequence[int]] = None) -> "KernelEnv":
        ids = tuple(gpu_ids) if gpu_ids is not None else tuple(range(node.gpu_count))
        return cls(node.spec.gpu, blocks_per_sm, threads_per_block,
                   "multi_device", node=node, gpu_ids=ids)

    @property
    def warps_per_block(self) -> int:
        return math.ceil(self.threads_per_block / self.spec.warp_size)

    @property
    def warps_per_sm(self) -> int:
        return self.blocks_per_sm * self.warps_per_block

    @property
    def total_blocks(self) -> int:
        return self.blocks_per_sm * self.spec.sm_count


# -- factory functions mirroring the CUDA namespace -------------------------


def tiled_partition(env: KernelEnv, size: int) -> WarpGroup:
    """``cg::tiled_partition<size>(cg::this_thread_block())``."""
    if size not in VALID_TILE_SIZES:
        raise InvalidConfiguration(
            f"tile size must be one of {VALID_TILE_SIZES} "
            "(CUDA 10 tiles only synchronize within a warp, Section III-A)"
        )
    return WarpGroup(env.spec, size, "tile")


def coalesced_threads(env: KernelEnv, size: int = 32) -> WarpGroup:
    """``cg::coalesced_threads()`` with ``size`` currently-active lanes."""
    if not (1 <= size <= 32):
        raise InvalidConfiguration("coalesced group size must be in [1, 32]")
    return WarpGroup(env.spec, size, "coalesced")


def this_thread_block(env: KernelEnv) -> BlockGroup:
    """``cg::this_thread_block()`` — the block's warps (``__syncthreads``)."""
    return BlockGroup(env.spec, env.warps_per_block)


def this_grid(env: KernelEnv) -> GridGroup:
    """``cg::this_grid()`` — raises unless cooperatively launched."""
    if env.launch_kind not in ("cooperative", "multi_device"):
        raise CudaError(
            "grid group requires cudaLaunchCooperativeKernel "
            "(launched traditionally here)"
        )
    return GridGroup(env.spec, env.blocks_per_sm, env.threads_per_block)


def this_multi_grid(env: KernelEnv) -> MultiGridGroup:
    """``cg::this_multi_grid()`` — raises unless multi-device launched."""
    if env.launch_kind != "multi_device":
        raise CudaError(
            "multi-grid group requires cudaLaunchCooperativeKernelMultiDevice"
        )
    assert env.node is not None
    return MultiGridGroup(
        env.node, env.blocks_per_sm, env.threads_per_block, gpu_ids=env.gpu_ids
    )
