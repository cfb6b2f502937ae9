"""Thread-precise *block* executor: multiple warps, one shared memory,
``__syncthreads`` rendezvous.

Extends the warp executor to whole thread blocks so that block-scope
listings (the paper's Fig 12 ``block_reduce``) can run with exact CUDA
semantics: per-warp shuffle/sync boards stay warp-local, shared memory
(1,024 slots of 8 bytes) is block-visible under the pending/committed
model, and :class:`~repro.cudasim.instructions.BlockSync` counts on one
:class:`BlockBarrier` that every warp shares (defined in
:mod:`repro.sim.exec_thread`, since a lone warp builds a one-warp one).
It commits shared memory and costs the calibrated block-sync latency — on
*both* architectures (unlike warp barriers, ``__syncthreads`` blocks on
Pascal too).
"""

from __future__ import annotations

from typing import Callable, Generator

from repro.sim.arch import GPUSpec
from repro.sim.engine import Engine
from repro.sim.exec_thread import BlockBarrier, ThreadCtx, WarpExecutor, WarpRunResult
from repro.sim.memory import SharedMemory

__all__ = ["BlockBarrier", "BlockExecutor"]


class BlockExecutor:
    """Runs one thread block precisely (up to 1024 threads / 32 warps)."""

    def __init__(
        self,
        spec: GPUSpec,
        nthreads: int = 128,
        simt_fast_path: bool = True,
    ):
        if not (1 <= nthreads <= spec.max_threads_per_block):
            raise ValueError(
                f"nthreads must be in [1, {spec.max_threads_per_block}]"
            )
        self.spec = spec
        self.nthreads = nthreads
        self.engine = Engine()
        self.shared = SharedMemory(1024)
        self.barrier = BlockBarrier(self.engine, spec, nthreads, self.shared)
        self.warps = []
        for offset in range(0, nthreads, spec.warp_size):
            lanes = min(spec.warp_size, nthreads - offset)
            self.warps.append(
                WarpExecutor(
                    spec,
                    nthreads=lanes,
                    engine=self.engine,
                    shared=self.shared,
                    tid_offset=offset,
                    block_barrier=self.barrier,
                    simt_fast_path=simt_fast_path,
                )
            )

    @property
    def warp_count(self) -> int:
        return len(self.warps)

    def run(self, program: Callable[[ThreadCtx], Generator]) -> WarpRunResult:
        """Execute ``program`` on every thread of the block."""
        result = WarpRunResult(
            duration_ns=0.0,
            duration_cycles=0.0,
            start_ns={},
            end_ns={},
            records={},
            returns={},
            shared=self.shared,
            shuffle_incorrect=False,
        )
        t0 = self.engine.now
        for warp in self.warps:
            warp.start(program, result)
        self.engine.run()
        result.duration_ns = self.engine.now - t0
        result.duration_cycles = self.spec.ns_to_cycles(result.duration_ns)
        result.shuffle_incorrect = any(w.shuffle_incorrect for w in self.warps)
        return result
