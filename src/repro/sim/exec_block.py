"""Thread-precise *block* executor: multiple warps, one shared memory,
``__syncthreads`` rendezvous.

Extends the warp executor to whole thread blocks so that block-scope
listings (the paper's Fig 12 ``block_reduce``) can run with exact CUDA
semantics: per-warp shuffle/sync boards stay warp-local, shared memory is
block-visible under the pending/committed model, and
:class:`~repro.cudasim.instructions.BlockSync` is a cross-warp barrier that
commits shared memory and costs the calibrated block-sync latency — on
*both* architectures (unlike warp barriers, ``__syncthreads`` blocks on
Pascal too).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Generator

from repro.sim.arch import GPUSpec
from repro.sim.engine import Engine, Signal
from repro.sim.exec_thread import ThreadCtx, WarpExecutor, WarpRunResult
from repro.sim.memory import SharedMemory
from repro.sim.sm import block_sync_latency_cycles

__all__ = ["BlockBarrier", "BlockExecutor"]


class BlockBarrier:
    """Round-keyed ``__syncthreads`` rendezvous across a block's threads."""

    def __init__(self, engine: Engine, spec: GPUSpec, nthreads: int,
                 shared: SharedMemory):
        self.engine = engine
        self.spec = spec
        self.nthreads = nthreads
        self.shared = shared
        self.warps = math.ceil(nthreads / spec.warp_size)
        self.latency_ns = spec.cycles_to_ns(
            block_sync_latency_cycles(spec, self.warps)
        )
        self._rounds: Dict[int, dict] = {}
        self._counters: Dict[int, int] = {}
        self.rounds_completed = 0

    def _round(self, idx: int) -> dict:
        rnd = self._rounds.get(idx)
        if rnd is None:
            rnd = {
                "arrived": 0,
                "release": Signal(self.engine, name=f"syncthreads-{idx}"),
            }
            self._rounds[idx] = rnd
        return rnd

    def arrive_nowait(self, gtid: int) -> Signal:
        """Count one arrival now; return the round's release signal.

        The caller yields the signal to wait for the block.  A
        thread-precise lane arrives for itself; the SIMT fast path
        arrives a whole converged warp, or a virtual divergence region's
        lanes at its join, from one warp process.  Every path shares this
        bookkeeping, so arrival counting is identical everywhere.
        """
        idx = self._counters.get(gtid, 0)
        self._counters[gtid] = idx + 1
        rnd = self._round(idx)
        rnd["arrived"] += 1
        if rnd["arrived"] == self.nthreads:
            self.shared.commit()
            self.engine.schedule_fire(self.latency_ns, rnd["release"])
            self.rounds_completed += 1
        return rnd["release"]


class BlockExecutor:
    """Runs one thread block precisely (up to 1024 threads / 32 warps)."""

    def __init__(
        self,
        spec: GPUSpec,
        nthreads: int = 128,
        shared_slots: int = 1024,
        simt_fast_path: bool = True,
    ):
        if not (1 <= nthreads <= spec.max_threads_per_block):
            raise ValueError(
                f"nthreads must be in [1, {spec.max_threads_per_block}]"
            )
        self.spec = spec
        self.nthreads = nthreads
        self.engine = Engine()
        self.shared = SharedMemory(shared_slots)
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
