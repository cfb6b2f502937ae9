"""Warp-level reduction variants (Section VII-C, Table V, Fig 11).

Seven implementations of "sum 32 doubles within a warp", differing only in
how (or whether) they synchronize between tree steps:

========  ==========================================================
serial    one thread loops over all 32 values (no parallelism)
nosync    parallel tree, **no** barrier — races; result incorrect
volatile  parallel tree over ``volatile`` shared memory, no barrier
tile      tree with ``tiled_partition<32>().sync()`` between steps
coalesced tree with ``coalesced_threads().sync()`` between steps
tile_shuffle       tree over ``shfl_down`` via the tile group
coalesced_shuffle  tree over ``shfl_down`` via a coalesced group
========  ==========================================================

Each variant has two faces, deliberately separate:

* **Semantics** — :func:`warp_reduce_value` evaluates the variant under the
  CUDA visibility model (plain stores invisible to other threads until a
  sync/fence; ``volatile`` bypasses; own writes always visible).  The
  no-sync variant reads stale partials and produces an *actually wrong*
  number, as the paper's Table V footnote reports.
* **Timing** — :func:`warp_reduce_latency_cycles` runs the variant's
  instruction sequence on the thread-precise executor.  Per-step cost is
  composed from the architecture's instruction latencies plus the
  calibrated per-method issue overhead (extra SASS the method emits).
  The run depends only on the frozen spec and the method, so its result
  is memoized per ``(spec, method)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Generator, Tuple

import numpy as np

from repro.cudasim import instructions as ins
from repro.sim.arch import GPUSpec
from repro.sim.engine import shortcuts_allowed
from repro.sim.exec_thread import ThreadCtx, WarpExecutor

__all__ = [
    "WARP_REDUCE_METHODS",
    "WarpReduceOutcome",
    "warp_reduce_value",
    "warp_reduce_latency_cycles",
    "table5_rows",
]

WARP_REDUCE_METHODS: Tuple[str, ...] = (
    "serial",
    "nosync",
    "volatile",
    "tile",
    "coalesced",
    "tile_shuffle",
    "coalesced_shuffle",
)

_TREE_STEPS = (16, 8, 4, 2, 1)


@dataclass(frozen=True)
class WarpReduceOutcome:
    """Result + correctness of one warp-reduce evaluation."""

    method: str
    value: float
    expected: float
    race_detected: bool

    @property
    def correct(self) -> bool:
        return not self.race_detected and np.isclose(self.value, self.expected)


# ---------------------------------------------------------------------------
# Semantics
# ---------------------------------------------------------------------------


def _tree_reduce_semantic(values: np.ndarray, synced: bool) -> Tuple[float, bool]:
    """Step-synchronous evaluation of the shared-memory tree.

    ``synced=False`` models the no-barrier variant: other threads' updates
    from *previous tree steps* are never committed (registers, per the
    visibility model), so reads take the original values — the classic
    stale-partial bug.
    """
    committed = values.astype(np.float64).copy()  # initial population store
    own = committed.copy()  # each thread's privately-visible view of its slot
    updated = np.zeros(32, dtype=bool)  # slots holding uncommitted writes
    race = False
    for step in _TREE_STEPS:
        new_own = own.copy()
        for tid in range(32):
            if tid + step < 32:
                if synced:
                    addend = own[tid + step]
                else:
                    # Reads another thread's slot: only the committed
                    # (initial) value is visible.  Structurally a race as
                    # soon as the producer has an uncommitted update,
                    # whether or not the numbers happen to coincide.
                    addend = committed[tid + step]
                    if updated[tid + step]:
                        race = True
                new_own[tid] = own[tid] + addend
        if not synced:
            lanes = np.arange(32)
            updated |= lanes + step < 32
        own = new_own
        if synced:
            committed = own.copy()
    return float(own[0]), race


def _shuffle_reduce_semantic(values: np.ndarray) -> Tuple[float, bool]:
    """Register tree over shfl_down — no shared memory, no races."""
    regs = values.astype(np.float64).copy()
    for step in _TREE_STEPS:
        received = np.empty_like(regs)
        for lane in range(32):
            src = lane + step
            received[lane] = regs[src] if src < 32 else regs[lane]
        lanes = np.arange(32)
        regs = np.where(lanes + step < 32, regs + received, regs)
    return float(regs[0]), False


def warp_reduce_value(values, method: str) -> WarpReduceOutcome:
    """Evaluate one variant's *numeric result* under the visibility model."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != (32,):
        raise ValueError(f"warp reduce needs exactly 32 values, got {arr.shape}")
    expected = float(arr.sum())

    if method == "serial":
        value, race = expected, False
    elif method == "nosync":
        value, race = _tree_reduce_semantic(arr, synced=False)
    elif method in ("volatile", "tile", "coalesced"):
        # volatile commits every store immediately; tile/coalesced commit at
        # each barrier — identical step-synchronous visibility.
        value, race = _tree_reduce_semantic(arr, synced=True)
    elif method in ("tile_shuffle", "coalesced_shuffle"):
        value, race = _shuffle_reduce_semantic(arr)
    else:
        raise ValueError(f"unknown warp reduce method {method!r}")

    return WarpReduceOutcome(
        method=method, value=value, expected=expected, race_detected=race
    )


# ---------------------------------------------------------------------------
# Timing
# ---------------------------------------------------------------------------


def _step_cost_cycles(spec: GPUSpec, method: str) -> float:
    """Non-sync portion of one tree step (memory path + add + method SASS)."""
    ic, wr, sm = spec.instructions, spec.warp_reduce, spec.shared_mem
    if method == "nosync":
        # Store-to-load forwarded chain (no visibility ordering).
        return sm.chain_latency_cycles + wr.nosync_step_extra
    if method == "volatile":
        return ic.shared_ld + ic.dadd + wr.volatile_step_extra
    if method == "tile":
        return ic.shared_ld + ic.dadd + wr.tile_step_extra
    if method == "coalesced":
        return ic.shared_ld + ic.dadd + wr.coa_step_extra
    if method == "tile_shuffle":
        return ic.dadd + wr.tile_shuffle_step_extra
    if method == "coalesced_shuffle":
        return ic.dadd + wr.coa_shuffle_create
    raise ValueError(f"unknown method {method!r}")


def _timing_program(spec: GPUSpec, method: str):
    """Build the thread program whose critical path is the Table V latency."""
    wr = spec.warp_reduce

    if method == "serial":

        def program(ctx: ThreadCtx) -> Generator:
            if ctx.tid != 0:
                return
            yield ins.MethodOverhead(cycles=wr.serial_base_cycles)
            yield ins.DAdd(count=31)  # dependent accumulation chain

        return program

    step_cycles = _step_cost_cycles(spec, method)

    def program(ctx: ThreadCtx) -> Generator:
        yield ins.MethodOverhead(cycles=wr.loop_base_cycles)
        for step in _TREE_STEPS:
            if method in ("tile_shuffle", "coalesced_shuffle"):
                kind = "tile" if method == "tile_shuffle" else "coalesced"
                yield ins.ShuffleDown(value=float(ctx.tid), delta=step, kind=kind)
                yield ins.Compute(cycles=step_cycles)
            else:
                yield ins.Compute(cycles=step_cycles)
                if method == "tile":
                    yield ins.WarpSync(kind="tile", group_size=32)
                elif method == "coalesced":
                    yield ins.WarpSync(kind="coalesced", group_size=32)
                # nosync / volatile: no barrier instruction at all

    return program


@lru_cache(maxsize=64)
def _run_latency_cycles(spec: GPUSpec, method: str) -> float:
    run = WarpExecutor(spec, nthreads=32).run(_timing_program(spec, method))
    return run.duration_cycles


def warp_reduce_latency_cycles(spec: GPUSpec, method: str) -> float:
    """Measured latency (cycles) to sum 32 doubles with one variant.

    Memoized per ``(spec, method)`` where shortcuts are allowed
    (:func:`~repro.sim.engine.shortcuts_allowed`); otherwise every call
    runs the warp, so a sanitizer monitor's events and an engine run's
    work do not depend on what ran earlier in the process.
    """
    if method not in WARP_REDUCE_METHODS:
        raise ValueError(
            f"unknown method {method!r}; expected one of {WARP_REDUCE_METHODS}"
        )
    if not shortcuts_allowed():
        return _run_latency_cycles.__wrapped__(spec, method)
    return _run_latency_cycles(spec, method)


def table5_rows(spec: GPUSpec, seed: int = 7) -> Dict[str, Dict[str, float]]:
    """Reproduce Table V: latency and correctness per variant."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.5, 1.5, size=32)
    rows: Dict[str, Dict[str, float]] = {}
    for method in WARP_REDUCE_METHODS:
        outcome = warp_reduce_value(values, method)
        rows[method] = {
            "latency_cycles": warp_reduce_latency_cycles(spec, method),
            "correct": outcome.correct,
        }
    return rows
