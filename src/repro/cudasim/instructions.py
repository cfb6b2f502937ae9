"""Instruction vocabulary for thread-precise kernels.

Kernels for the thread-level executor are generator functions over a
:class:`~repro.sim.exec_thread.ThreadCtx`, yielding instruction objects from
this module.  Each instruction corresponds to a PTX/SASS-level operation the
paper's micro-benchmarks exercise; latencies come from the architecture's
:class:`~repro.sim.arch.InstructionCalib` and
:class:`~repro.sim.arch.WarpSyncCalib` blocks.

Instructions that produce a value deliver it as the result of the ``yield``::

    t0 = yield ReadClock()
    v = yield ShuffleDown(my_val, delta=16)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "Instruction",
    "Compute",
    "FAdd",
    "DAdd",
    "ChainStep",
    "ReadClock",
    "Nanosleep",
    "Diverge",
    "SharedLoad",
    "SharedStore",
    "WarpSync",
    "ShuffleDown",
    "MethodOverhead",
]


class Instruction:
    """Marker base class for all thread-level instructions."""

    __slots__ = ()


@dataclass(frozen=True)
class Compute(Instruction):
    """Occupy the thread for a fixed number of cycles."""

    cycles: float

    def __post_init__(self):
        if not 0 <= self.cycles < math.inf:
            raise ValueError(
                f"Compute cycles must be finite and >= 0, got {self.cycles!r}"
            )


@dataclass(frozen=True)
class FAdd(Instruction):
    """``count`` dependent single-precision adds (latency-chained)."""

    count: int = 1

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("FAdd count must be non-negative")


@dataclass(frozen=True)
class DAdd(Instruction):
    """``count`` dependent double-precision adds (latency-chained)."""

    count: int = 1

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("DAdd count must be non-negative")


@dataclass(frozen=True)
class ChainStep(Instruction):
    """One iteration of the shared-memory load+add dependent chain.

    This is the inner loop of the paper's bandwidth proxy (Fig 10); its
    latency is the Table III "latency" column (13.0 / 18.5 cycles).
    """

    count: int = 1

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("ChainStep count must be non-negative")


@dataclass(frozen=True)
class ReadClock(Instruction):
    """Read the SM cycle counter (CUDA ``clock()``).  Yields the value."""


@dataclass(frozen=True)
class Nanosleep(Instruction):
    """Volta ``nanosleep.u32``; raises on Pascal (Section IX-B)."""

    ns: float

    def __post_init__(self):
        if not 0 <= self.ns < math.inf:
            raise ValueError(
                f"Nanosleep ns must be finite and >= 0, got {self.ns!r}"
            )


@dataclass(frozen=True)
class Diverge(Instruction):
    """Enter a serialized divergent branch arm.

    Models the cost of one arm of a 32-way ``if tid == k`` ladder (the
    Fig 17 protocol): arms are issued one at a time per warp, each paying
    the architecture's divergent-arm overhead.  This produces the start-
    timer staircase of Fig 18.
    """

    arms: int = 1

    def __post_init__(self):
        if self.arms < 0:
            raise ValueError("Diverge arms must be non-negative")


@dataclass(frozen=True)
class SharedLoad(Instruction):
    """Load from block shared memory.  Yields the value."""

    slot: int
    volatile: bool = False


@dataclass(frozen=True)
class SharedStore(Instruction):
    """Store to block shared memory."""

    slot: int
    value: float
    volatile: bool = False


@dataclass(frozen=True)
class WarpSync(Instruction):
    """Warp-level synchronization.

    ``kind`` selects the CUDA construct:

    * ``"tile"``       — ``tiled_partition<N>(...).sync()``
    * ``"coalesced"``  — ``coalesced_threads().sync()``

    ``mask`` is the participating-lane bitmask (default: full warp).  On
    Volta the instruction blocks until every masked thread arrives; on
    Pascal it degrades to a memory fence that does not block (Section
    VIII-A) — the executor implements both behaviours.
    """

    kind: str = "tile"
    mask: int = 0xFFFFFFFF
    group_size: int = 32

    def __post_init__(self):
        if self.kind not in ("tile", "coalesced"):
            raise ValueError(f"unknown warp sync kind {self.kind!r}")
        if not (1 <= self.group_size <= 32):
            raise ValueError("group_size must be in [1, 32]")


@dataclass(frozen=True)
class BlockSync(Instruction):
    """``__syncthreads()`` / ``this_thread_block().sync()``.

    Only meaningful under a :class:`~repro.sim.exec_block.BlockExecutor`
    (cross-warp rendezvous + shared-memory commit); a lone warp executor
    treats it as a barrier over its own threads.
    """


@dataclass(frozen=True)
class ShuffleDown(Instruction):
    """``shfl_down_sync``: yields the ``value`` posted by lane ``tid+delta``.

    ``kind`` mirrors :class:`WarpSync` — the paper measures the shuffle both
    through a tile group and through a coalesced group, with very different
    costs (Table II / Table V).  Lanes whose source is out of range receive
    their own value back (CUDA semantics).
    """

    value: float
    delta: int
    kind: str = "tile"
    width: int = 32

    def __post_init__(self):
        if self.kind not in ("tile", "coalesced"):
            raise ValueError(f"unknown shuffle kind {self.kind!r}")
        if self.delta < 0:
            raise ValueError("delta must be non-negative")
        if not (1 <= self.width <= 32):
            raise ValueError("width must be in [1, 32]")


@dataclass(frozen=True)
class MethodOverhead(Instruction):
    """Calibrated per-method issue overhead (Table V residuals).

    Represents the extra SASS instructions a particular reduction variant
    emits per step (group materialization, predicate setup, volatile
    load/store path).  Kept explicit so the cost composition in
    ``reduction/warp.py`` is auditable.
    """

    cycles: float

    def __post_init__(self):
        if not -50 <= self.cycles < math.inf:
            raise ValueError(
                f"MethodOverhead cycles must be finite and >= -50, got {self.cycles!r}"
            )
