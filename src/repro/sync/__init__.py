"""``repro.sync`` — the unified cooperative-groups-style barrier API.

One composable surface for every synchronization scope the paper
studies (warp, block, grid, multi-device) and every mechanism it
compares (cooperative launch, atomic software barrier, CPU-side
barrier).  Scopes implement the :class:`~repro.sync.scope.SyncScope`
protocol (``arrive``/``wait``/``sync`` + ``size``/``latency_model``);
mechanisms are pluggable :class:`~repro.sync.strategies.BarrierStrategy`
objects, so scope x strategy sweeps are plain constructor knobs.

See ``docs/sync.md`` for the API reference and the scope/strategy
matrix mapped to the paper's taxonomy.
"""

from repro.sync.groups import (
    STRATEGY_KNOB_KEYS,
    BlockGroup,
    GridGroup,
    HostBarrierGroup,
    MultiGridGroup,
    WarpGroup,
)
from repro.sync.scope import BarrierScope, ScopeRun, SyncScope
from repro.sync.strategies import (
    STRATEGY_KINDS,
    BarrierStrategy,
    CooperativeBarrier,
    CpuBarrier,
    Round,
    SoftwareAtomicBarrier,
)

__all__ = [
    # protocol + scaffolding
    "SyncScope",
    "BarrierScope",
    "ScopeRun",
    "Round",
    # strategies
    "BarrierStrategy",
    "CooperativeBarrier",
    "SoftwareAtomicBarrier",
    "CpuBarrier",
    "STRATEGY_KINDS",
    "STRATEGY_KNOB_KEYS",
    # concrete scopes
    "WarpGroup",
    "BlockGroup",
    "GridGroup",
    "MultiGridGroup",
    "HostBarrierGroup",
]
