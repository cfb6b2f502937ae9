"""Model-driven reduction tuning — the paper's "how to use this knowledge".

Section VII-B's punchline: with the measured proxy characteristics and the
Eq 4/5 switching points, you can *decide* per input size whether to use a
single thread, a warp, a full block, or the whole device — without running
the alternatives.  This module packages that decision:

* :func:`choose_warp_or_thread` / :func:`choose_block_width` — the two
  scenarios of Table IV;
* :func:`recommend` — end-to-end recommendation for an input size,
  including whether a device-wide reduction should use the implicit
  two-kernel scheme or the persistent grid-sync kernel (Fig 15's answer:
  implicit, slightly).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.perfmodel import _worker, choose_workers, scenario_sync_cycles
from repro.sim.arch import GPUSpec

__all__ = ["ReductionPlan", "choose_warp_or_thread", "choose_block_width", "recommend"]


def choose_warp_or_thread(spec: GPUSpec, n_bytes: int) -> str:
    """Scenario 1: single thread vs single warp (sync = 5 shuffles).

    Table IV predicts the switch near 70-76 B — i.e. use the warp once the
    input exceeds ~9 doubles; "it is better to compute 32 data points with
    a warp".
    """
    basic = _worker(spec, "thread", 1)
    more = _worker(spec, "warp", 32)
    sync = scenario_sync_cycles(spec, "warp")
    return choose_workers(basic, more, sync, n_bytes).name


def choose_block_width(spec: GPUSpec, n_bytes: int) -> str:
    """Scenario 2: 32 threads vs 1024 threads (sync = 5 block syncs).

    Table IV predicts ~8.5-9 KB on V100 (~30 KB on P100): below that,
    "there would be no benefit to compute 1024 data points with 1024
    threads per block".
    """
    basic = _worker(spec, "block32", 32)
    more = _worker(spec, "block1024", 1024)
    sync = scenario_sync_cycles(spec, "block1024")
    return choose_workers(basic, more, sync, n_bytes).name


@dataclass(frozen=True)
class ReductionPlan:
    """Recommended implementation for one input size."""

    size_bytes: int
    scope: str          # "thread" | "warp" | "block" | "device"
    block_width: int
    device_method: Optional[str]  # "implicit" | "grid" | None
    rationale: str


def recommend(spec: GPUSpec, size_bytes: int) -> ReductionPlan:
    """End-to-end recommendation for reducing ``size_bytes`` of float64."""
    if size_bytes <= 0:
        raise ValueError("size_bytes must be positive")

    warp_choice = choose_warp_or_thread(spec, size_bytes)
    if warp_choice == "thread":
        return ReductionPlan(
            size_bytes=size_bytes,
            scope="thread",
            block_width=1,
            device_method=None,
            rationale=(
                "input below the warp switching point (Table IV): the "
                "5-shuffle sync cost outweighs warp parallelism"
            ),
        )

    block_choice = choose_block_width(spec, size_bytes)
    if block_choice == "block32":
        return ReductionPlan(
            size_bytes=size_bytes,
            scope="warp",
            block_width=32,
            device_method=None,
            rationale=(
                "input below the 1024-thread switching point (Table IV): "
                "block syncs would dominate"
            ),
        )

    # Device-wide territory once the input exceeds one block's shared
    # memory working set.
    if size_bytes <= spec.shared_mem_per_block:
        return ReductionPlan(
            size_bytes=size_bytes,
            scope="block",
            block_width=1024,
            device_method=None,
            rationale="fits one block's shared memory; 1024-thread block reduce",
        )
    return ReductionPlan(
        size_bytes=size_bytes,
        scope="device",
        block_width=1024,
        device_method="implicit",
        rationale=(
            "device-wide: the implicit two-kernel scheme edges out the "
            "grid-sync persistent kernel at every size (Fig 15), though "
            "not decisively"
        ),
    )
