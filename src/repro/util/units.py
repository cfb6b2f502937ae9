"""Unit conversions used throughout the simulator.

Simulated time is always a float in **nanoseconds** inside the engine.
Device-facing code usually thinks in **cycles**; conversion requires the
device frequency (MHz), so the helpers take it explicitly rather than baking
one frequency in — the multi-GPU experiments put a 1312 MHz V100 timeline and
a host nanosecond clock on the same heap.
"""

from __future__ import annotations

KB: int = 1024
MB: int = 1024 * 1024
GB: int = 1024 * 1024 * 1024


def cycles_to_ns(cycles: float, freq_mhz: float) -> float:
    """Convert device cycles to nanoseconds at ``freq_mhz``."""
    if freq_mhz <= 0:
        raise ValueError(f"frequency must be positive, got {freq_mhz}")
    return cycles * 1e3 / freq_mhz


def ns_to_cycles(ns: float, freq_mhz: float) -> float:
    """Convert nanoseconds to device cycles at ``freq_mhz``."""
    if freq_mhz <= 0:
        raise ValueError(f"frequency must be positive, got {freq_mhz}")
    return ns * freq_mhz / 1e3
