"""Measurement harness: warm-up, repetition, summary statistics.

Implements the protocol discipline of Section IX: every measurement does a
warm-up pass that is discarded (Section IX-B: "we do a warm-up kernel call
before every measurement that we don't report the results for"), then
collects ``samples`` repetitions and summarizes them.  A measurement whose
every sample runs its own warm-up on a fresh runtime sets ``warmup=0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

__all__ = ["MeasurementConfig", "Measurement", "collect"]


@dataclass(frozen=True)
class MeasurementConfig:
    """Repetition policy for one micro-benchmark."""

    warmup: int = 1
    samples: int = 5

    def __post_init__(self):
        if self.warmup < 0:
            raise ValueError("warmup must be non-negative")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")


@dataclass(frozen=True)
class Measurement:
    """Summary of repeated samples of one quantity."""

    values: tuple
    unit: str = "ns"

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values)

    @property
    def std(self) -> float:
        """Sample standard deviation (ddof=1); 0 for a single sample."""
        if len(self.values) < 2:
            return 0.0
        m = self.mean
        return math.sqrt(sum((v - m) ** 2 for v in self.values) / (len(self.values) - 1))

    @property
    def sem(self) -> float:
        """Standard error of the mean."""
        return self.std / math.sqrt(len(self.values)) if len(self.values) else 0.0

    @property
    def min(self) -> float:
        return min(self.values)

    @property
    def max(self) -> float:
        return max(self.values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Measurement(mean={self.mean:.1f}{self.unit}, std={self.std:.1f}, n={self.n})"


def collect(
    sample_fn: Callable[[], float],
    config: MeasurementConfig = MeasurementConfig(),
    unit: str = "ns",
) -> Measurement:
    """Run warm-ups (discarded), then gather ``config.samples`` samples."""
    for _ in range(config.warmup):
        sample_fn()
    values = tuple(sample_fn() for _ in range(config.samples))
    return Measurement(values=values, unit=unit)
