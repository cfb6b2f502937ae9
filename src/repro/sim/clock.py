"""Clock domains: per-SM cycle counters and the host nanosecond clock.

The paper's measurement methodology (Section IX) hinges on *which clock you
are allowed to read*:

* Wong's intra-SM method reads the SM's ``clock`` register — valid only
  within one SM, cycle-accurate.
* The paper's new inter-SM method (Section IX-D) uses the **CPU clock**
  around ``cudaDeviceSynchronize`` — global, but noisier; the paper derives
  an error model (Eq 8) to recover instruction latencies from it.

We model both: :class:`SMClock` converts engine nanoseconds to device cycles
(exact, plus optional 1-cycle quantization), and :class:`HostClock` adds
Gaussian jitter calibrated to a commodity Xeon timer (~hundreds of ns),
which is what makes the paper's repeat-count differencing statistically
necessary in our reproduction too.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.sim.engine import Engine
from repro.util.rng import make_rng
from repro.util.units import cycles_to_ns, ns_to_cycles

__all__ = ["SMClock", "HostClock"]


class SMClock:
    """Cycle counter of one SM (the CUDA ``clock()`` register).

    Parameters
    ----------
    engine:
        The shared event engine (time source).
    freq_mhz:
        SM clock frequency; Table VII: 1312 MHz (V100), 1189 MHz (P100).
    quantize:
        When true, reads return whole cycles (as the hardware register does).
    """

    def __init__(self, engine: Engine, freq_mhz: float, quantize: bool = True):
        if not 0.0 < freq_mhz < math.inf:
            raise ValueError(f"freq_mhz must be positive and finite, got {freq_mhz!r}")
        self.engine = engine
        self.freq_mhz = float(freq_mhz)
        self.quantize = quantize

    def read(self) -> float:
        """Current SM cycle count."""
        cycles = ns_to_cycles(self.engine.now, self.freq_mhz)
        return float(math.floor(cycles)) if self.quantize else cycles

    def cycles(self, ns: float) -> float:
        """Convert a duration in ns to cycles of this domain."""
        return ns_to_cycles(ns, self.freq_mhz)

    def ns(self, cycles: float) -> float:
        """Convert a duration in cycles of this domain to ns."""
        return cycles_to_ns(cycles, self.freq_mhz)


class HostClock:
    """Host wall clock with calibrated read jitter.

    ``jitter_ns`` is the standard deviation of a zero-mean Gaussian added to
    each read.  The default (120 ns) is small enough that single kernels are
    still measurable, yet large enough that the variance algebra of Eq 8
    matters — exactly the regime the paper designed its method for.
    """

    def __init__(
        self,
        engine: Engine,
        jitter_ns: float = 120.0,
        seed: Optional[int] = None,
        tag: str = "host-clock",
    ):
        if not 0.0 <= jitter_ns < math.inf:
            raise ValueError(f"jitter_ns must be non-negative and finite, got {jitter_ns!r}")
        self.engine = engine
        self.jitter_ns = float(jitter_ns)
        self._rng = make_rng(seed if seed is not None else 0, tag)

    def read(self) -> float:
        """Current host time in ns, with read jitter applied."""
        return self.read_at(self.engine.now)

    def read_at(self, now_ns: float) -> float:
        """A read taken at host time ``now_ns``: it adds the next jitter draw.

        A replayed host timeline (:mod:`repro.cudasim.timeline`) reads the
        clock through this, so its draws follow the engine path's.
        """
        noise = self._rng.normal(0.0, self.jitter_ns) if self.jitter_ns else 0.0
        return now_ns + noise

    def read_exact(self) -> float:
        """Noise-free time (for tests that need ground truth)."""
        return self.engine.now
