"""Tests for SM and host clock domains."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.arch import P100, V100
from repro.sim.clock import HostClock, SMClock
from repro.sim.engine import Engine
from repro.util.units import ns_to_cycles

NON_FINITE = pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])


class TestSMClock:
    def test_reads_engine_time_in_cycles(self):
        eng = Engine()
        clk = SMClock(eng, freq_mhz=1000.0)  # 1 cycle per ns
        eng.now = 125.0
        assert clk.read() == 125.0

    def test_quantization_floors(self):
        eng = Engine()
        clk = SMClock(eng, freq_mhz=1312.0)
        eng.now = 10.0  # 13.12 cycles
        assert clk.read() == 13.0

    def test_unquantized_read(self):
        eng = Engine()
        clk = SMClock(eng, freq_mhz=1312.0, quantize=False)
        eng.now = 10.0
        assert clk.read() == pytest.approx(13.12)

    def test_cycle_ns_roundtrip(self):
        clk = SMClock(Engine(), freq_mhz=1189.0)
        assert clk.ns(clk.cycles(777.0)) == pytest.approx(777.0)

    def test_invalid_frequency_rejected(self):
        with pytest.raises(ValueError):
            SMClock(Engine(), freq_mhz=0.0)

    @NON_FINITE
    def test_non_finite_frequency_rejected(self, value):
        with pytest.raises(ValueError, match="freq_mhz"):
            SMClock(Engine(), freq_mhz=value)

    @pytest.mark.parametrize("spec", [V100, P100], ids=["V100", "P100"])
    @given(now=st.floats(0.0, 2.0**52 * 1e3 / V100.freq_mhz))
    @settings(max_examples=200, deadline=None)
    def test_read_floors_like_numpy(self, spec, now):
        """``math.floor`` gives the bits ``np.floor`` gave, up to ~2**52 cycles."""
        eng = Engine()
        clk = SMClock(eng, spec.freq_mhz)
        eng.now = now
        got, want = clk.read(), float(np.floor(ns_to_cycles(now, spec.freq_mhz)))
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)

    def test_v100_p100_frequency_domains_differ(self, v100, p100):
        eng = Engine()
        cv = SMClock(eng, v100.freq_mhz)
        cp = SMClock(eng, p100.freq_mhz)
        eng.now = 1000.0
        assert cv.read() > cp.read()  # V100 runs at 1312 vs 1189 MHz


class TestHostClock:
    def test_zero_jitter_is_exact(self):
        eng = Engine()
        clk = HostClock(eng, jitter_ns=0.0)
        eng.now = 555.0
        assert clk.read() == 555.0

    def test_jitter_is_reproducible_for_same_seed(self):
        e1, e2 = Engine(), Engine()
        c1 = HostClock(e1, jitter_ns=100.0, seed=7)
        c2 = HostClock(e2, jitter_ns=100.0, seed=7)
        e1.now = e2.now = 100.0
        assert c1.read() == c2.read()

    def test_different_seeds_differ(self):
        eng = Engine()
        c1 = HostClock(eng, jitter_ns=100.0, seed=1)
        c2 = HostClock(eng, jitter_ns=100.0, seed=2)
        eng.now = 100.0
        assert c1.read() != c2.read()

    def test_jitter_magnitude_is_calibrated(self):
        eng = Engine()
        clk = HostClock(eng, jitter_ns=120.0, seed=3)
        eng.now = 0.0
        reads = np.array([clk.read() for _ in range(4000)])
        assert abs(reads.mean()) < 10.0
        assert 100.0 < reads.std() < 140.0

    def test_read_exact_ignores_jitter(self):
        eng = Engine()
        clk = HostClock(eng, jitter_ns=500.0, seed=1)
        eng.now = 42.0
        assert clk.read_exact() == 42.0

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError):
            HostClock(Engine(), jitter_ns=-1.0)

    @NON_FINITE
    def test_non_finite_jitter_rejected(self, value):
        with pytest.raises(ValueError, match="jitter_ns"):
            HostClock(Engine(), jitter_ns=value)
