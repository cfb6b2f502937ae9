"""Tests for units and RNG utilities."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.rng import derive_seed, make_rng
from repro.util.units import GB, KB, MB, cycles_to_ns, ns_to_cycles


class TestUnits:
    def test_byte_constants(self):
        assert KB == 1024 and MB == 1024**2 and GB == 1024**3

    @given(st.floats(0.0, 1e9), st.floats(1.0, 5000.0))
    @settings(max_examples=60, deadline=None)
    def test_cycle_roundtrip_any_frequency(self, cycles, freq):
        assert ns_to_cycles(cycles_to_ns(cycles, freq), freq) == pytest.approx(
            cycles, rel=1e-9, abs=1e-6
        )

    def test_known_conversion(self):
        # 1312 MHz: one cycle is ~0.762 ns.
        assert cycles_to_ns(1.0, 1312.0) == pytest.approx(0.7622, rel=1e-3)

    def test_invalid_frequency(self):
        with pytest.raises(ValueError):
            cycles_to_ns(1.0, 0.0)
        with pytest.raises(ValueError):
            ns_to_cycles(1.0, -5.0)


class TestRng:
    def test_derive_seed_deterministic(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")

    def test_derive_seed_distinguishes_tags(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_derive_seed_distinguishes_roots(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_make_rng_reproducible(self):
        a = make_rng(7, "x").normal(size=5)
        b = make_rng(7, "x").normal(size=5)
        assert (a == b).all()

    def test_seed_fits_63_bits(self):
        for tag in ("a", "bb", "ccc"):
            assert 0 <= derive_seed(123, tag) < 2**63
