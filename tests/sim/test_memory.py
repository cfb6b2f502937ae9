"""Tests for the memory system: visibility model, atomics, HBM."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine
from repro.sim.memory import HBM, L2AtomicUnit, SharedMemory


class TestSharedMemoryVisibility:
    def test_plain_store_invisible_to_others(self):
        sm = SharedMemory(8)
        sm.store(thread=0, slot=3, value=7.0)
        assert sm.load(thread=1, slot=3) == 0.0
        assert sm.race_detected

    def test_plain_store_visible_to_self(self):
        sm = SharedMemory(8)
        sm.store(thread=0, slot=3, value=7.0)
        assert sm.load(thread=0, slot=3) == 7.0
        assert not sm.race_detected

    def test_commit_makes_writes_visible(self):
        sm = SharedMemory(8)
        sm.store(thread=0, slot=3, value=7.0)
        assert sm.commit() == 1
        assert sm.load(thread=1, slot=3) == 7.0
        assert not sm.race_detected

    def test_volatile_store_immediately_visible(self):
        sm = SharedMemory(8)
        sm.store(thread=0, slot=2, value=5.0, volatile=True)
        assert sm.load(thread=1, slot=2) == 5.0
        assert not sm.race_detected

    def test_volatile_load_snoops_pending(self):
        sm = SharedMemory(8)
        sm.store(thread=0, slot=2, value=5.0)
        assert sm.load(thread=1, slot=2, volatile=True) == 5.0
        assert not sm.race_detected

    def test_race_record_details(self):
        sm = SharedMemory(8)
        sm.store(thread=4, slot=1, value=1.0)
        sm.load(thread=9, slot=1, step=2)
        rec = sm.races[0]
        assert (rec.reader, rec.writer, rec.slot, rec.step) == (9, 4, 1, 2)

    def test_commit_thread_commits_only_that_thread(self):
        sm = SharedMemory(8)
        sm.store(thread=0, slot=0, value=1.0)
        sm.store(thread=1, slot=1, value=2.0)
        assert sm.commit_thread(0) == 1
        assert sm.load(thread=2, slot=0) == 1.0
        assert sm.load(thread=2, slot=1) == 0.0  # still pending, raced

    def test_stale_read_returns_last_committed(self):
        sm = SharedMemory(8)
        sm.store(thread=0, slot=0, value=1.0)
        sm.commit()
        sm.store(thread=0, slot=0, value=2.0)
        assert sm.load(thread=1, slot=0) == 1.0

    def test_out_of_range_slot_raises(self):
        sm = SharedMemory(4)
        with pytest.raises(IndexError):
            sm.load(0, 4)
        with pytest.raises(IndexError):
            sm.store(0, -1, 0.0)

    def test_empty_shared_memory_rejected(self):
        with pytest.raises(ValueError):
            SharedMemory(0)

    @pytest.mark.parametrize(
        "value",
        [3, 2**60 + 1, True, np.int64(7), np.float32(0.1), np.float64(-0.0)],
        ids=["int", "big-int", "bool", "np-int64", "np-float32", "np-neg-zero"],
    )
    @pytest.mark.parametrize("volatile", [False, True])
    def test_store_coerces_like_float64(self, value, volatile):
        ref = np.zeros(1)
        ref[0] = value
        sm = SharedMemory(2)
        sm.store(thread=0, slot=1, value=value, volatile=volatile)
        sm.commit()
        got = sm.load(thread=1, slot=1)
        assert type(got) is float
        assert got == float(ref[0])
        assert math.copysign(1.0, got) == math.copysign(1.0, float(ref[0]))

    @pytest.mark.parametrize(
        "value, error", [("abc", ValueError), (None, TypeError), (object(), TypeError)],
        ids=["str", "none", "object"],
    )
    def test_non_numeric_store_raises(self, value, error):
        # A float64 slot array raised the same for "abc" and object(), but
        # stored None as NaN.
        sm = SharedMemory(2)
        with pytest.raises(error):
            sm.store(thread=0, slot=1, value=value)
        assert sm.load(thread=1, slot=1) == 0.0 and not sm.race_detected

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 7),   # thread
                st.integers(0, 7),   # slot
                st.floats(-10, 10),  # value
                st.booleans(),       # volatile
            ),
            max_size=30,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_commit_then_read_equals_last_write(self, ops):
        """After a commit, every slot reads as its most recent write."""
        sm = SharedMemory(8)
        last = {}
        for thread, slot, value, volatile in ops:
            sm.store(thread, slot, value, volatile=volatile)
            last[slot] = value
        sm.commit()
        for slot, value in last.items():
            assert sm.load(thread=99, slot=slot) == value


class TestL2AtomicUnit:
    def test_serializes_across_processes(self):
        eng = Engine()
        unit = L2AtomicUnit(eng, service_ns=10.0)
        ends = []

        def proc():
            yield from unit.atomic()
            ends.append(eng.now)

        for _ in range(5):
            eng.process(proc(), name="a")
        eng.run()
        assert ends == [10.0, 20.0, 30.0, 40.0, 50.0]
        assert unit.ops == 5

    def test_negative_service_rejected(self):
        with pytest.raises(ValueError):
            L2AtomicUnit(Engine(), service_ns=-1.0)


class TestHBM:
    def test_transfer_time_scales_linearly(self, v100):
        hbm = HBM(v100.hbm)
        assert hbm.transfer_ns(2_000_000) == pytest.approx(
            2 * hbm.transfer_ns(1_000_000)
        )

    def test_implicit_fastest_method(self, spec):
        hbm = HBM(spec.hbm)
        n = 10**9
        assert hbm.transfer_ns(n, "implicit") <= hbm.transfer_ns(n, "grid")
        assert hbm.transfer_ns(n, "implicit") <= hbm.transfer_ns(n, "cub")

    def test_negative_bytes_rejected(self, v100):
        with pytest.raises(ValueError):
            HBM(v100.hbm).transfer_ns(-1)

    def test_one_gb_time_in_expected_range(self, v100):
        # 1 GB at ~865 GB/s is ~1.24 ms.
        t = HBM(v100.hbm).transfer_ns(10**9, "implicit")
        assert 1.1e6 < t < 1.3e6
