"""Validation tests for the thread-level instruction vocabulary."""

from __future__ import annotations

import math

import pytest

from repro.cudasim import instructions as ins


class TestValidation:
    def test_compute_rejects_negative(self):
        with pytest.raises(ValueError):
            ins.Compute(cycles=-1.0)

    @pytest.mark.parametrize("cycles", [math.nan, math.inf])
    def test_compute_rejects_non_finite(self, cycles):
        with pytest.raises(ValueError, match="Compute cycles"):
            ins.Compute(cycles=cycles)

    def test_nanosleep_rejects_negative(self):
        with pytest.raises(ValueError):
            ins.Nanosleep(ns=-1.0)

    @pytest.mark.parametrize("ns", [math.nan, math.inf])
    def test_nanosleep_rejects_non_finite(self, ns):
        with pytest.raises(ValueError, match="Nanosleep ns"):
            ins.Nanosleep(ns=ns)

    def test_warp_sync_kind_checked(self):
        with pytest.raises(ValueError):
            ins.WarpSync(kind="block")

    def test_warp_sync_group_size_bounds(self):
        with pytest.raises(ValueError):
            ins.WarpSync(group_size=0)
        with pytest.raises(ValueError):
            ins.WarpSync(group_size=33)

    def test_shuffle_kind_checked(self):
        with pytest.raises(ValueError):
            ins.ShuffleDown(value=1.0, delta=1, kind="warp")

    def test_shuffle_delta_nonnegative(self):
        with pytest.raises(ValueError):
            ins.ShuffleDown(value=1.0, delta=-1)

    def test_shuffle_width_bounds(self):
        for width in (0, 33):
            with pytest.raises(ValueError, match="width"):
                ins.ShuffleDown(value=1.0, delta=1, width=width)
        ins.ShuffleDown(value=1.0, delta=1, width=1)

    @pytest.mark.parametrize("op", [ins.FAdd, ins.DAdd, ins.ChainStep])
    def test_count_nonnegative(self, op):
        with pytest.raises(ValueError, match="count"):
            op(count=-1)
        op(count=0)

    def test_diverge_arms_nonnegative(self):
        with pytest.raises(ValueError, match="arms"):
            ins.Diverge(arms=-1)
        ins.Diverge(arms=0)

    def test_method_overhead_floor(self):
        with pytest.raises(ValueError):
            ins.MethodOverhead(cycles=-100.0)
        ins.MethodOverhead(cycles=-2.0)  # small negative fudge allowed

    @pytest.mark.parametrize("cycles", [math.nan, math.inf])
    def test_method_overhead_rejects_non_finite(self, cycles):
        with pytest.raises(ValueError, match="MethodOverhead cycles"):
            ins.MethodOverhead(cycles=cycles)


class TestImmutability:
    def test_instructions_are_frozen(self):
        op = ins.WarpSync(kind="tile")
        with pytest.raises(Exception):
            op.kind = "coalesced"

    def test_defaults(self):
        op = ins.WarpSync()
        assert op.kind == "tile" and op.group_size == 32 and op.mask == 0xFFFFFFFF
        sh = ins.ShuffleDown(value=2.0, delta=4)
        assert sh.kind == "tile" and sh.width == 32


class TestInstructionBase:
    def test_all_ops_are_instructions(self):
        for op in (
            ins.Compute(1.0),
            ins.FAdd(),
            ins.DAdd(),
            ins.ChainStep(),
            ins.ReadClock(),
            ins.Nanosleep(1.0),
            ins.Diverge(),
            ins.SharedLoad(0),
            ins.SharedStore(0, 1.0),
            ins.WarpSync(),
            ins.ShuffleDown(value=0.0, delta=1),
            ins.MethodOverhead(1.0),
        ):
            assert isinstance(op, ins.Instruction)
