"""Tests for the thread-precise warp executor."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cudasim import instructions as ins
from repro.sim.engine import DeadlockError
from repro.sim.exec_thread import UnsupportedInstruction, WarpExecutor


def run(spec, program, nthreads=32, **kw):
    return WarpExecutor(spec, nthreads=nthreads, **kw).run(program)


#: Instruction kinds of the randomized equivalence tests (warp and block).
MIX_KINDS = [
    "compute",
    "fadd",
    "chain",
    "overhead",
    "readclock",
    "store",
    "load",
    "vstore",
    "vload",
    "warpsync",
    "coalesced_sync",
    "shuffle",
    "diverge",
    "uniform_diverge",
    "blocksync",
    "lane_compute",
]


def mix_program(script):
    """A kernel running the instruction kinds of ``script`` in order."""

    def program(ctx):
        acc = 0.0
        for step, kind in enumerate(script):
            if kind == "compute":
                yield ins.Compute(3.0 + step)
            elif kind == "fadd":
                yield ins.FAdd(count=1 + step % 3)
            elif kind == "chain":
                yield ins.ChainStep(count=1 + step % 2)
            elif kind == "overhead":
                yield ins.MethodOverhead(cycles=float(step))
            elif kind == "readclock":
                acc += yield ins.ReadClock()
            elif kind == "store":
                yield ins.SharedStore(
                    slot=(ctx.tid + step) % 16, value=float(ctx.tid * 10 + step)
                )
            elif kind == "load":
                acc += yield ins.SharedLoad(slot=(ctx.tid + step + 1) % 16)
            elif kind == "vstore":
                yield ins.SharedStore(
                    slot=(ctx.tid + step) % 16,
                    value=float(step),
                    volatile=True,
                )
            elif kind == "vload":
                acc += yield ins.SharedLoad(
                    slot=(ctx.tid + step + 1) % 16, volatile=True
                )
            elif kind == "warpsync":
                yield ins.WarpSync(kind="tile")
            elif kind == "coalesced_sync":
                yield ins.WarpSync(kind="coalesced", group_size=32)
            elif kind == "shuffle":
                acc += yield ins.ShuffleDown(
                    float(ctx.lane + step), delta=1 + step % 4
                )
            elif kind == "diverge":
                yield ins.Diverge(arms=1 + ctx.lane % 2)
            elif kind == "uniform_diverge":
                # Uniform ladder: the staggered-analytic (virtual)
                # divergence region's entry condition.
                yield ins.Diverge(arms=2)
            elif kind == "blocksync":
                yield ins.BlockSync()
            elif kind == "lane_compute":
                # Per-lane latency: forces the non-uniform fallback.
                yield ins.Compute(2.0 + ctx.lane % 5)
            elif kind == "warp0_lane_compute":
                # Per-lane latency in the block's first warp only: that
                # warp drops to thread-precise lanes, the others stay
                # converged.
                yield ins.Compute(2.0 + (ctx.lane % 5 if ctx.tid < 32 else 1))
            ctx.record(f"acc{step}", acc)
        return acc

    return program


class TestBasics:
    def test_compute_advances_one_thread(self, spec):
        def program(ctx):
            yield ins.Compute(cycles=100.0)

        r = run(spec, program, nthreads=1)
        assert r.duration_cycles == pytest.approx(100.0, abs=0.5)

    def test_converged_threads_do_not_serialize(self, spec):
        def program(ctx):
            yield ins.Compute(cycles=100.0)

        r1 = run(spec, program, nthreads=1)
        r32 = run(spec, program, nthreads=32)
        assert r32.duration_cycles == pytest.approx(r1.duration_cycles, rel=0.01)

    def test_fadd_chain_latency(self, spec):
        def program(ctx):
            yield ins.FAdd(count=10)

        r = run(spec, program, nthreads=1)
        assert r.duration_cycles == pytest.approx(10 * spec.instructions.fadd, abs=0.5)

    def test_chainstep_uses_shared_chain_latency(self, spec):
        def program(ctx):
            yield ins.ChainStep(count=4)

        r = run(spec, program, nthreads=1)
        assert r.duration_cycles == pytest.approx(
            4 * spec.shared_mem.chain_latency_cycles, abs=0.5
        )

    def test_read_clock_returns_progressing_values(self, spec):
        def program(ctx):
            t0 = yield ins.ReadClock()
            yield ins.Compute(cycles=50.0)
            t1 = yield ins.ReadClock()
            ctx.record("delta", t1 - t0)

        r = run(spec, program, nthreads=1)
        assert 45.0 <= r.records[0]["delta"] <= 60.0

    def test_returns_collected(self, spec):
        def program(ctx):
            yield ins.Compute(cycles=1.0)
            return ctx.tid * 2

        r = run(spec, program, nthreads=4)
        assert r.returns == {0: 0, 1: 2, 2: 4, 3: 6}

    def test_invalid_thread_count(self, spec):
        with pytest.raises(ValueError):
            WarpExecutor(spec, nthreads=0)
        with pytest.raises(ValueError):
            WarpExecutor(spec, nthreads=33)

    def test_unknown_instruction_rejected(self, spec):
        def program(ctx):
            yield "not-an-instruction"

        with pytest.raises(Exception):
            run(spec, program, nthreads=1)


class TestNanosleep:
    def test_volta_sleeps(self, v100):
        def program(ctx):
            yield ins.Nanosleep(ns=1000.0)

        r = run(v100, program, nthreads=1)
        assert r.duration_ns == pytest.approx(1000.0)

    def test_pascal_lacks_nanosleep(self, p100):
        def program(ctx):
            yield ins.Nanosleep(ns=1000.0)

        with pytest.raises(UnsupportedInstruction, match="Volta"):
            run(p100, program, nthreads=1)


class TestWarpSync:
    def test_full_warp_tile_sync_latency(self, spec):
        def program(ctx):
            yield ins.WarpSync(kind="tile", group_size=32)

        r = run(spec, program)
        assert r.duration_cycles == pytest.approx(
            spec.warp_sync.tile_latency, abs=1.0
        )

    def test_volta_sync_blocks_until_all_arrive(self, v100):
        def program(ctx):
            if ctx.tid == 0:
                yield ins.Compute(cycles=500.0)  # straggler
            yield ins.WarpSync(kind="tile", group_size=32)
            t = yield ins.ReadClock()
            ctx.record("release", t)

        r = run(v100, program)
        releases = [r.records[t]["release"] for t in range(32)]
        assert max(releases) - min(releases) <= 3.0
        assert min(releases) >= 500.0

    def test_pascal_sync_does_not_block(self, p100):
        def program(ctx):
            if ctx.tid == 0:
                yield ins.Compute(cycles=500.0)
            yield ins.WarpSync(kind="tile", group_size=32)
            t = yield ins.ReadClock()
            ctx.record("release", t)

        r = run(p100, program)
        releases = [r.records[t]["release"] for t in range(32)]
        # Thread 0 is still computing when the others pass the "barrier".
        assert min(releases) < 100.0
        assert max(releases) >= 500.0

    def test_sync_in_loop_uses_fresh_rounds(self, spec):
        def program(ctx):
            for _ in range(5):
                yield ins.WarpSync(kind="tile", group_size=32)

        r = run(spec, program)
        assert r.duration_cycles == pytest.approx(
            5 * spec.warp_sync.tile_latency, rel=0.1, abs=2.0
        )

    def test_tile_subgroups_sync_independently(self, v100):
        # Two 16-wide tiles; a straggler in tile 0 must not delay tile 1.
        def program(ctx):
            if ctx.tid == 0:
                yield ins.Compute(cycles=1000.0)
            yield ins.WarpSync(kind="tile", group_size=16)
            t = yield ins.ReadClock()
            ctx.record("release", t)

        r = run(v100, program)
        tile1 = [r.records[t]["release"] for t in range(16, 32)]
        assert max(tile1) < 100.0

    def test_unmasked_partial_arrival_deadlocks_on_volta(self, v100):
        # Half the warp never reaches a full-warp barrier with a full mask:
        # the rendezvous can never complete.
        def program(ctx):
            if ctx.tid < 16:
                yield ins.WarpSync(kind="tile", group_size=32)

        with pytest.raises(DeadlockError):
            run(v100, program)

    def test_masked_partial_sync_completes(self, v100):
        def program(ctx):
            if ctx.tid < 16:
                yield ins.WarpSync(kind="tile", group_size=32, mask=0x0000FFFF)

        run(v100, program)  # no deadlock

    def test_coalesced_full_vs_partial_latency_on_volta(self, v100):
        def program(ctx):
            yield ins.WarpSync(kind="coalesced", group_size=32)

        full = run(v100, program, nthreads=32).duration_cycles
        partial = run(v100, program, nthreads=16).duration_cycles
        assert full == pytest.approx(v100.warp_sync.coalesced_full_latency, abs=1.0)
        assert partial == pytest.approx(
            v100.warp_sync.coalesced_partial_latency, abs=1.0
        )
        assert partial > full  # the V100 slow path (Table II)


class TestShuffle:
    def test_shuffle_down_delivers_neighbor_value(self, v100):
        def program(ctx):
            got = yield ins.ShuffleDown(value=float(ctx.tid), delta=4)
            ctx.record("got", got)

        r = run(v100, program)
        for tid in range(28):
            assert r.records[tid]["got"] == float(tid + 4)

    def test_shuffle_out_of_range_keeps_own_value(self, v100):
        def program(ctx):
            got = yield ins.ShuffleDown(value=float(ctx.tid), delta=4)
            ctx.record("got", got)

        r = run(v100, program)
        for tid in range(28, 32):
            assert r.records[tid]["got"] == float(tid)

    def test_shuffle_latency_tile_vs_coalesced(self, spec):
        def tile(ctx):
            yield ins.ShuffleDown(value=1.0, delta=1, kind="tile")

        def coa(ctx):
            yield ins.ShuffleDown(value=1.0, delta=1, kind="coalesced")

        t = run(spec, tile).duration_cycles
        c = run(spec, coa).duration_cycles
        assert t == pytest.approx(spec.warp_sync.shuffle_tile_latency, abs=1.0)
        assert c == pytest.approx(spec.warp_sync.shuffle_coalesced_latency, abs=1.0)

    def test_pascal_converged_shuffle_is_correct(self, p100):
        def program(ctx):
            got = yield ins.ShuffleDown(value=float(ctx.tid), delta=1)
            ctx.record("got", got)

        r = run(p100, program)
        assert not r.shuffle_incorrect
        assert r.records[0]["got"] == 1.0

    def test_pascal_divergent_shuffle_goes_stale(self, p100):
        def program(ctx):
            yield ins.Diverge()
            got = yield ins.ShuffleDown(value=float(ctx.tid), delta=1)
            ctx.record("got", got)

        r = run(p100, program)
        assert r.shuffle_incorrect

    def test_volta_divergent_shuffle_still_correct(self, v100):
        def program(ctx):
            yield ins.Diverge()
            got = yield ins.ShuffleDown(value=float(ctx.tid), delta=1)
            ctx.record("got", got)

        r = run(v100, program)
        assert not r.shuffle_incorrect
        assert r.records[0]["got"] == 1.0


class TestDivergence:
    def test_diverge_serializes_threads(self, spec):
        def program(ctx):
            yield ins.Diverge()
            t = yield ins.ReadClock()
            ctx.record("t", t)

        r = run(spec, program)
        times = [r.records[t]["t"] for t in range(32)]
        assert times == sorted(times)
        step = spec.instructions.divergent_arm_cycles
        assert times[-1] - times[0] == pytest.approx(31 * step, rel=0.05)


class TestSharedMemoryInstructions:
    def test_store_then_load_roundtrip_same_thread(self, spec):
        def program(ctx):
            yield ins.SharedStore(slot=ctx.tid, value=float(ctx.tid) * 2)
            got = yield ins.SharedLoad(slot=ctx.tid)
            ctx.record("got", got)

        r = run(spec, program, nthreads=4)
        assert [r.records[t]["got"] for t in range(4)] == [0.0, 2.0, 4.0, 6.0]

    def test_cross_thread_load_without_sync_races(self, v100):
        def program(ctx):
            yield ins.SharedStore(slot=ctx.tid, value=1.0)
            yield ins.Compute(cycles=50.0)
            got = yield ins.SharedLoad(slot=(ctx.tid + 1) % 2)
            ctx.record("got", got)

        r = run(v100, program, nthreads=2)
        assert r.shared.race_detected

    def test_sync_commits_cross_thread_writes(self, v100):
        def program(ctx):
            yield ins.SharedStore(slot=ctx.tid, value=float(ctx.tid + 1))
            yield ins.WarpSync(kind="tile", group_size=32)
            got = yield ins.SharedLoad(slot=(ctx.tid + 1) % 32)
            ctx.record("got", got)

        r = run(v100, program)
        assert not r.shared.race_detected
        assert r.records[0]["got"] == 2.0


class TestSimtFastPathEquivalence:
    """The converged-warp fast path must be *bit-identical* to
    thread-precise simulation: same durations, per-thread times, values,
    records, races and shared-memory contents (Table II / Table V / Fig 18
    reproductions all flow through this executor)."""

    @staticmethod
    def _compare(spec, program, nthreads=32):
        fast = WarpExecutor(spec, nthreads=nthreads, simt_fast_path=True).run(
            program
        )
        slow = WarpExecutor(spec, nthreads=nthreads, simt_fast_path=False).run(
            program
        )
        assert fast.duration_ns == slow.duration_ns
        assert fast.start_ns == slow.start_ns
        assert fast.end_ns == slow.end_ns
        assert fast.returns == slow.returns
        assert fast.records == slow.records
        assert fast.shuffle_incorrect == slow.shuffle_incorrect
        assert list(fast.shared.committed) == list(slow.shared.committed)
        assert fast.shared.races == slow.shared.races
        return fast

    def test_pure_compute_identical(self, spec):
        def program(ctx):
            for _ in range(8):
                yield ins.FAdd(count=3)
                yield ins.ChainStep(count=2)

        self._compare(spec, program)

    def test_fallback_on_divergence_identical(self, spec):
        def program(ctx):
            yield ins.Compute(10.0)
            yield ins.Diverge(arms=1)
            t = yield ins.ReadClock()
            ctx.record("t", t)

        self._compare(spec, program)

    def test_fallback_on_shuffle_identical(self, spec):
        def program(ctx):
            yield ins.Compute(4.0)
            v = yield ins.ShuffleDown(float(ctx.lane), delta=1)
            return v

        self._compare(spec, program)

    def test_warp_sync_loop_identical(self, spec):
        def program(ctx):
            total = 0.0
            for r in range(4):
                yield ins.SharedStore(slot=ctx.tid % 16, value=float(ctx.tid + r))
                yield ins.WarpSync(kind="tile")
                total += yield ins.SharedLoad(slot=(ctx.tid + 1) % 16)
            return total

        self._compare(spec, program)

    def test_uneven_thread_exit_identical(self, spec):
        def program(ctx):
            yield ins.Compute(5.0)
            if ctx.tid % 3 == 0:
                return "early"
            yield ins.FAdd(count=2)
            return "late"

        r = self._compare(spec, program)
        assert r.returns[0] == "early" and r.returns[1] == "late"

    def test_single_thread_wong_chain_identical(self, spec):
        def program(ctx):
            t0 = yield ins.ReadClock()
            yield ins.ChainStep(count=32)
            t1 = yield ins.ReadClock()
            ctx.record("window", t1 - t0)

        self._compare(spec, program, nthreads=1)

    @given(
        st.lists(st.sampled_from(MIX_KINDS), min_size=1, max_size=10),
        st.integers(min_value=1, max_value=32),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_randomized_instruction_mix_identical(self, script, nthreads, volta):
        from repro.sim.arch import P100, V100

        spec = V100 if volta else P100
        self._compare(spec, mix_program(script), nthreads=nthreads)


class TestReconvergence:
    """The mode-switching scheduler must re-fuse at the join of a uniform
    divergence ladder — and stay bit-identical to forced thread-precise
    execution across every converged -> virtual -> converged and
    converged -> thread-precise boundary (divergent arms, shuffles,
    barrier loops).  The counters on :class:`WarpRunResult` pin the mode
    transitions so a regression back to permanent fallback fails loudly
    rather than silently slowing down."""

    _compare = staticmethod(TestSimtFastPathEquivalence._compare)

    def test_barrier_loop_stays_converged(self, spec):
        # The Fig-4 shape: uniform work punctuated by barriers in a tight
        # loop.  No round is non-uniform, so the warp must never de-fuse.
        def program(ctx):
            for _ in range(6):
                yield ins.Compute(20.0)
                yield ins.BlockSync()

        fast = self._compare(spec, program)
        assert fast.fused_rounds > 0
        assert fast.defuse_count == 0
        assert fast.refuse_count == 0

    def test_volta_warp_sync_loop_stays_converged(self, v100):
        def program(ctx):
            for r in range(5):
                yield ins.SharedStore(slot=ctx.tid % 16, value=float(r))
                yield ins.WarpSync(kind="tile")

        fast = self._compare(v100, program)
        assert fast.fused_rounds > 0
        assert fast.defuse_count == 0

    def test_converged_shuffle_stays_converged(self, spec):
        # Shuffles used to force permanent fallback on both
        # architectures; converged lanes now post/read in lockstep.
        def program(ctx):
            total = 0.0
            for r in range(4):
                total += yield ins.ShuffleDown(float(ctx.lane + r), delta=1)
            return total

        fast = self._compare(spec, program)
        assert fast.fused_rounds > 0
        assert fast.defuse_count == 0

    def test_divergence_then_barrier_refuses(self, spec):
        # Uniform divergent ladder, per-lane analytic work, then the
        # reconvergence join at __syncthreads: the virtual region must
        # re-fuse instead of falling back for the rest of the program.
        def program(ctx):
            for r in range(3):
                yield ins.Compute(30.0)
                yield ins.Diverge(arms=1)
                yield ins.Compute(2.0 + ctx.lane % 3)
                yield ins.BlockSync()
            t = yield ins.ReadClock()
            ctx.record("t", t)

        fast = self._compare(spec, program)
        assert fast.refuse_count == 3
        assert fast.fused_rounds > 0

    def test_nonuniform_region_stays_thread_precise(self, v100):
        # Per-lane latencies de-fuse into real lane processes, which run
        # every later barrier round themselves until they retire.
        def program(ctx):
            for r in range(3):
                yield ins.Compute(2.0 + ctx.lane % 5)
                yield ins.WarpSync(kind="tile")
            yield ins.Compute(10.0)

        fast = self._compare(v100, program)
        assert fast.defuse_count == 1
        assert fast.refuse_count == 0

    def test_defused_deadlock_reports_the_reference_processes(self, v100):
        # Lanes 0-1 wait on a tile barrier lanes 2-3 never reach.  The
        # de-fused warp's scheduler has ended, so only the blocked lanes
        # are named, exactly as in thread-precise mode.
        def program(ctx):
            yield ins.Compute(1.0 + ctx.lane % 2)
            if ctx.lane < 2:
                yield ins.WarpSync(kind="tile")

        blocked = []
        for fast_path in (True, False):
            ex = WarpExecutor(v100, nthreads=4, simt_fast_path=fast_path)
            with pytest.raises(DeadlockError) as err:
                ex.run(program)
            blocked.append(err.value.blocked)
        assert blocked[0] == blocked[1]
        assert [b.split()[0] for b in blocked[0]] == ["t0", "t1"]

    def test_negative_overhead_in_virtual_region_identical(self, spec):
        # A negative MethodOverhead residual costs nothing on every path,
        # the virtual divergence clocks included.
        def program(ctx):
            yield ins.Diverge(arms=1)
            yield ins.MethodOverhead(cycles=-10.0)
            yield ins.BlockSync()
            t = yield ins.ReadClock()
            ctx.record("t", t)

        fast = self._compare(spec, program, nthreads=4)
        assert fast.refuse_count == 1

    def test_virtual_region_aborts_on_memory_touch(self, spec):
        # A shared-memory access inside the divergent region cannot be
        # virtualized: the abort must replay event-for-event (pinned by
        # the bit-identical comparison) and the lanes then stay
        # thread-precise through the barrier and the load after it.
        def program(ctx):
            yield ins.Diverge(arms=1)
            yield ins.SharedStore(slot=ctx.tid % 8, value=float(ctx.lane))
            yield ins.BlockSync()
            got = yield ins.SharedLoad(slot=(ctx.tid + 1) % 8)
            ctx.record("got", got)

        fast = self._compare(spec, program)
        assert fast.defuse_count == 1
        assert fast.refuse_count == 0

    def test_divergent_shuffle_boundary(self, spec):
        # Divergence -> shuffle: Volta re-fuses at the shuffle rendezvous
        # (the join), Pascal replays and keeps its stale-read semantics.
        def program(ctx):
            yield ins.Diverge(arms=1)
            got = yield ins.ShuffleDown(float(ctx.lane), delta=1)
            ctx.record("got", got)

        fast = self._compare(spec, program)
        if spec.warp_sync.blocking:
            assert fast.refuse_count == 1
            assert not fast.shuffle_incorrect
        else:
            assert fast.shuffle_incorrect

    def test_uneven_retirement_during_region(self, spec):
        # Lanes retiring inside a divergent region abort it; the replayed
        # lanes retire without losing any lane's records or end time.
        def program(ctx):
            yield ins.Diverge(arms=1)
            if ctx.lane % 2:
                return "early"
            yield ins.Compute(5.0)
            yield ins.WarpSync(kind="tile", mask=0x55555555)
            return "late"

        self._compare(spec, program)

    def test_thread_precise_mode_reports_zero_counters(self, spec):
        def program(ctx):
            yield ins.Compute(5.0)
            yield ins.BlockSync()

        slow = WarpExecutor(spec, nthreads=8, simt_fast_path=False).run(program)
        assert slow.fused_rounds == 0
        assert slow.defuse_count == 0
        assert slow.refuse_count == 0

    def test_event_sequence_pinned_across_boundary(self, v100):
        # Pin the observable event sequence (clock-read timestamps per
        # lane) through fast -> divergent -> thread-precise execution:
        # the clock read aborts the virtual region, the staircase must
        # still show per-lane serialization, and the reads after the
        # lanes' own barrier must collapse back to one common timestamp.
        def program(ctx):
            t0 = yield ins.ReadClock()
            yield ins.Diverge(arms=1)
            t1 = yield ins.ReadClock()
            yield ins.WarpSync(kind="tile")
            t2 = yield ins.ReadClock()
            ctx.record("t0", t0)
            ctx.record("t1", t1)
            ctx.record("t2", t2)

        fast = WarpExecutor(v100, nthreads=32, simt_fast_path=True).run(program)
        slow = WarpExecutor(v100, nthreads=32, simt_fast_path=False).run(program)
        for key in ("t0", "t1", "t2"):
            assert fast.record_series(key) == slow.record_series(key)
        # Converged before the ladder: one shared timestamp.
        assert len(set(fast.record_series("t0"))) == 1
        # Inside the ladder: strictly serialized, one arm apart.
        t1s = fast.record_series("t1")
        assert t1s == sorted(t1s) and len(set(t1s)) == 32
        step = v100.instructions.divergent_arm_cycles
        assert t1s[-1] - t1s[0] == pytest.approx(31 * step, rel=0.05)
        # After the join: one shared timestamp again, released by the
        # barrier the thread-precise lanes met.
        assert len(set(fast.record_series("t2"))) == 1
        assert fast.defuse_count == 1
        assert fast.refuse_count == 0
