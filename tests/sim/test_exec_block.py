"""Tests for the block-level thread-precise executor."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cudasim import instructions as ins
from repro.sim.arch import P100, V100
from repro.sim.engine import DeadlockError
from repro.sim.exec_block import BlockExecutor
from repro.sim.exec_thread import WarpExecutor
from repro.sim.sm import block_sync_latency_cycles
from tests.sim.test_exec_thread import MIX_KINDS, mix_program

#: Mix kinds a virtual divergence region runs through without aborting.
_PURE_KINDS = {"compute", "fadd", "chain", "overhead", "lane_compute", "warp0_lane_compute"}
_MEMORY_KINDS = {"store", "load", "vstore", "vload"}


def _memory_after_virtual_block_join(script):
    """Whether a Diverge ladder in ``script`` can join at __syncthreads
    (only pure kinds between) and shared memory is touched afterwards."""
    for i, kind in enumerate(script):
        if kind not in ("diverge", "uniform_diverge"):
            continue
        j = i + 1
        while j < len(script) and script[j] in _PURE_KINDS:
            j += 1
        if script[j:j + 1] == ["blocksync"] and _MEMORY_KINDS & set(script[j:]):
            return True
    return False


class TestConstruction:
    def test_warp_partitioning(self, spec):
        ex = BlockExecutor(spec, nthreads=100)
        assert ex.warp_count == 4
        assert [w.nthreads for w in ex.warps] == [32, 32, 32, 4]

    def test_invalid_thread_count(self, spec):
        with pytest.raises(ValueError):
            BlockExecutor(spec, nthreads=0)
        with pytest.raises(ValueError):
            BlockExecutor(spec, nthreads=2048)


class TestGlobalThreadIds:
    def test_tids_unique_across_warps(self, spec):
        def program(ctx):
            yield ins.Compute(cycles=1.0)
            return ctx.tid

        r = BlockExecutor(spec, nthreads=96).run(program)
        assert sorted(r.returns.values()) == list(range(96))

    def test_lane_is_intra_warp(self, spec):
        def program(ctx):
            yield ins.Compute(cycles=1.0)
            ctx.record("lane", ctx.lane)

        r = BlockExecutor(spec, nthreads=64).run(program)
        assert r.records[33]["lane"] == 1


class TestBlockSync:
    def test_syncthreads_blocks_on_both_architectures(self, spec):
        """Unlike warp barriers, __syncthreads holds threads on Pascal."""

        def program(ctx):
            if ctx.tid == 0:
                yield ins.Compute(cycles=700.0)
            yield ins.BlockSync()
            t = yield ins.ReadClock()
            ctx.record("release", t)

        r = BlockExecutor(spec, nthreads=64).run(program)
        releases = [r.records[t]["release"] for t in range(64)]
        assert min(releases) >= 700.0

    def test_sync_cost_matches_calibration(self, spec):
        def program(ctx):
            yield ins.BlockSync()

        ex = BlockExecutor(spec, nthreads=256)
        r = ex.run(program)
        expected = block_sync_latency_cycles(spec, 8)
        assert r.duration_cycles == pytest.approx(expected, rel=0.02)

    def test_repeated_syncs_use_fresh_rounds(self, spec):
        def program(ctx):
            for _ in range(3):
                yield ins.BlockSync()

        ex = BlockExecutor(spec, nthreads=64)
        ex.run(program)
        assert ex.barrier.rounds_completed == 3

    def test_sync_commits_shared_memory_across_warps(self, v100):
        def program(ctx):
            yield ins.SharedStore(slot=ctx.tid, value=float(ctx.tid + 1))
            yield ins.BlockSync()
            got = yield ins.SharedLoad(slot=(ctx.tid + 32) % 64)
            ctx.record("got", got)

        r = BlockExecutor(v100, nthreads=64).run(program)
        assert not r.shared.race_detected
        assert r.records[0]["got"] == 33.0  # thread 0 reads warp 1's slot

    def test_cross_warp_read_without_sync_races(self, v100):
        def program(ctx):
            yield ins.SharedStore(slot=ctx.tid, value=1.0)
            yield ins.Compute(cycles=50.0)
            got = yield ins.SharedLoad(slot=(ctx.tid + 32) % 64)
            ctx.record("got", got)

        r = BlockExecutor(v100, nthreads=64).run(program)
        assert r.shared.race_detected


class TestWarpLocality:
    def test_warp_syncs_stay_warp_local(self, v100):
        """A tile sync in warp 0 must not wait for warp 1."""

        def program(ctx):
            if ctx.tid >= 32:
                yield ins.Compute(cycles=5000.0)
            else:
                yield ins.WarpSync(kind="tile", group_size=32)
                t = yield ins.ReadClock()
                ctx.record("release", t)

        r = BlockExecutor(v100, nthreads=64).run(program)
        assert r.records[0]["release"] < 100.0

    def test_shuffles_exchange_within_warp_only(self, v100):
        def program(ctx):
            got = yield ins.ShuffleDown(value=float(ctx.tid), delta=1)
            ctx.record("got", got)

        r = BlockExecutor(v100, nthreads=64).run(program)
        # Lane 31 of warp 0 keeps its own value (no cross-warp shuffle).
        assert r.records[31]["got"] == 31.0
        assert r.records[32]["got"] == 33.0


class TestFig12ThreadPrecise:
    """The paper's Fig 12 block_reduce, executed thread-by-thread."""

    def test_block_reduce_program(self, v100):
        rng = np.random.default_rng(12)
        data = rng.uniform(0.0, 1.0, 128)
        nthreads = 128

        def program(ctx):
            # Phase 1: each thread owns one element (stride loop trivial).
            yield ins.SharedStore(slot=ctx.tid, value=float(data[ctx.tid]))
            yield ins.BlockSync()
            # Phase 2: warp 0 accumulates one partial per warp... here each
            # warp reduces itself with shuffles, then warp 0 combines.
            val = yield ins.SharedLoad(slot=ctx.tid)
            for step in (16, 8, 4, 2, 1):
                got = yield ins.ShuffleDown(value=val, delta=step)
                if ctx.lane + step < 32:
                    val = val + got
            if ctx.lane == 0:
                yield ins.SharedStore(slot=ctx.tid, value=val, volatile=True)
            yield ins.BlockSync()
            if ctx.tid == 0:
                total = 0.0
                for w in range(nthreads // 32):
                    p = yield ins.SharedLoad(slot=w * 32)
                    total += p
                ctx.record("sum", total)

        r = BlockExecutor(v100, nthreads=nthreads).run(program)
        assert r.records[0]["sum"] == pytest.approx(data.sum())
        assert not r.shared.race_detected


class TestBlockFastPathEquivalence:
    """Block-level reductions must be bit-identical with the converged-warp
    fast path on and off (the __syncthreads rendezvous always falls back)."""

    def test_block_reduce_identical(self, spec):
        block_threads = 64

        def program(ctx):
            yield ins.SharedStore(slot=ctx.tid, value=float(ctx.tid))
            yield ins.BlockSync()
            stride = block_threads // 2
            while stride >= 1:
                if ctx.tid < stride:
                    a = yield ins.SharedLoad(slot=ctx.tid)
                    b = yield ins.SharedLoad(slot=ctx.tid + stride)
                    yield ins.SharedStore(slot=ctx.tid, value=a + b)
                yield ins.BlockSync()
                stride //= 2
            if ctx.tid == 0:
                total = yield ins.SharedLoad(slot=0)
                return total

        fast = BlockExecutor(spec, nthreads=64, simt_fast_path=True).run(program)
        slow = BlockExecutor(spec, nthreads=64, simt_fast_path=False).run(program)
        assert fast.duration_ns == slow.duration_ns
        assert fast.end_ns == slow.end_ns
        assert fast.returns == slow.returns
        assert fast.returns[0] == sum(range(64))

    def test_compute_prefix_identical_times(self, spec):
        def program(ctx):
            yield ins.FAdd(count=4)
            yield ins.ChainStep(count=2)
            yield ins.BlockSync()
            t = yield ins.ReadClock()
            ctx.record("t", t)

        fast = BlockExecutor(spec, nthreads=96, simt_fast_path=True).run(program)
        slow = BlockExecutor(spec, nthreads=96, simt_fast_path=False).run(program)
        assert fast.records == slow.records
        assert fast.duration_ns == slow.duration_ns


class TestBlockReconvergence:
    """Cross-warp re-convergence: every warp of a block must fuse through
    barrier-delimited phases and re-fuse after its divergent regions, with
    results bit-identical to forced thread-precise execution.  Counters
    aggregate across the block's warps via the shared result."""

    @staticmethod
    def _compare(spec, program, nthreads=128):
        fast = BlockExecutor(spec, nthreads=nthreads, simt_fast_path=True).run(
            program
        )
        slow = BlockExecutor(spec, nthreads=nthreads, simt_fast_path=False).run(
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

    def test_barrier_loop_never_defuses(self, spec):
        def program(ctx):
            for _ in range(4):
                yield ins.FAdd(count=3)
                yield ins.BlockSync()

        fast = self._compare(spec, program)
        assert fast.fused_rounds > 0
        assert fast.defuse_count == 0

    def test_divergence_then_barrier_refuses_every_warp(self, spec):
        # The Fig-4-shaped divergence-after-barrier workload: each of the
        # block's 4 warps re-fuses at every barrier join, so the refuse
        # counter must reach warps x divergent-phases.
        def program(ctx):
            for r in range(3):
                yield ins.Compute(20.0)
                if r % 2 == 0:
                    yield ins.Diverge(arms=1)
                    yield ins.Compute(2.0 + ctx.lane % 3)
                yield ins.BlockSync()
            t = yield ins.ReadClock()
            ctx.record("t", t)

        fast = self._compare(spec, program)
        assert fast.refuse_count == 4 * 2  # 4 warps x 2 divergent phases
        assert fast.fused_rounds > 0

    def test_mixed_warp_modes_interoperate(self, v100):
        # Warp 0 diverges (thread-precise excursion), warps 1-3 stay
        # converged; all four must still meet at the same block barrier.
        def program(ctx):
            if ctx.tid < 32:
                yield ins.Diverge(arms=1)
                yield ins.Compute(2.0 + ctx.lane % 5)
            else:
                yield ins.Compute(40.0)
            yield ins.BlockSync()
            t = yield ins.ReadClock()
            ctx.record("t", t)

        fast = self._compare(v100, program)
        # Only warp 0 ever left converged mode.
        assert fast.refuse_count == 1
        # All threads resume from the barrier at one timestamp.
        assert len(set(fast.record_series("t"))) == 1

    def test_defused_warp_keeps_cross_warp_order(self, spec):
        # Warp 0 de-fuses on per-lane latencies while warp 1 (one lane)
        # stays converged.  The handed-off lanes must keep their place
        # ahead of warp 1 among equal-time events, so the racy loads
        # record the same races in the same order as thread-precise mode.
        def program(ctx):
            yield ins.SharedStore(slot=ctx.tid % 16, value=float(ctx.tid))
            yield ins.Compute(2.0 + ctx.lane % 5)
            got = yield ins.SharedLoad(slot=(ctx.tid + 3) % 16)
            return got

        fast = self._compare(spec, program, nthreads=33)
        assert fast.defuse_count == 1
        assert fast.shared.races

    @pytest.mark.xfail(
        strict=True,
        reason="virtual joins at __syncthreads resume warp by warp, the "
        "reference resumes lanes in arrival order (ROADMAP item 2)",
    )
    def test_overlapping_virtual_joins_keep_cross_warp_order(self, spec):
        # Known gap: both warps join their Diverge ladders at the barrier
        # virtually, and the 17-lane warp's shorter ladder ends first, so
        # it resumes first as a whole.  In thread-precise mode lane k of
        # each warp arrives, and resumes, side by side.  Same-time stores
        # to one slot from both warps then leave a different last writer.
        def program(ctx):
            yield ins.Diverge(arms=1 + ctx.lane % 2)
            yield ins.BlockSync()
            yield ins.SharedStore(slot=ctx.tid % 16, value=float(ctx.tid))
            got = yield ins.SharedLoad(slot=ctx.tid % 16, volatile=True)
            return got

        self._compare(spec, program, nthreads=49)

    @given(
        st.lists(
            st.sampled_from(MIX_KINDS + ["warp0_lane_compute"]),
            min_size=1,
            max_size=10,
        ),
        st.integers(min_value=33, max_value=128),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_randomized_instruction_mix_identical(self, script, nthreads, volta):
        # 2-4 warps, some partial: a warp that drops to thread-precise
        # lanes meets converged warps at __syncthreads and shares their
        # shared memory.  Programs that touch shared memory after a
        # virtual join at __syncthreads hit the known gap pinned above.
        assume(not _memory_after_virtual_block_join(script))
        spec = V100 if volta else P100
        self._compare(spec, mix_program(script), nthreads=nthreads)


class TestLoneWarpIsOneWarpBlock:
    """A warp built without a block barrier makes its own one-warp
    :class:`~repro.sim.exec_block.BlockBarrier`, so it runs every program
    exactly as a one-warp block does, ``__syncthreads`` included."""

    @given(
        st.lists(st.sampled_from(MIX_KINDS), min_size=1, max_size=10),
        st.integers(min_value=1, max_value=32),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_randomized_instruction_mix_identical(
        self, script, nthreads, volta, fast_path
    ):
        spec = V100 if volta else P100
        program = mix_program(script)
        lone = WarpExecutor(spec, nthreads, simt_fast_path=fast_path).run(program)
        block = BlockExecutor(spec, nthreads, simt_fast_path=fast_path).run(program)
        assert lone.duration_ns == block.duration_ns
        assert lone.start_ns == block.start_ns
        assert lone.end_ns == block.end_ns
        assert lone.records == block.records
        assert lone.returns == block.returns
        assert lone.shared.races == block.shared.races
        assert lone.shuffle_incorrect == block.shuffle_incorrect
        for counter in ("fused_rounds", "defuse_count", "refuse_count"):
            assert getattr(lone, counter) == getattr(block, counter)
        # The lone warp's slots are the ones both touch.
        slots = lone.shared.slots
        assert lone.shared.committed == block.shared.committed[:slots]

    @pytest.mark.parametrize("fast_path", [True, False])
    def test_early_return_deadlock_names_the_block_round(self, v100, fast_path):
        # Lane 0 returns before __syncthreads: the other lanes wait on
        # round 0 of the warp's own block barrier, named as in any block.
        def program(ctx):
            yield ins.Compute(1.0)
            if ctx.lane == 0:
                return
            yield ins.BlockSync()

        with pytest.raises(DeadlockError) as err:
            WarpExecutor(v100, nthreads=4, simt_fast_path=fast_path).run(program)
        assert err.value.blocked
        for blocked in err.value.blocked:
            assert blocked.endswith("waiting on signal(syncthreads-0)")


class TestPascalFenceCommitsGlobalTid:
    """Regression: the Pascal warp-sync fence must commit the *global*
    tid's pending writes — a warp at tid_offset != 0 previously fenced
    lane indices 0..31 instead, leaving its stores uncommitted."""

    def test_second_warp_fence_commits_its_writes(self, p100):
        def program(ctx):
            yield ins.SharedStore(slot=ctx.tid, value=float(ctx.tid + 1))
            yield ins.WarpSync(kind="tile")  # Pascal: fence, non-blocking
            warp_base = (ctx.tid // 32) * 32
            neighbor = warp_base + (ctx.lane + 1) % 32
            got = yield ins.SharedLoad(slot=neighbor)
            return got

        ex = BlockExecutor(p100, nthreads=64)
        r = ex.run(program)
        assert not ex.shared.races, ex.shared.races[:4]
        # Thread 33 reads thread 34's committed store, etc.
        assert r.returns[33] == 35.0
        assert r.returns[63] == 33.0
