"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import AllOf, DeadlockError, Engine, SimulationError, Timeout


class TestScheduling:
    def test_time_starts_at_zero(self):
        assert Engine().now == 0.0

    def test_schedule_runs_in_time_order(self):
        eng = Engine()
        order = []

        def sleeper(tag, delay):
            yield Timeout(delay)
            order.append(tag)

        eng.process(sleeper("b", 5.0), name="b")
        eng.process(sleeper("a", 1.0), name="a")
        eng.process(sleeper("c", 9.0), name="c")
        eng.run()
        assert order == ["a", "b", "c"]
        assert eng.now == 9.0

    def test_equal_times_run_fifo(self):
        eng = Engine()
        order = []

        def sleeper(i):
            yield Timeout(3.0)
            order.append(i)

        for i in range(10):
            eng.process(sleeper(i), name=f"p{i}")
        eng.run()
        assert order == list(range(10))

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Timeout(-1.0)

    @pytest.mark.parametrize("delay", [math.nan, math.inf])
    def test_non_finite_delay_rejected(self, delay):
        with pytest.raises(ValueError, match="Timeout delay"):
            Timeout(delay)

    def test_event_count_increments(self):
        """Every process step and every deferred fire is one event."""
        eng = Engine()

        def proc():
            for _ in range(3):
                yield Timeout(1.0)

        eng.process(proc(), name="p")  # first step + 3 resumes
        for i in range(3):
            eng.schedule_fire(1.0, eng.signal(f"s{i}"))
        eng.run()
        assert eng.event_count == 7

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_events_always_execute_in_nondecreasing_time(self, delays):
        eng = Engine()
        seen = []

        def sleeper(d):
            yield Timeout(d)
            seen.append(eng.now)

        for i, d in enumerate(delays):
            eng.process(sleeper(d), name=f"p{i}")
        eng.run()
        assert seen == sorted(seen)
        assert len(seen) == len(delays)


class TestProcesses:
    def test_timeout_advances_time(self):
        eng = Engine()

        def proc():
            yield Timeout(5.0)
            yield Timeout(7.0)
            return eng.now

        assert eng.run_process(proc()) == 12.0

    def test_timeout_delivers_value(self):
        eng = Engine()

        def proc():
            got = yield Timeout(1.0, value="hello")
            return got

        assert eng.run_process(proc()) == "hello"

    def test_process_return_value(self):
        eng = Engine()

        def proc():
            yield Timeout(1.0)
            return 42

        assert eng.run_process(proc()) == 42

    def test_yielding_garbage_raises(self):
        eng = Engine()

        def proc():
            yield object()

        with pytest.raises(SimulationError, match="unsupported"):
            eng.run_process(proc())

    @pytest.mark.parametrize("wrap", [None, AllOf], ids=["process", "allof"])
    def test_yielding_a_process_raises(self, wrap):
        # A process waits on time, a signal or a resource, never on
        # another process.
        eng = Engine()

        def child():
            yield Timeout(1.0)

        def parent():
            c = eng.process(child(), name="child")
            yield c if wrap is None else wrap([c])

        with pytest.raises(SimulationError, match="unsupported"):
            eng.run_process(parent())

    def test_live_processes_tracked(self):
        eng = Engine()

        def proc():
            yield Timeout(1.0)

        eng.process(proc(), name="p")
        assert len(eng.live_processes) == 1
        eng.run()
        assert eng.live_processes == []

    def test_allof_waits_for_all_children(self):
        eng = Engine()
        kids = []
        for d in (5.0, 2.0, 8.0):
            kids.append(eng.signal(f"s{d}"))
            eng.schedule_fire(d, kids[-1], d)

        def parent():
            vals = yield AllOf(kids)
            return vals, eng.now

        vals, t = eng.run_process(parent())
        assert vals == [5.0, 2.0, 8.0]
        assert t == 8.0

    def test_allof_empty_completes_immediately(self):
        eng = Engine()

        def parent():
            vals = yield AllOf([])
            return vals

        assert eng.run_process(parent()) == []

    def test_allof_mixes_signals_and_timeouts(self):
        # One child fires from a deferred fire, the other from a process
        # after its own timeout.
        eng = Engine()
        sig = eng.signal("s")
        eng.schedule_fire(4.0, sig, "sv")
        timed = eng.signal("t")

        def firer():
            yield Timeout(1.0)
            timed.fire("tv")

        def parent():
            eng.process(firer(), name="firer")
            vals = yield AllOf([sig, timed])
            return vals, eng.now

        assert eng.run_process(parent()) == (["sv", "tv"], 4.0)

    def test_allof_rejects_timeout_children(self):
        def parent():
            yield AllOf([Timeout(1.0)])

        with pytest.raises(SimulationError, match="AllOf child unsupported"):
            Engine().run_process(parent())

    def test_yielding_timeout_subclass_raises(self):
        class Delay(Timeout):
            pass

        def proc():
            yield Delay(1.0)

        with pytest.raises(SimulationError, match="unsupported"):
            Engine().run_process(proc())


class TestSignals:
    def test_fire_wakes_all_waiters(self):
        eng = Engine()
        sig = eng.signal("s")
        woken = []

        def waiter(i):
            got = yield sig
            woken.append((i, got, eng.now))

        for i in range(3):
            eng.process(waiter(i), name=f"w{i}")
        eng.schedule_fire(6.0, sig, "v")
        eng.run()
        assert woken == [(0, "v", 6.0), (1, "v", 6.0), (2, "v", 6.0)]

    def test_fire_twice_raises(self):
        eng = Engine()
        sig = eng.signal("s")
        sig.fire()
        with pytest.raises(SimulationError, match="twice"):
            sig.fire()

    def test_wait_on_fired_signal_resumes_immediately(self):
        eng = Engine()
        sig = eng.signal("s")
        sig.fire("pre")

        def proc():
            got = yield sig
            return got

        assert eng.run_process(proc()) == "pre"

    def test_waiter_count(self):
        eng = Engine()
        sig = eng.signal("s")
        seen = []

        def waiter():
            yield sig

        def observer():
            yield Timeout(0.5)
            seen.append(sig.waiter_count)
            sig.fire()
            seen.append(sig.waiter_count)

        eng.process(waiter(), name="w")
        eng.process(observer(), name="o")
        eng.run()
        assert seen == [1, 0]

    def test_callbacks_invoked_on_fire(self):
        eng = Engine()
        sig = eng.signal("s")
        got = []
        sig.callbacks.append(got.append)
        sig.fire(11)
        assert got == [11]


class TestBatchedFire:
    """One Signal.fire over a large waiter list (a barrier release
    wavefront) queues one resume record per waiter, in subscription
    order: wake order, values, interleaving, event counts and deadlock
    reporting all follow from that."""

    N = 1000

    def test_fanout_wakes_all_in_fifo_order(self):
        eng = Engine()
        sig = eng.signal("release")
        woken = []

        def waiter(i):
            got = yield sig
            woken.append((i, got, eng.now))

        for i in range(self.N):
            eng.process(waiter(i), name=f"w{i}")
        eng.schedule_fire(3.0, sig, "v")
        eng.run()
        assert woken == [(i, "v", 3.0) for i in range(self.N)]

    def test_batch_resumes_before_later_scheduled_events(self):
        """An event scheduled after the fire (same timestamp) runs after
        every waiter — the ordering a single heap would produce."""
        eng = Engine()
        sig = eng.signal("s")
        order = []
        after = eng.signal("after")
        after.callbacks.append(lambda _value: order.append("after"))

        def waiter(i):
            yield sig
            order.append(f"w{i}")

        for i in range(self.N):
            eng.process(waiter(i), name=f"w{i}")

        def firer():
            yield Timeout(1.0)
            sig.fire()
            eng.schedule_fire(0.0, after)

        eng.process(firer(), name="firer")
        eng.run()
        assert order[-1] == "after"
        assert order[:-1] == [f"w{i}" for i in range(self.N)]

    def test_event_count_matches_unbatched_semantics(self):
        eng = Engine()
        sig = eng.signal("s")

        def waiter():
            yield sig

        for i in range(self.N):
            eng.process(waiter(), name=f"w{i}")
        eng.schedule_fire(1.0, sig)
        eng.run()
        # N initial steps + 1 fire record + N resumes.
        assert eng.event_count == 2 * self.N + 1

    def test_continuations_run_after_all_members_wake(self):
        """A waiter yielding Timeout(0.0) after the wake queues its
        continuation behind every later waiter's resume: wake0..wakeN,
        then cont0..contN."""
        eng = Engine()
        sig = eng.signal("s")
        order = []
        n = 20

        def waiter(i):
            yield sig
            order.append(f"wake{i}")
            yield Timeout(0.0)
            order.append(f"cont{i}")

        for i in range(n):
            eng.process(waiter(i), name=f"w{i}")
        eng.schedule_fire(1.0, sig)
        eng.run()
        expected = [f"wake{i}" for i in range(n)] + [f"cont{i}" for i in range(n)]
        assert order == expected

    def test_member_failure_does_not_drop_later_members(self):
        """A waiter's unobserved exception escapes run(); the later
        waiters' resume records stay queued for the next run()."""
        eng = Engine()
        sig = eng.signal("s")
        done = []
        n = 10

        def waiter(i):
            yield sig
            if i == 2:
                raise RuntimeError("boom")
            done.append(i)

        for i in range(n):
            eng.process(waiter(i), name=f"w{i}")
        eng.schedule_fire(1.0, sig)
        with pytest.raises(RuntimeError, match="boom"):
            eng.run()
        eng.run()  # the later waiters resume
        assert done == [0, 1] + list(range(3, n))

    def test_waiters_that_block_again_are_reported_on_deadlock(self):
        eng = Engine()
        sig = eng.signal("round1")
        stuck = eng.signal("never")

        def waiter(i):
            yield sig
            yield stuck

        for i in range(self.N):
            eng.process(waiter(i), name=f"w{i}")
        eng.schedule_fire(1.0, sig)
        with pytest.raises(DeadlockError) as exc:
            eng.run()
        assert len(exc.value.blocked) == self.N


class TestResources:
    def test_capacity_one_serializes(self):
        eng = Engine()
        res = eng.resource(1, "r")
        spans = []

        def proc(i):
            yield res.acquire()
            start = eng.now
            yield Timeout(10.0)
            res.release()
            spans.append((i, start, eng.now))

        for i in range(3):
            eng.process(proc(i), name=f"p{i}")
        eng.run()
        assert [s[1] for s in spans] == [0.0, 10.0, 20.0]

    def test_fifo_grant_order(self):
        eng = Engine()
        res = eng.resource(1, "r")
        order = []

        def proc(i):
            yield res.acquire()
            order.append(i)
            yield Timeout(1.0)
            res.release()

        for i in range(5):
            eng.process(proc(i), name=f"p{i}")
        eng.run()
        assert order == [0, 1, 2, 3, 4]

    def test_capacity_n_allows_parallelism(self):
        eng = Engine()
        res = eng.resource(3, "r")
        ends = []

        def proc():
            yield res.acquire()
            yield Timeout(10.0)
            res.release()
            ends.append(eng.now)

        for _ in range(3):
            eng.process(proc(), name="p")
        eng.run()
        assert ends == [10.0, 10.0, 10.0]

    def test_release_idle_raises(self):
        eng = Engine()
        res = eng.resource(1, "r")
        with pytest.raises(SimulationError, match="idle"):
            res.release()

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            Engine().resource(0)

    def test_queue_length_and_in_use(self):
        eng = Engine()
        res = eng.resource(1, "r")
        seen = []

        def holder():
            yield res.acquire()
            yield Timeout(10.0)
            res.release()

        def waiter():
            yield res.acquire()
            res.release()

        def observer():
            yield Timeout(5.0)
            seen.append((res.in_use, res.queue_length))

        eng.process(holder(), name="h")
        eng.process(waiter(), name="w")
        eng.process(observer(), name="o")
        eng.run()
        assert seen == [(1, 1)]

    @given(
        st.integers(min_value=1, max_value=4),
        st.lists(st.floats(min_value=0.1, max_value=20.0), min_size=1, max_size=15),
    )
    @settings(max_examples=40, deadline=None)
    def test_never_exceeds_capacity(self, capacity, durations):
        eng = Engine()
        res = eng.resource(capacity, "r")
        active = [0]
        peak = [0]

        def proc(d):
            yield res.acquire()
            active[0] += 1
            peak[0] = max(peak[0], active[0])
            yield Timeout(d)
            active[0] -= 1
            res.release()

        for d in durations:
            eng.process(proc(d), name="p")
        eng.run()
        assert peak[0] <= capacity
        assert active[0] == 0


class TestReadyQueueFifo:
    """The zero-delay ready deque must merge with the heap in exact
    FIFO-at-equal-time order (the seed engine's single-heap semantics)."""

    def test_heap_event_at_same_time_scheduled_earlier_runs_first(self):
        eng = Engine()
        order = []

        def first():
            yield Timeout(5.0)
            order.append("a")
            # Zero-delay event created at t=5: must run *after* second's
            # heap event, which was scheduled before it.
            yield Timeout(0.0)
            order.append("c")

        def second():
            yield Timeout(5.0)
            order.append("b")

        eng.process(first(), name="first")
        eng.process(second(), name="second")
        eng.run()
        assert order == ["a", "b", "c"]

    @pytest.mark.parametrize(
        "spawn, expected",
        [
            ("process_now", ["child", "parent", "other"]),
            ("process", ["parent", "other", "child"]),
        ],
    )
    def test_process_now_steps_inside_the_current_event(self, spawn, expected):
        # A hand-off through process_now takes its first step inside the
        # spawner's event, ahead of another process's equal-time event;
        # process() queues it behind that event.
        eng = Engine()
        order = []

        def child():
            order.append("child")
            yield Timeout(1.0)

        def parent():
            yield Timeout(5.0)
            getattr(eng, spawn)(child(), name="child")
            order.append("parent")

        def other():
            yield Timeout(5.0)
            order.append("other")

        eng.process(parent(), name="parent")
        eng.process(other(), name="other")
        eng.run()
        assert order == expected

    def test_zero_delay_runs_before_later_heap_event(self):
        eng = Engine()
        order = []

        def sleeper(tag, delay):
            yield Timeout(delay)
            order.append(tag)

        eng.process(sleeper("heap", 1.0), name="heap")
        eng.process(sleeper("ready", 0.0), name="ready")
        eng.run()
        assert order == ["ready", "heap"]

    def test_zero_delay_processes_interleave_round_robin(self):
        """Multiple runnable processes step in FIFO rounds, never
        run-to-completion."""
        eng = Engine()
        order = []

        def proc(i):
            for step in range(3):
                order.append((i, step))
                yield Timeout(0.0)

        for i in range(3):
            eng.process(proc(i), name=f"p{i}")
        eng.run()
        assert order == [(i, s) for s in range(3) for i in range(3)]

    def test_mixed_fn_and_process_events_fifo(self):
        """Signal fires and process resumes share one FIFO ready deque."""
        eng = Engine()
        order = []
        sig = eng.signal("s")
        sig.callbacks.append(lambda _value: order.append("fire0"))

        def proc():
            order.append("proc-step0")
            yield Timeout(0.0)
            order.append("proc-step1")

        eng.process(proc(), name="p")
        eng.schedule_fire(0.0, sig)
        eng.run()
        assert order == ["proc-step0", "fire0", "proc-step1"]

    @given(
        st.lists(
            st.tuples(st.sampled_from([0.0, 1.0, 2.0]), st.integers(0, 99)),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_equal_time_events_preserve_schedule_order(self, events):
        eng = Engine()
        seen = []

        def sleeper(d, t):
            yield Timeout(d)
            seen.append((d, t))

        for i, (delay, tag) in enumerate(events):
            eng.process(sleeper(delay, tag), name=f"p{i}")
        eng.run()
        expected = sorted(
            [(d, t) for d, t in events],
            key=lambda pair: pair[0],
        )
        # Python's sort is stable, so equal-time events keep start order.
        assert seen == expected

    def test_pending_count_spans_both_queues(self):
        eng = Engine()
        eng.schedule_fire(0.0, eng.signal("now"))
        eng.schedule_fire(5.0, eng.signal("later"))
        assert eng.pending_count == 2
        eng.run()
        assert eng.pending_count == 0


class TestScheduleFire:
    def test_fire_after_delay_delivers_value(self):
        eng = Engine()
        sig = eng.signal("s")
        got = []

        def waiter():
            got.append((yield sig))

        eng.process(waiter(), name="w")
        eng.schedule_fire(4.0, sig, "payload")
        eng.run()
        assert got == ["payload"]
        assert eng.now == 4.0

    def test_zero_delay_fire(self):
        eng = Engine()
        sig = eng.signal("s")
        eng.schedule_fire(0.0, sig, 7)
        eng.run()
        assert sig.fired and sig.value == 7

    def test_negative_delay_rejected(self):
        eng = Engine()
        with pytest.raises(ValueError):
            eng.schedule_fire(-1.0, eng.signal("s"))

    @pytest.mark.parametrize("delay", [math.nan, math.inf])
    def test_non_finite_delay_rejected(self, delay):
        eng = Engine()
        with pytest.raises(ValueError, match="schedule_fire delay"):
            eng.schedule_fire(delay, eng.signal("s"))
        assert eng.pending_count == 0


class TestWakeAt:
    """Absolute-time wakeups: the SIMT fast path lands on lane-locally
    accumulated rendezvous timestamps bit-exactly (a relative
    ``Timeout(t - now)`` cannot guarantee ``now + (t - now) == t``)."""

    def test_resumes_at_exact_absolute_time(self):
        from repro.sim.engine import WakeAt

        eng = Engine()
        # A timestamp accumulated through repeated additions — the exact
        # float the waker must land on, ulp for ulp.
        t = 0.0
        for delta in (1.524390243902439, 327.743902439024, 655.487804878048):
            t = t + delta
        seen = []

        def proc():
            yield WakeAt(t)
            seen.append(eng.now)

        eng.process(proc(), name="p")
        eng.run()
        assert seen == [t]  # bitwise: no Timeout rounding slip

    def test_delivers_value(self):
        from repro.sim.engine import WakeAt

        eng = Engine()
        got = []

        def proc():
            got.append((yield WakeAt(3.0, value="v")))

        eng.process(proc(), name="p")
        eng.run()
        assert got == ["v"]

    def test_past_time_rejected(self):
        from repro.sim.engine import WakeAt

        eng = Engine()

        def proc():
            yield Timeout(10.0)
            yield WakeAt(5.0)  # now == 10: the past

        eng.process(proc(), name="p")
        with pytest.raises(SimulationError, match="in the past"):
            eng.run()

    @pytest.mark.parametrize("time", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, time):
        from repro.sim.engine import WakeAt

        eng = Engine()

        def proc():
            yield WakeAt(time)

        eng.process(proc(), name="p")
        with pytest.raises(SimulationError, match="WakeAt.*finite"):
            eng.run()
        assert eng.now == 0.0

    def test_wake_at_now_runs_after_current_instant(self):
        from repro.sim.engine import WakeAt

        eng = Engine()
        order = []

        def sleeper():
            yield WakeAt(0.0)
            order.append("wake-at")

        def ready():
            order.append("ready")
            yield Timeout(0.0)

        eng.process(sleeper(), name="s")
        eng.process(ready(), name="r")
        eng.run()
        # The WakeAt record carries a later sequence number than the
        # already-queued ready events, so FIFO-at-equal-time holds.
        assert order[0] == "ready"


class TestProcessFailure:
    """A raising process aborts ``Engine.run()`` with its own exception;
    the engine can be run again."""

    def test_error_with_no_waiters_still_aborts_run(self):
        eng = Engine()

        def lonely():
            yield Timeout(1.0)
            raise KeyError("alone")

        eng.process(lonely(), name="lonely")
        with pytest.raises(KeyError):
            eng.run()

    def test_failed_process_records_error_attribute(self):
        eng = Engine()
        later = []

        def child():
            yield Timeout(1.0)
            raise RuntimeError("attr")

        def sibling():
            yield Timeout(2.0)
            later.append(eng.now)

        proc = eng.process(child(), name="child")
        eng.process(sibling(), name="sibling")
        with pytest.raises(RuntimeError, match="attr"):
            eng.run()
        assert proc.done and isinstance(proc.error, RuntimeError)
        assert proc not in eng.live_processes
        eng.run()  # the sibling resumes on the next run
        assert later == [2.0]


class TestResourceContention:
    def test_grant_order_under_contention_capacity_two(self):
        eng = Engine()
        res = eng.resource(2, "r")
        order = []

        def proc(i):
            yield res.acquire()
            order.append(i)
            yield Timeout(10.0)
            res.release()

        for i in range(6):
            eng.process(proc(i), name=f"p{i}")
        eng.run()
        assert order == [0, 1, 2, 3, 4, 5]

    def test_slot_transfers_to_waiter_without_in_use_dip(self):
        eng = Engine()
        res = eng.resource(1, "r")
        snapshots = []

        def holder():
            yield res.acquire()
            yield Timeout(5.0)
            res.release()
            snapshots.append(("after-release", res.in_use, res.queue_length))

        def waiter():
            yield res.acquire()
            snapshots.append(("granted", res.in_use, res.queue_length))
            res.release()

        eng.process(holder(), name="h")
        eng.process(waiter(), name="w")
        eng.run()
        # The slot moves directly holder -> waiter: in_use never dips to 0
        # between release and grant.
        assert snapshots == [("after-release", 1, 0), ("granted", 1, 0)]

    def test_release_wakes_in_fifo_even_with_interleaved_acquires(self):
        eng = Engine()
        res = eng.resource(1, "r")
        order = []

        def early(i):
            yield res.acquire()
            order.append(i)
            yield Timeout(2.0)
            res.release()

        def late(i):
            yield Timeout(1.0)
            yield res.acquire()
            order.append(i)
            yield Timeout(2.0)
            res.release()

        eng.process(early(0), name="e0")
        eng.process(early(1), name="e1")
        eng.process(late(2), name="l2")
        eng.run()
        assert order == [0, 1, 2]


class TestDeadlockDetection:
    def test_blocked_process_raises_deadlock(self):
        eng = Engine()
        sig = eng.signal("never")

        def proc():
            yield sig

        eng.process(proc(), name="stuck")
        with pytest.raises(DeadlockError) as exc:
            eng.run()
        assert "stuck" in str(exc.value)

    def test_deadlock_lists_all_blocked(self):
        eng = Engine()
        sig = eng.signal("never")

        def proc():
            yield sig

        for i in range(3):
            eng.process(proc(), name=f"b{i}")
        with pytest.raises(DeadlockError) as exc:
            eng.run()
        assert len(exc.value.blocked) == 3

    def test_clean_completion_no_deadlock(self):
        eng = Engine()

        def proc():
            yield Timeout(1.0)

        eng.process(proc(), name="ok")
        eng.run()  # no raise

    def test_mutual_resource_wait_deadlocks(self):
        eng = Engine()
        a, b = eng.resource(1, "a"), eng.resource(1, "b")

        def p1():
            yield a.acquire()
            yield Timeout(1.0)
            yield b.acquire()

        def p2():
            yield b.acquire()
            yield Timeout(1.0)
            yield a.acquire()

        eng.process(p1(), name="p1")
        eng.process(p2(), name="p2")
        with pytest.raises(DeadlockError):
            eng.run()
