"""Unit tests for the sync-event stream (repro.sanitize.events)."""

import pytest

from repro.sanitize import events as ev
from repro.sim.arch import V100
from repro.sync.groups import GridGroup, MultiGridGroup


@pytest.fixture(autouse=True)
def _no_leaked_monitor():
    yield
    ev.uninstall()


class TestMonitorGlobal:
    def test_disabled_by_default(self):
        assert ev.MONITOR is None
        assert ev.current_monitor() is None

    def test_install_uninstall(self):
        mon = ev.SyncMonitor()
        assert ev.install(mon) is mon
        assert ev.MONITOR is mon
        assert ev.current_monitor() is mon
        ev.uninstall()
        assert ev.MONITOR is None


class TestEventRecord:
    def test_to_dict_omits_none(self):
        e = ev.SyncEvent("arrive", time=1.0, scope=0, member=2, round=0)
        d = e.to_dict()
        assert d == {"kind": "arrive", "time": 1.0, "scope": 0, "member": 2, "round": 0}
        assert "actor" not in d and "addr" not in d and "data" not in d

    def test_kinds_closed_set(self):
        assert "arrive" in ev.EVENT_KINDS
        assert "commit" in ev.EVENT_KINDS
        assert len(ev.EVENT_KINDS) == len(set(ev.EVENT_KINDS))


class TestEventCap:
    def test_cap_counts_dropped(self):
        mon = ev.SyncMonitor(max_events=3)
        for i in range(5):
            mon.on_signal_fire(type("S", (), {"name": f"s{i}"})(), now=float(i))
        assert len(mon.events) == 3
        assert mon.dropped == 2


class TestScopeRegistration:
    def test_range_membership(self):
        mon = ev.SyncMonitor()
        group = GridGroup(V100, blocks_per_sm=1, threads_per_block=64, sm_count=4)
        sid = mon.register_scope(group)
        info = mon.scopes[sid]
        assert info.kind == "GridGroup"
        assert info.members == (0, 1, 2, 3)
        assert info.release_name == "grid-release"
        # Registration is idempotent and emits exactly one scope event.
        assert mon.register_scope(group) == sid
        assert len(mon.events_of("scope")) == 1

    def test_gpu_ids_membership(self):
        from repro.sim.arch import get_node_spec
        from repro.sim.node import Node

        mon = ev.SyncMonitor()
        node = Node(get_node_spec("DGX1"), gpu_count=4)
        group = MultiGridGroup(node, 1, 32, gpu_ids=(1, 3))
        sid = mon.scope_id(group)
        assert mon.scopes[sid].members == (1, 3)

    def test_distinct_scopes_get_distinct_ids(self):
        mon = ev.SyncMonitor()
        a = GridGroup(V100, 1, 64, sm_count=2)
        b = GridGroup(V100, 1, 64, sm_count=2)
        assert mon.scope_id(a) != mon.scope_id(b)

    def test_freed_scope_id_is_never_reused(self):
        # Each group is dropped before the next is built, so CPython is
        # free to hand the next one the same address.  A scope that
        # inherited an old scope's id would also inherit its round-0
        # arrivals and read as a double arrive.
        from repro.sanitize.checker import SanitizerSession

        with SanitizerSession("full") as sess:
            for _ in range(20):
                GridGroup(V100, 1, 64).simulate(n_syncs=1)
        assert sess.findings() == []
        assert len(sess.monitor.scopes) == 20


class TestRoundSignalMap:
    def test_round_maps_release_signal(self):
        mon = ev.SyncMonitor()
        ev.install(mon)
        group = GridGroup(V100, 1, 64, sm_count=2)
        rnd = group.round_state(0)
        assert mon.round_of_signal(id(rnd.release)) == (mon.scope_id(group), 0)
        assert mon.round_of_signal(12345) is None


class TestMemoryHooks:
    def test_capture_memory_flag_gates_recording(self):
        from repro.sim.memory import SharedMemory

        mon = ev.SyncMonitor(capture_memory=False)
        ev.install(mon)
        mem = SharedMemory(2)
        mem.store(0, 0, 1.0)
        mem.load(1, 0)
        mem.commit()
        assert mon.events_of("store", "load", "commit") == []

    def test_memory_events_recorded_when_enabled(self):
        from repro.sim.memory import SharedMemory

        mon = ev.SyncMonitor(capture_memory=True)
        ev.install(mon)
        mem = SharedMemory(2)
        mem.store(0, 1, 4.2, volatile=True)
        mem.load(1, 1)
        mem.commit_thread(0)
        kinds = [e.kind for e in mon.events]
        assert kinds == ["store", "load", "commit"]
        store = mon.events[0]
        assert store.actor == 0 and store.addr == 1
        assert store.data["volatile"] is True
        assert mon.events[2].actor == 0  # per-thread fence keeps the actor
