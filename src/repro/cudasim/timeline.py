"""Exact replay of a fresh runtime's host timeline, without the event loop.

The host-clock protocols (Table I's fusion method and Fig 3 estimator,
Fig 9's multi-device and CPU-side series, Section IX-D's CPU-clock
method) drive one host thread, or an OpenMP team of identical threads,
that launches kernels, synchronizes and reads the host clock.  On a fresh
runtime nothing else is scheduled, so the thread's time is a closed
recurrence.  :class:`HostTimeline` advances it with the engine's float
operations in the engine's order, so every clock read returns the bits the
event path returns (docs/engine.md, "Host timelines without the event
loop").

A host program is a generator function of its host ``h``.  It calls
``yield from h.launch(...)``, ``yield from h.device_synchronize()`` and
``h.host_clock.read()`` as it would on a
:class:`~repro.cudasim.runtime.CudaRuntime`, and :func:`run_host_program`
hands it a replay where one applies and the runtime itself otherwise.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional, Sequence, Tuple

from repro.cudasim.kernel import Kernel, LaunchConfig
from repro.cudasim.runtime import CudaRuntime
from repro.sim.engine import SimulationError, shortcuts_allowed

__all__ = ["HostTimeline", "run_host_program"]


class _ReplayClock:
    """The runtime's host clock, read at the replayed thread's time."""

    __slots__ = ("_timeline",)

    def __init__(self, timeline: "HostTimeline"):
        self._timeline = timeline

    def read(self) -> float:
        return self._timeline.rt.host_clock.read_at(self._timeline.now)


class HostTimeline:
    """The host thread of a fresh runtime, replayed.

    Mirrors the launch and synchronization calls of
    :class:`~repro.cudasim.runtime.CudaRuntime`.  Each is a generator that
    never yields, so :meth:`run` finishes a program in one step.  Launches
    pass the runtime's own checks and advance the runtime's own streams
    (:meth:`~repro.cudasim.stream.Stream.commit`); clock reads draw from
    the runtime's own :class:`~repro.sim.clock.HostClock`.  The replay
    makes no launch record or completion signal and runs no kernel body:
    it times probe kernels, which have none.
    """

    def __init__(self, rt: CudaRuntime):
        self.rt = rt
        self.now = 0.0
        self.host_clock = _ReplayClock(self)
        # Per stream: (completion time, host step that enqueued it).
        self._completions: List[List[Tuple[float, int]]] = [[] for _ in rt.streams]
        self._step = 0
        self._last_completion = 0.0

    @classmethod
    def of(cls, rt: CudaRuntime) -> Optional["HostTimeline"]:
        """A replay of ``rt``'s host thread, or ``None`` if the event path
        must run: shortcuts are not allowed
        (:func:`~repro.sim.engine.shortcuts_allowed`), ``rt`` was handed
        its engine, the engine has run or holds work, or a stream has work
        committed."""
        engine = rt.engine
        if (
            shortcuts_allowed()
            and rt.owns_engine
            and engine.now == 0.0
            and not engine.pending_count
            and not engine.live_processes
            and all(stream.fresh for stream in rt.streams)
        ):
            return cls(rt)
        return None

    def run(self, program: Generator) -> Any:
        """Run a host program to completion; returns its value.

        Leaves the engine's clock where the event path leaves it, at the
        last host step or kernel completion, so the spent runtime is no
        longer fresh and whatever runs on it next continues from there.
        """
        try:
            program.send(None)
        except StopIteration as stop:
            result = stop.value
        else:
            program.close()
            raise SimulationError(
                "a replayed host program may wait only through the timeline's calls"
            )
        self.rt.engine.now = max(self.now, self._last_completion)
        return result

    # -- time ---------------------------------------------------------------

    def _resume_at(self, t: float) -> None:
        """The thread yields and the engine resumes it at ``t``."""
        self._step += 1
        self.now = t

    def _delay(self, delay_ns: float) -> None:
        """``yield Timeout(delay_ns)``: the engine resumes at ``now + delay``."""
        self._resume_at(self.now + delay_ns)

    def _commit(
        self,
        device: int,
        kernel: Kernel,
        config: LaunchConfig,
        calib: Any,
        n_gpus: int = 1,
        start_override_ns: Optional[float] = None,
    ) -> None:
        enqueue_done = self.now
        _, end, _ = self.rt.stream(device).commit(
            kernel, config, calib, enqueue_done, n_gpus, start_override_ns
        )
        # The engine schedules the completion ``end - now`` after now.
        done = enqueue_done + (end - enqueue_done)
        self._completions[device].append((done, self._step))
        self._last_completion = max(self._last_completion, done)

    def _pending(self, device: int) -> List[float]:
        """Completion times of the stream's kernels that have not fired.

        A completion due by now has fired, unless it was enqueued since
        the thread last yielded: its event is queued behind the thread.
        """
        return [
            t for t, step in self._completions[device]
            if t > self.now or step == self._step
        ]

    # -- the runtime's host calls ----------------------------------------------

    def device(self, index: int = 0) -> Any:
        return self.rt.device(index)

    def launch(
        self,
        kernel: Kernel,
        config: LaunchConfig,
        device: int = 0,
        launch_type: str = "traditional",
    ) -> Generator:
        """:meth:`CudaRuntime.launch`, replayed."""
        calib = self.rt._checked_launch(config, device, launch_type)
        self._delay(calib.api_ns)
        self._commit(device, kernel, config, calib)
        return
        yield  # pragma: no cover - generator marker, never reached

    def launch_cooperative(
        self, kernel: Kernel, config: LaunchConfig, device: int = 0
    ) -> Generator:
        """:meth:`CudaRuntime.launch_cooperative`, replayed."""
        calib = self.rt._checked_cooperative(config, device)
        self._delay(calib.api_ns)
        self._commit(device, kernel, config, calib)
        return
        yield  # pragma: no cover - generator marker, never reached

    def launch_cooperative_multi_device(
        self,
        kernel: Kernel,
        config: LaunchConfig,
        devices: Optional[Sequence[int]] = None,
    ) -> Generator:
        """:meth:`CudaRuntime.launch_cooperative_multi_device`, replayed."""
        ids, calib = self.rt._checked_multi_device(config, devices)
        self._delay(calib.api_ns)
        start = self.rt._common_start(ids, calib, self.now)
        for d in ids:
            self._commit(d, kernel, config, calib, len(ids), start)
        return
        yield  # pragma: no cover - generator marker, never reached

    def device_synchronize(
        self, device: int = 0, launch_type: str = "traditional"
    ) -> Generator:
        """:meth:`CudaRuntime.device_synchronize`: wait for the stream's
        last pending completion, then pay the sync return."""
        dev = self.rt.device(device)
        pending = self._pending(device)
        if pending:
            self._resume_at(pending[-1])
        self._delay(dev.spec.launch_calib(launch_type).sync_return_ns)
        return
        yield  # pragma: no cover - generator marker, never reached

    def synchronize_all(self) -> Generator:
        """:meth:`CudaRuntime.synchronize_all`: wait for every pending
        completion, then pay the sync return."""
        pending = [t for d in range(self.rt.gpu_count) for t in self._pending(d)]
        if pending:
            self._resume_at(max(pending))
        spec = self.rt.device(0).spec
        self._delay(spec.launch_calib("traditional").sync_return_ns)
        return
        yield  # pragma: no cover - generator marker, never reached

    def team_barrier(self, cost_ns: float) -> Callable[[int], Generator]:
        """``OmpTeam.barrier`` for a team whose members all run this
        timeline on identical devices: they arrive together, and the last
        arrival's release fires ``cost_ns`` later."""

        def barrier(tid: int) -> Generator:
            self._delay(cost_ns)
            return
            yield  # pragma: no cover - generator marker, never reached

        return barrier


def run_host_program(rt: CudaRuntime, program: Callable[[Any], Generator]) -> Any:
    """Run ``program(host)`` as ``rt``'s host thread; returns its value.

    ``host`` is a :class:`HostTimeline` where :meth:`HostTimeline.of`
    gives one, else ``rt`` itself, which runs the program on the engine.
    """
    timeline = HostTimeline.of(rt)
    if timeline is None:
        return rt.run_host(program(rt))
    return timeline.run(program(timeline))
