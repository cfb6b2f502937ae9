"""CUDA stream model: the ordered launch/dispatch pipeline.

The paper's implicit-barrier study (Section IV) is entirely a property of
this pipeline.  Model (constants from the launch-type's
:class:`~repro.sim.arch.LaunchCalib`)::

    enqueue_done = host API return time (api_ns spent on the host thread)
    start_k = max(enqueue_done_k + dispatch,
                  end_{k-1} + gap + max(0, dispatch - exec_{k-1}))
    end_k   = start_k + exec_k

The ``max(0, dispatch - exec_{k-1})`` term is the *unsaturated pipeline*
effect the paper reports: when kernels are shorter than the dispatch
pipeline depth, part of the dispatch cannot be hidden behind execution, so
back-to-back null kernels cost ``gap + dispatch`` each (Table I "kernel
total latency"), while kernels longer than ~5 µs cost only ``gap`` extra
(Table I "launch overhead", recovered by the kernel-fusion method).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cudasim.kernel import Kernel, LaunchConfig
from repro.sim.arch import LaunchCalib
from repro.sim.device import Device
from repro.sim.engine import Engine, Signal

__all__ = ["Stream", "LaunchRecord"]


@dataclass
class LaunchRecord:
    """Bookkeeping for one launched kernel (useful for tests/traces)."""

    kernel_name: str
    enqueue_done_ns: float
    start_ns: float
    end_ns: float
    exec_ns: float
    completion: Signal


class Stream:
    """One in-order command queue attached to a device."""

    def __init__(self, engine: Engine, device: Device, index: int = 0):
        self.engine = engine
        self.device = device
        self.index = index
        self._pipeline_end_ns: Optional[float] = None
        self._last_exec_ns: Optional[float] = None
        self.records: List[LaunchRecord] = []

    # -- pipeline queries --------------------------------------------------

    def earliest_start(
        self, enqueue_done_ns: float, calib: LaunchCalib, n_gpus: int = 1
    ) -> float:
        """Earliest start time for a kernel enqueued at ``enqueue_done_ns``."""
        dispatch = calib.dispatch_for(n_gpus)
        start = enqueue_done_ns + dispatch
        if self._pipeline_end_ns is not None:
            stall = max(0.0, dispatch - (self._last_exec_ns or 0.0))
            start = max(start, self._pipeline_end_ns + calib.gap_for(n_gpus) + stall)
        return start

    # -- enqueue -----------------------------------------------------------

    def commit(
        self,
        kernel: Kernel,
        config: LaunchConfig,
        calib: LaunchCalib,
        enqueue_done_ns: float,
        n_gpus: int = 1,
        start_override_ns: Optional[float] = None,
    ) -> tuple[float, float, float]:
        """Advance the pipeline by one kernel; returns ``(start, end, exec)``.

        The recurrence of the module docstring, shared by :meth:`enqueue`
        and the host timeline replay (:mod:`repro.cudasim.timeline`).
        ``start_override_ns`` implements the multi-device launch's
        synchronized start (all participating devices begin together, no
        earlier than any device's own constraint).
        """
        exec_ns = kernel.duration_ns(self.device, config)
        start = self.earliest_start(enqueue_done_ns, calib, n_gpus)
        if start_override_ns is not None:
            if start_override_ns < start - 1e-9:
                raise ValueError(
                    "start_override must not precede the stream's own constraint"
                )
            start = start_override_ns
        end = start + exec_ns
        self._pipeline_end_ns = end
        self._last_exec_ns = exec_ns
        return start, end, exec_ns

    def enqueue(
        self,
        kernel: Kernel,
        config: LaunchConfig,
        calib: LaunchCalib,
        enqueue_done_ns: float,
        n_gpus: int = 1,
        start_override_ns: Optional[float] = None,
    ) -> LaunchRecord:
        """Commit a kernel to the pipeline; returns its launch record.

        Its completion signal is scheduled ``end - now`` after the
        engine's current time.
        """
        start, end, exec_ns = self.commit(
            kernel, config, calib, enqueue_done_ns, n_gpus, start_override_ns
        )
        completion = Signal(self.engine, name=f"{kernel.name}@s{self.index}.done")
        # Functional side effects run as a fire callback, so the deferred
        # completion is a plain (signal, value) record on the engine.
        completion.callbacks.append(
            lambda _v, kernel=kernel, config=config: kernel.on_complete(
                self.device, config
            )
        )
        self.engine.schedule_fire(end - self.engine.now, completion)
        rec = LaunchRecord(
            kernel_name=kernel.name,
            enqueue_done_ns=enqueue_done_ns,
            start_ns=start,
            end_ns=end,
            exec_ns=exec_ns,
            completion=completion,
        )
        self.records.append(rec)
        return rec

    @property
    def fresh(self) -> bool:
        """True until a kernel is committed to the stream."""
        return self._pipeline_end_ns is None

    @property
    def pending(self) -> List[Signal]:
        """Completion signals not yet fired."""
        return [r.completion for r in self.records if not r.completion.fired]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Stream(dev={self.device.index}, idx={self.index}, "
            f"launches={len(self.records)})"
        )
