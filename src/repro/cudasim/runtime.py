"""The simulated CUDA runtime: launch functions and synchronization APIs.

Host code is written as generator processes over the shared engine, so the
examples read like the paper's host listings (Figs 3/6/14)::

    rt = CudaRuntime.single_gpu(V100)

    def main():
        yield from rt.launch(NullKernel(), LaunchConfig(80, 128))
        yield from rt.device_synchronize()
        t = rt.host_clock.read()
        ...

    rt.run_host(main())

Three launch functions mirror CUDA's:

* :meth:`CudaRuntime.launch` — traditional ``<<<>>>``,
* :meth:`CudaRuntime.launch_cooperative` —
  ``cudaLaunchCooperativeKernel`` (validates grid co-residency),
* :meth:`CudaRuntime.launch_cooperative_multi_device` —
  ``cudaLaunchCooperativeKernelMultiDevice`` (synchronized start across
  devices; acts as an implicit barrier over all involved streams [17]).
"""

from __future__ import annotations

from typing import Generator, List, Optional, Sequence

from repro.cudasim.errors import CooperativeLaunchTooLarge, InvalidDevice
from repro.cudasim.kernel import Kernel, LaunchConfig
from repro.cudasim.stream import Stream
from repro.sim.arch import GPUSpec, NodeSpec
from repro.sim.clock import HostClock
from repro.sim.device import Device
from repro.sim.engine import AllOf, Engine, Timeout
from repro.sim.node import Node
from repro.sim.occupancy import max_cooperative_blocks

__all__ = ["CudaRuntime"]


class CudaRuntime:
    """Host-side runtime over one node (one or more devices)."""

    def __init__(self, node: Node, engine: Optional[Engine] = None,
                 host_jitter_ns: Optional[float] = None, seed: int = 0):
        self.node = node
        # Whether the runtime made its engine; only then may a host program
        # be replayed without the event loop (repro.cudasim.timeline).
        self.owns_engine = engine is None
        self.engine = engine or Engine()
        jitter = (
            host_jitter_ns
            if host_jitter_ns is not None
            else node.spec.host_clock_jitter_ns
        )
        self.host_clock = HostClock(self.engine, jitter_ns=jitter, seed=seed)
        self.streams: List[Stream] = [
            Stream(self.engine, dev, index=i) for i, dev in enumerate(node.devices)
        ]

    # -- constructors -------------------------------------------------------

    @classmethod
    def single_gpu(cls, spec: GPUSpec, **kw) -> "CudaRuntime":
        """Runtime over a single GPU of the given architecture."""
        node_spec = NodeSpec(
            name=f"single-{spec.name}",
            gpu=spec,
            gpu_count=1,
            interconnect="pcie",
            cross_gpu=_NULL_CROSS,
        )
        return cls(Node(node_spec, gpu_count=1), **kw)

    @classmethod
    def for_node(
        cls, node_spec: NodeSpec, gpu_count: Optional[int] = None, **kw
    ) -> "CudaRuntime":
        """Runtime over a multi-GPU node (DGX-1, dual-P100, ...)."""
        return cls(Node(node_spec, gpu_count=gpu_count), **kw)

    # -- device access ------------------------------------------------------

    @property
    def gpu_count(self) -> int:
        return self.node.gpu_count

    def device(self, index: int = 0) -> Device:
        if not (0 <= index < self.gpu_count):
            raise InvalidDevice(f"device {index} out of range [0,{self.gpu_count})")
        return self.node.devices[index]

    def stream(self, device: int = 0) -> Stream:
        self.device(device)
        return self.streams[device]

    # -- launch functions -----------------------------------------------------

    def launch(
        self,
        kernel: Kernel,
        config: LaunchConfig,
        device: int = 0,
        launch_type: str = "traditional",
    ) -> Generator:
        """Traditional ``<<<>>>`` launch.  Yields; returns a LaunchRecord."""
        calib = self._checked_launch(config, device, launch_type)
        yield Timeout(calib.api_ns)  # host-side API cost
        rec = self.stream(device).enqueue(
            kernel, config, calib, enqueue_done_ns=self.engine.now
        )
        return rec

    def launch_cooperative(
        self,
        kernel: Kernel,
        config: LaunchConfig,
        device: int = 0,
    ) -> Generator:
        """``cudaLaunchCooperativeKernel``: validates grid co-residency."""
        calib = self._checked_cooperative(config, device)
        yield Timeout(calib.api_ns)
        rec = self.stream(device).enqueue(
            kernel, config, calib, enqueue_done_ns=self.engine.now
        )
        return rec

    def launch_cooperative_multi_device(
        self,
        kernel: Kernel,
        config: LaunchConfig,
        devices: Optional[Sequence[int]] = None,
    ) -> Generator:
        """``cudaLaunchCooperativeKernelMultiDevice``.

        With the default flags the kernels start together, after *all*
        previous work in every involved stream — the implicit-barrier
        behaviour Section VI-A evaluates.  Yields; returns the list of
        launch records (one per device).
        """
        ids, calib = self._checked_multi_device(config, devices)
        yield Timeout(calib.api_ns)
        enqueue_done = self.engine.now
        common_start = self._common_start(ids, calib, enqueue_done)
        records = [
            self.stream(d).enqueue(
                kernel,
                config,
                calib,
                enqueue_done_ns=enqueue_done,
                n_gpus=len(ids),
                start_override_ns=common_start,
            )
            for d in ids
        ]
        return records

    # The launch checks and the multi-device start, shared with the host
    # timeline replay (repro.cudasim.timeline) so both paths raise alike.

    def _checked_launch(self, config: LaunchConfig, device: int, launch_type: str):
        """Check a ``<<<>>>`` launch; returns its launch type's calibration."""
        dev = self.device(device)
        config.validate(dev.spec)
        return dev.spec.launch_calib(launch_type)

    def _checked_cooperative(self, config: LaunchConfig, device: int):
        """Check a cooperative launch's co-residency; returns its calibration."""
        dev = self.device(device)
        config.validate(dev.spec)
        limit = max_cooperative_blocks(
            dev.spec, config.threads_per_block, config.shared_mem_per_block
        )
        if config.grid_blocks > limit:
            raise CooperativeLaunchTooLarge(
                f"grid of {config.grid_blocks} blocks x "
                f"{config.threads_per_block} threads cannot co-reside on "
                f"{dev.spec.name} (limit {limit} blocks)"
            )
        return dev.spec.launch_calib("cooperative")

    def _checked_multi_device(
        self, config: LaunchConfig, devices: Optional[Sequence[int]]
    ):
        """Check a multi-device launch; returns its device ids and calibration."""
        ids = list(devices) if devices is not None else list(range(self.gpu_count))
        if not ids:
            raise InvalidDevice("multi-device launch needs at least one device")
        for i, d in enumerate(ids):
            if d in ids[:i]:
                raise InvalidDevice(
                    f"device {d} appears more than once in a multi-device launch"
                )
            dev = self.device(d)
            config.validate(dev.spec)
            limit = max_cooperative_blocks(
                dev.spec, config.threads_per_block, config.shared_mem_per_block
            )
            if config.grid_blocks > limit:
                raise CooperativeLaunchTooLarge(
                    f"grid of {config.grid_blocks} blocks cannot co-reside "
                    f"on device {d} ({dev.spec.name}, limit {limit})"
                )
        return ids, self.device(ids[0]).spec.launch_calib("multi_device")

    def _common_start(self, ids: List[int], calib, enqueue_done_ns: float) -> float:
        """Synchronized start: no device starts before every device's own
        pipeline constraint allows it."""
        return max(
            self.stream(d).earliest_start(enqueue_done_ns, calib, n_gpus=len(ids))
            for d in ids
        )

    # -- cooperative groups (repro.sync) ------------------------------------

    def this_grid(self, blocks_per_sm: int, threads_per_block: int,
                  device: int = 0, strategy=None, strategy_knobs=None):
        """``cg::this_grid()``: device-wide group bound to this runtime.

        Performs the co-residency validation a cooperative launch would;
        see :mod:`repro.sync` for the scope/strategy API.  ``strategy``
        accepts a kind string (``"cooperative"``/``"atomic"``/``"cpu"``)
        or a strategy instance; ``strategy_knobs`` tunes a kind string.
        """
        from repro.sync import GridGroup

        return GridGroup(self.device(device).spec, blocks_per_sm,
                         threads_per_block, engine=self.engine,
                         strategy=strategy, strategy_knobs=strategy_knobs)

    def this_multi_grid(self, blocks_per_sm: int, threads_per_block: int,
                        devices: Optional[Sequence[int]] = None, strategy=None,
                        strategy_knobs=None):
        """``cg::this_multi_grid()``: multi-device group over this node
        (default: every GPU), with ``strategy``/``strategy_knobs`` as in
        :meth:`this_grid`."""
        from repro.sync import MultiGridGroup

        return MultiGridGroup(self.node, blocks_per_sm, threads_per_block,
                              gpu_ids=devices, engine=self.engine,
                              strategy=strategy, strategy_knobs=strategy_knobs)

    # -- synchronization -------------------------------------------------------

    def device_synchronize(self, device: int = 0,
                           launch_type: str = "traditional") -> Generator:
        """``cudaDeviceSynchronize``: block until the device drains."""
        dev = self.device(device)
        pending = self.stream(device).pending
        if pending:
            # The stream is in-order, so the last pending completion fires
            # no earlier than every other: wait on it alone rather than
            # fanning an AllOf across the whole queue.
            yield pending[-1]
        yield Timeout(dev.spec.launch_calib(launch_type).sync_return_ns)

    def synchronize_all(self) -> Generator:
        """Synchronize every device (used after multi-device launches)."""
        pending = [s for d in range(self.gpu_count) for s in self.stream(d).pending]
        if pending:
            yield AllOf(pending)
        spec = self.device(0).spec
        yield Timeout(spec.launch_calib("traditional").sync_return_ns)

    # -- driving -----------------------------------------------------------------

    def run_host(self, gen: Generator, name: str = "host"):
        """Run a host program (generator) to completion; returns its value."""
        return self.engine.run_process(gen, name=name)

    def spawn_host(self, gen: Generator, name: str = "host"):
        """Start a host thread without blocking (for OpenMP-style teams)."""
        return self.engine.process(gen, name=name)


# A null cross-GPU calibration for single-GPU runtimes (never exercised).
from repro.sim.arch import CrossGpuCalib as _CrossGpuCalib  # noqa: E402

_NULL_CROSS = _CrossGpuCalib(
    base_ns=0.0,
    per_gpu_ns=0.0,
    hop2_penalty_ns=0.0,
    per_2hop_gpu_ns=0.0,
    release_coef_ns=0.0,
)
