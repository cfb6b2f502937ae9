"""GPU simulator substrate: engine, clocks, architectures, devices, nodes.

Import from the submodules (``repro.sim.arch``, ``repro.sim.engine``,
``repro.sim.node``, ...): the package itself loads nothing, so code that
only needs, say, the architecture specs or the interconnect does not pay
for the engine and numpy.
"""
