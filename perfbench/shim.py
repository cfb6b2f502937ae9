"""Run ``repro-experiments`` in a fresh interpreter, stopped early or traced.

Usage: ``python perfbench/shim.py setup|trace CLI-ARGS...`` with ``src``
on ``PYTHONPATH``.

``setup``
    Runs the real CLI up to the point where the sweep would start:
    import, argument parsing, the point list and ``code_version()``.
    The sweep service returns no results, so nothing is dispatched.
``trace``
    Runs the real CLI with every layer wrapped by :mod:`tracer`; each
    process writes its spans to ``$PERFBENCH_TRACE_DIR``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from typing import Any, List


def _setup(argv: List[str]) -> int:
    from repro.experiments import cli
    from repro.experiments.service import SweepService, cache

    def stop_before_dispatch(self: Any, points: Any) -> list:
        cache.code_version()
        return []

    SweepService.run = stop_before_dispatch  # type: ignore[method-assign]
    return cli.main(argv)


def _trace(argv: List[str]) -> int:
    from repro.experiments import cli
    from tracer import Tracer, install

    tracer = Tracer(Path(os.environ["PERFBENCH_TRACE_DIR"]))
    install(tracer)
    try:
        return tracer.wrap("cli.main", cli.main)(argv)
    finally:
        tracer.flush()


if __name__ == "__main__":
    mode, args = sys.argv[1], sys.argv[2:]
    sys.exit({"setup": _setup, "trace": _trace}[mode](args))
