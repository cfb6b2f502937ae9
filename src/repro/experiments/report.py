"""Generate EXPERIMENTS.md: the paper-vs-measured record for every artifact.

``python -m repro.experiments.report [path] [--jobs N]`` runs the full
registry through the sweep service (parallel + cached like the CLI)
and writes a markdown report with one section per table/figure, comparison
tables, and the rendered ASCII artifacts.  Sections render from the same
JSON-able report structures the cache and ``--json`` output carry, so a
document built from cached reports is byte-identical to a fresh one.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import List, Optional

from repro.experiments.base import ExperimentReport
from repro.viz.tables import render_markdown_table

__all__ = ["experiments_markdown", "write_experiments_md"]

_HEADER = """\
# EXPERIMENTS — paper vs. measured

Reproduction record for every table and figure of *"A Study of Single and
Multi-device Synchronization Methods in Nvidia GPUs"* (Zhang et al., 2020),
regenerated on the simulated P100 / V100 / DGX-1 machines (see
docs/calibration.md for where each calibration constant comes from).

Regenerate with:

```bash
repro-experiments            # full report to stdout
python -m repro.experiments.report EXPERIMENTS.md
python3 perfbench/run.py --workload registry-cold   # timed, outputs checked
```

Absolute agreement is expected here because the substrate is calibrated to
the paper — the meaningful content is (a) that the *measurement
methodologies* recover the calibration through the same protocols the paper
used, and (b) that the *structural* results (saturation points, heat-map
shapes, plateaus, crossovers, deadlock matrix) emerge from mechanism, not
lookup.  Per-experiment error summaries quantify both.
"""


def _section(report: ExperimentReport) -> str:
    lines = [f"## {report.exp_id}: {report.title}", ""]
    if report.rows:
        cells = []
        for r in report.rows:
            paper = "-" if r.paper is None else f"{r.paper:g}"
            measured = "-" if r.measured is None else f"{r.measured:.4g}"
            err = "-" if r.rel_err is None else f"{r.rel_err:+.1%}"
            cells.append([r.label, paper, measured, r.unit, err])
        lines.append(
            render_markdown_table(
                ["metric", "paper", "measured", "unit", "err"],
                cells,
                align=["left", "right", "right", "left", "right"],
            )
        )
        lines.append("")
    if report.mean_rel_err is not None:
        lines.append(
            f"**Summary:** mean |err| {report.mean_rel_err:.1%}, "
            f"max |err| {report.max_rel_err:.1%}"
        )
        lines.append("")
    for note in report.notes:
        lines.append(f"> {note}")
        lines.append("")
    for artifact in report.artifacts:
        lines.append("```text")
        lines.append(artifact)
        lines.append("```")
        lines.append("")
    return "\n".join(lines)


def experiments_markdown(
    reports: Optional[List[ExperimentReport]] = None,
    jobs: int = 1,
    use_cache: bool = True,
) -> str:
    """Render the full markdown document (runs the registry by default)."""
    if reports is None:
        from repro.experiments.service import run_all

        reports = run_all(jobs=jobs, use_cache=use_cache)
    parts = [_HEADER]
    overall = [r.mean_rel_err for r in reports if r.mean_rel_err is not None]
    parts.append(
        f"Overall: {len(reports)} experiments; "
        f"mean |err| across experiments "
        f"{sum(overall) / len(overall):.1%}.\n"
    )
    for report in reports:
        parts.append(_section(report))
    return "\n".join(parts)


def write_experiments_md(
    path: str | Path = "EXPERIMENTS.md", jobs: int = 1, use_cache: bool = True
) -> Path:
    """Run everything and write the report; returns the path."""
    out = Path(path)
    t0 = time.time()
    text = experiments_markdown(jobs=jobs, use_cache=use_cache)
    text += f"\n---\n*Generated in {time.time() - t0:.1f} s of simulation.*\n"
    out.write_text(text)
    return out


if __name__ == "__main__":  # pragma: no cover
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("path", nargs="?", default="EXPERIMENTS.md")
    parser.add_argument("--jobs", type=int, default=1, metavar="N")
    parser.add_argument("--no-cache", action="store_true")
    ns = parser.parse_args()
    print(
        f"wrote {write_experiments_md(ns.path, jobs=ns.jobs, use_cache=not ns.no_cache)}"
    )
