"""ASCII table rendering for experiment reports.

The renderer consumes the same JSON-able row structures the experiment
pipeline produces (:meth:`ExperimentReport.to_dict` rows), so the CLI's
ASCII output and its ``--json`` output are two views of one data shape.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

__all__ = ["render_table", "format_value"]


def format_value(v, precision: int = 2) -> str:
    """Human-friendly cell formatting (numbers trimmed, bools as marks)."""
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 10000:
            return f"{v:,.0f}"
        if abs(v) >= 100:
            return f"{v:.1f}"
        return f"{v:.{precision}f}"
    return str(v)


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence],
    title: Optional[str] = None,
    precision: int = 2,
) -> str:
    """Render rows as a boxed fixed-width table."""
    cells = [[format_value(c, precision) for c in row] for row in rows]
    widths = [
        max(len(str(h)), *(len(r[i]) for r in cells)) if cells else len(str(h))
        for i, h in enumerate(headers)
    ]

    def line(ch: str = "-", joint: str = "+") -> str:
        return joint + joint.join(ch * (w + 2) for w in widths) + joint

    def fmt_row(row: Sequence[str]) -> str:
        return "| " + " | ".join(str(c).rjust(w) for c, w in zip(row, widths)) + " |"

    out: List[str] = []
    if title:
        out.append(title)
    out.append(line())
    out.append(fmt_row([str(h) for h in headers]))
    out.append(line("="))
    for row in cells:
        out.append(fmt_row(row))
    out.append(line())
    return "\n".join(out)
