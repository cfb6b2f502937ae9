"""Experiment report infrastructure.

Every table/figure of the paper has a driver returning an
:class:`ExperimentReport`: comparison rows of *paper vs measured* plus any
rendered artifacts (heat-maps, series).  The registry in
:mod:`repro.experiments.registry` maps experiment ids to drivers; the CLI
walks it.  A report renders one way, :meth:`ExperimentReport.render`;
``--json`` carries the same structure as data.

Reports are **losslessly JSON-able** (:meth:`ExperimentReport.to_json` /
:meth:`ExperimentReport.from_json`): floats round-trip exactly via their
``repr``, so the on-disk result cache and ``--json`` machine output carry
the same bits the drivers produced — a cached report renders byte-identical
to a fresh one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.viz.tables import render_table

__all__ = ["ComparisonRow", "ExperimentReport", "merge_reports"]


@dataclass(frozen=True)
class ComparisonRow:
    """One paper-vs-measured comparison."""

    label: str
    paper: Optional[float]
    measured: Optional[float]
    unit: str = ""
    note: str = ""

    @property
    def rel_err(self) -> Optional[float]:
        if self.paper is None or self.measured is None or self.paper == 0:
            return None
        return (self.measured - self.paper) / self.paper

    def to_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "paper": self.paper,
            "measured": self.measured,
            "unit": self.unit,
            "note": self.note,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ComparisonRow":
        return cls(
            label=data["label"],
            paper=data["paper"],
            measured=data["measured"],
            unit=data.get("unit", ""),
            note=data.get("note", ""),
        )


@dataclass
class ExperimentReport:
    """Structured outcome of one experiment driver.

    ``scenario`` records the scenario the driver ran against (its
    ``to_dict`` form; a merged report carries one entry per point under
    ``{"points": [...]}``), the requested backend included.  It is
    provenance only — :meth:`render` does not display it, so the
    bookkeeping never perturbs the rendered paper artifacts.
    """

    exp_id: str
    title: str
    rows: List[ComparisonRow] = field(default_factory=list)
    artifacts: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    scenario: Optional[Dict[str, Any]] = None
    #: Sanitizer payload when the run was sanitized (mode, event counts,
    #: findings — :meth:`repro.sanitize.SanitizerSession.summary`); ``None``
    #: (omitted from JSON) on unsanitized runs.
    sanitizer: Optional[Dict[str, Any]] = None

    def add(
        self,
        label: str,
        paper: Optional[float],
        measured: Optional[float],
        unit: str = "",
        note: str = "",
    ) -> None:
        self.rows.append(ComparisonRow(label, paper, measured, unit, note))

    def add_artifact(self, text: str) -> None:
        self.artifacts.append(text)

    @property
    def mean_rel_err(self) -> Optional[float]:
        errs = [abs(r.rel_err) for r in self.rows if r.rel_err is not None]
        return sum(errs) / len(errs) if errs else None

    @property
    def max_rel_err(self) -> Optional[float]:
        errs = [abs(r.rel_err) for r in self.rows if r.rel_err is not None]
        return max(errs) if errs else None

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-native representation (used by the cache and ``--json``)."""
        data = {
            "exp_id": self.exp_id,
            "title": self.title,
            "rows": [r.to_dict() for r in self.rows],
            "artifacts": list(self.artifacts),
            "notes": list(self.notes),
            "scenario": self.scenario,
            "mean_rel_err": self.mean_rel_err,
            "max_rel_err": self.max_rel_err,
        }
        # Omitted when unset so unsanitized reports keep their bytes (the
        # same contract as scenario knobs).
        if self.sanitizer is not None:
            data["sanitizer"] = self.sanitizer
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentReport":
        return cls(
            exp_id=data["exp_id"],
            title=data["title"],
            rows=[ComparisonRow.from_dict(r) for r in data.get("rows", ())],
            artifacts=list(data.get("artifacts", ())),
            notes=list(data.get("notes", ())),
            scenario=data.get("scenario"),
            sanitizer=data.get("sanitizer"),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        """Lossless JSON: ``json`` serializes floats via ``repr``, which
        Python guarantees round-trips every finite float exactly."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentReport":
        return cls.from_dict(json.loads(text))

    # -- rendering -------------------------------------------------------

    def render(self) -> str:
        """Full ASCII report: comparison table, then artifacts and notes."""
        table_rows = [
            [
                r.label,
                r.paper,
                r.measured,
                r.unit,
                "-" if r.rel_err is None else f"{r.rel_err:+.1%}",
                r.note,
            ]
            for r in self.rows
        ]
        parts = [
            render_table(
                ["metric", "paper", "measured", "unit", "err", "note"],
                table_rows,
                title=f"[{self.exp_id}] {self.title}",
            )
        ]
        for artifact in self.artifacts:
            parts.append("")
            parts.append(artifact)
        for note in self.notes:
            parts.append(f"note: {note}")
        if self.sanitizer is not None:
            findings = self.sanitizer.get("findings", [])
            parts.append(
                f"sanitizer[{self.sanitizer.get('mode', '?')}]: "
                f"{len(findings)} finding(s), "
                f"{self.sanitizer.get('events', 0)} events"
            )
            for f in findings:
                parts.append(
                    f"  [{f.get('rule', '?')}] {f.get('severity', '?')}: "
                    f"{f.get('message', '')}"
                )
        if self.mean_rel_err is not None:
            parts.append(
                f"summary: mean |err| {self.mean_rel_err:.1%}, "
                f"max |err| {self.max_rel_err:.1%}"
            )
        return "\n".join(parts)


def merge_reports(
    exp_id: str, title: str, reports: List[ExperimentReport]
) -> ExperimentReport:
    """Merge per-scenario reports into one experiment report.

    Rows and artifacts concatenate in the given (deterministic) scenario
    order; notes are deduplicated preserving first occurrence, since a note
    shared by every per-scenario run (a qualitative observation about the
    experiment as a whole) should appear once, not once per scenario.
    """
    if not reports:
        raise ValueError(f"no reports to merge for {exp_id!r}")
    merged = ExperimentReport(exp_id, title)
    for rep in reports:
        merged.rows.extend(rep.rows)
        merged.artifacts.extend(rep.artifacts)
        merged.notes.extend(n for n in rep.notes if n not in merged.notes)
    merged.scenario = {
        "points": [rep.scenario for rep in reports if rep.scenario is not None]
    }
    sanitized = [rep.sanitizer for rep in reports if rep.sanitizer is not None]
    if sanitized:
        modes = {s.get("mode") for s in sanitized}
        merged.sanitizer = {
            "mode": modes.pop() if len(modes) == 1 else "mixed",
            "events": sum(s.get("events", 0) for s in sanitized),
            "dropped": sum(s.get("dropped", 0) for s in sanitized),
            "scopes": sum(s.get("scopes", 0) for s in sanitized),
            "findings": [f for s in sanitized for f in s.get("findings", ())],
        }
    return merged
