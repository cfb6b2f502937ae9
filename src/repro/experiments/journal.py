"""Append-only sweep journal: durable progress records + resume.

A sweep that dies halfway — machine reboot, OOM killer, ctrl-C — should
not cost the points that already finished.  The runner therefore writes
an append-only JSONL journal next to the result cache: one ``sweep``
header naming every (experiment, scenario) point of the run, then one
``start`` / ``finish`` / ``fail`` record per point attempt, flushed as
it happens.  ``repro-experiments --resume <journal>`` replays the sweep
from that file: the point list is reconstructed from the header, points
with a ``finish`` record are served from the result cache (their driver
is not re-invoked), and only unfinished or failed points execute again.

Records are one JSON object per line.  Only the sweep's parent process
writes (pool workers never touch the journal), so lines are never
interleaved; a crash mid-write can at worst tear the final line, which
:func:`load_journal` tolerates by ignoring a trailing partial record.

Record shapes::

    {"event": "sweep", "points": [{"exp_id": ..., "scenario": {...}}, ...],
     "code_version": "...", "jobs": N}
    {"event": "start",  "index": i, "exp_id": ..., "attempt": n}
    {"event": "finish", "index": i, "exp_id": ..., "attempts": n,
     "cached": bool}
    {"event": "fail",   "index": i, "exp_id": ..., "attempt": n,
     "kind": "error|transient|crash|timeout", "error": "last line"}

A journal may hold several ``sweep`` headers (each resume appends a new
one); the **last** header defines the point list, and only records after
it count — earlier generations are history, kept for forensics.
Fields a reader does not know are ignored, so journals written by
older versions, which carried more fields, still load and resume.
:func:`compact_journal` rewrites a grown journal down to that live
state: the last header plus one final record per point.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.experiments.scenario import Scenario

__all__ = [
    "SweepJournal",
    "JournalState",
    "compact_journal",
    "load_journal",
    "default_journal_path",
]

DEFAULT_BASENAME = "sweep-journal.jsonl"


def default_journal_path(cache_dir: Path) -> Path:
    """The journal the CLI writes when none is named: next to the cache."""
    return Path(cache_dir) / DEFAULT_BASENAME


class SweepJournal:
    """Append-only writer for one sweep's progress records.

    Journal I/O must never take a sweep down: if the file cannot be
    opened or a record cannot be written, the journal degrades to a
    one-time stderr warning and subsequent writes become no-ops — the
    sweep itself is unaffected (it just loses resumability).
    """

    def __init__(self, path: Path):
        self.path = Path(path)
        self._fh = None
        self._dead = False

    def _open(self):
        if self._fh is None and not self._dead:
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fh = open(self.path, "a", encoding="utf-8")
            except OSError as exc:
                self._dead = True
                print(
                    f"warning: could not open sweep journal {self.path}: {exc}"
                    " (continuing without resume support)",
                    file=sys.stderr,
                )
        return self._fh

    def _write(self, record: Dict[str, Any]) -> None:
        fh = self._open()
        if fh is None:
            return
        try:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        except (OSError, ValueError) as exc:
            self._dead = True
            print(
                f"warning: sweep journal write failed ({exc}); "
                "continuing without resume support",
                file=sys.stderr,
            )

    # -- record emitters -------------------------------------------------

    def sweep_start(
        self,
        points: Sequence[Tuple[str, Scenario]],
        code_version: str,
        jobs: int,
    ) -> None:
        self._write(
            {
                "event": "sweep",
                "points": [
                    {"exp_id": e, "scenario": s.to_dict()} for e, s in points
                ],
                "code_version": code_version,
                "jobs": jobs,
            }
        )

    def point_start(self, index: int, exp_id: str, attempt: int) -> None:
        self._write(
            {"event": "start", "index": index, "exp_id": exp_id,
             "attempt": attempt}
        )

    def point_finish(
        self, index: int, exp_id: str, attempts: int, cached: bool
    ) -> None:
        self._write(
            {"event": "finish", "index": index, "exp_id": exp_id,
             "attempts": attempts, "cached": cached}
        )

    def point_fail(
        self, index: int, exp_id: str, attempt: int, kind: str, error: str
    ) -> None:
        # Keep the journal line-oriented and light: last traceback line
        # only (the full traceback lives in the PointResult / stderr).
        last = (error or "").strip().splitlines()
        self._write(
            {"event": "fail", "index": index, "exp_id": exp_id,
             "attempt": attempt, "kind": kind,
             "error": last[-1] if last else ""}
        )

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None


@dataclass
class JournalState:
    """Parsed view of a journal's most recent sweep generation."""

    points: List[Tuple[str, Scenario]] = field(default_factory=list)
    code_version: Optional[str] = None
    finished: Set[int] = field(default_factory=set)
    failed: Dict[int, str] = field(default_factory=dict)  # index -> kind
    started: Set[int] = field(default_factory=set)
    jobs: Optional[int] = None  # sweep header's --jobs

    @property
    def unfinished(self) -> List[int]:
        """Point indices resume must execute (everything not finished)."""
        return [i for i in range(len(self.points)) if i not in self.finished]


def _read_records(path: Path) -> List[Tuple[str, Dict[str, Any]]]:
    """Parse a journal's lines, tolerating a torn *final* line.

    Returns (raw line, parsed record) pairs so callers that rewrite the
    journal (compaction) can preserve surviving lines byte for byte.
    Raises ``ValueError`` for an unreadable file or torn interior lines.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read sweep journal {path}: {exc}") from None
    lines = text.splitlines()
    records: List[Tuple[str, Dict[str, Any]]] = []
    for lineno, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            records.append((line, json.loads(line)))
        except ValueError:
            if lineno == len(lines) - 1:
                break  # torn final line: the crash the journal is for
            raise ValueError(
                f"corrupt sweep journal {path}: bad record on line {lineno + 1}"
            ) from None
    return records


def load_journal(path: Path) -> JournalState:
    """Parse a journal into the state of its latest sweep generation.

    Raises ``ValueError`` for a journal that is unreadable, holds no
    sweep header, or references points that no longer parse — resuming
    from a bad journal must fail loudly, not quietly run nothing.  A
    torn *final* line (crash mid-append) is tolerated; torn interior
    lines are corruption and raise.

    A point's latest record decides whether it counts as failed: the
    ``start`` of its next attempt, like a ``finish``, clears a ``fail``.
    """
    records = [rec for _, rec in _read_records(path)]

    last_header = None
    for i, rec in enumerate(records):
        if rec.get("event") == "sweep":
            last_header = i
    if last_header is None:
        raise ValueError(f"sweep journal {path} has no sweep header record")

    header = records[last_header]
    state = JournalState(code_version=header.get("code_version"))
    jobs = header.get("jobs")
    state.jobs = jobs if isinstance(jobs, int) else None
    try:
        state.points = [
            (p["exp_id"], Scenario.from_dict(p["scenario"]))
            for p in header["points"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"sweep journal {path} holds unparseable points: {exc}"
        ) from None

    for rec in records[last_header + 1:]:
        event = rec.get("event")
        index = rec.get("index")
        if not isinstance(index, int) or not 0 <= index < len(state.points):
            continue  # stale/foreign record: ignore rather than die
        if event == "start":
            state.started.add(index)
            state.failed.pop(index, None)
        elif event == "finish":
            state.finished.add(index)
            state.failed.pop(index, None)
        elif event == "fail":
            state.failed[index] = str(rec.get("kind", "error"))
    return state


def compact_journal(path: Path) -> Tuple[int, int]:
    """Rewrite a journal down to its live state; returns (before, after).

    An append-only journal grows without bound — every retry appends,
    every resume appends a fresh header plus the whole replay.  Only the
    *last* sweep header and each point's latest state matter for resume,
    so compaction keeps exactly that: the last header, then per point
    its last ``start`` record and its final outcome
    (last ``finish``, else last ``fail``), in original order.
    Superseded attempt records, earlier generations and a torn final
    line are dropped.  The rewrite goes through a temp file +
    ``os.replace`` so a crash mid-compaction leaves the original journal
    intact; surviving lines are preserved byte for byte, so
    ``load_journal`` sees the identical state before and after.
    """
    records = _read_records(path)
    total = len(records)

    last_header = None
    for i, (_, rec) in enumerate(records):
        if rec.get("event") == "sweep":
            last_header = i
    if last_header is None:
        raise ValueError(f"sweep journal {path} has no sweep header record")
    header_pos, (header_line, header) = last_header, records[last_header]
    n_points = len(header.get("points") or [])

    # Per point: position of its last start, last finish, last fail.
    last_of: Dict[Tuple[int, str], int] = {}  # (index, event) -> position
    for pos in range(header_pos + 1, total):
        _, rec = records[pos]
        event = rec.get("event")
        index = rec.get("index")
        if event not in ("start", "finish", "fail"):
            continue
        if not isinstance(index, int) or not 0 <= index < n_points:
            continue
        last_of[(index, event)] = pos

    keep_positions = set()
    for index in range(n_points):
        start = last_of.get((index, "start"))
        if start is not None:
            keep_positions.add(start)
        finish = last_of.get((index, "finish"))
        fail = last_of.get((index, "fail"))
        outcome = finish if finish is not None else fail
        if outcome is not None:
            keep_positions.add(outcome)

    kept = [header_line] + [records[pos][0] for pos in sorted(keep_positions)]
    fd, tmp = tempfile.mkstemp(dir=Path(path).parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write("\n".join(kept) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return total, len(kept)
