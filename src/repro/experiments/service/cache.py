"""Content-addressed result cache with concurrent-safe claim/publish.

The cache layer of the sweep service.  A finished report is stored under
``(driver id, scenario hash, code version)``; any edit to the ``repro``
package changes :func:`code_version` and therefore every key, so the
cache can never serve results produced by different code.

Many writers may race on one key (shared cache dir, pool workers,
duplicated points across simultaneous sweeps).  A claim file, linked
into place exclusively next to the entry, elects the single computing
writer; everyone else waits for the published result.  Claims are
advisory: a claim whose owning pid is dead (worker crash) or older than
the TTL is *taken over*, and a waiter that exhausts its patience
computes anyway — duplicate work is always preferred over a deadlock.
Corrupt entries are quarantined to ``*.corrupt`` (warned once), never
re-parsed forever.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional, Set, Tuple

from repro.experiments import faults
from repro.experiments.base import ExperimentReport
from repro.experiments.scenario import Scenario

__all__ = [
    "CacheClaim",
    "await_claimed_result",
    "cache_load",
    "cache_path",
    "cache_store",
    "code_version",
    "default_cache_dir",
    "pin_code_version",
]

# -- cache keys ----------------------------------------------------------

_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """Digest of every ``repro`` source file (16 hex digits, memoized).

    Part of the cache key: any edit to the package invalidates every
    cached report, so the cache can never serve results produced by
    different code.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        import repro

        pkg_root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(pkg_root.rglob("*.py")):
            digest.update(str(path.relative_to(pkg_root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _CODE_VERSION = digest.hexdigest()[:16]
    return _CODE_VERSION


def pin_code_version(version: str) -> None:
    """Pin the memo to a version computed elsewhere (pool workers).

    Under the ``spawn`` start method a fresh worker interpreter would
    otherwise recompute the digest from the filesystem mid-run, so a
    source edit during a parallel sweep could split one run across two
    cache keys (and mix results from two code states).
    """
    global _CODE_VERSION
    _CODE_VERSION = version


def default_cache_dir() -> Path:
    """Result-cache directory (override with ``REPRO_EXPERIMENTS_CACHE``)."""
    env = os.environ.get("REPRO_EXPERIMENTS_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-experiments"


def cache_path(
    cache_dir: Path, exp_id: str, scenario: Scenario, version: Optional[str] = None
) -> Path:
    """Entry path of a point under ``version`` (default: this code's)."""
    return cache_dir / f"{exp_id}-{scenario.content_hash}-{version or code_version()}.json"


# Corrupt-entry quarantine: warn once per path per process, and rename
# the bad file out of the key's way so it is recomputed once — not
# silently re-parsed (and re-failed) on every run forever.
_QUARANTINE_WARNED: Set[str] = set()


def _quarantine(path: Path, reason: str) -> None:
    target = path.with_name(path.name + ".corrupt")
    try:
        os.replace(path, target)
        where = f"quarantined to {target.name}"
    except OSError as exc:
        where = f"could not quarantine ({exc})"
    if str(path) not in _QUARANTINE_WARNED:
        _QUARANTINE_WARNED.add(str(path))
        print(
            f"warning: corrupt result cache entry {path} ({reason}); {where}; "
            "the point will be recomputed",
            file=sys.stderr,
        )


def cache_load(path: Path) -> Optional[ExperimentReport]:
    try:
        text = path.read_text()
    except OSError:
        return None  # missing entry -> plain miss
    try:
        return ExperimentReport.from_json(text)
    except (ValueError, KeyError, TypeError) as exc:
        _quarantine(path, f"{type(exc).__name__}: {exc}")
        return None


def cache_store(
    path: Path, report: ExperimentReport, exp_id: str = "", scenario_desc: str = ""
) -> str:
    """Publish ``report`` at ``path``; returns the JSON text written."""
    faults.maybe_fail_cache_write(exp_id, scenario_desc)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = report.to_json()
    # Write-then-rename so concurrent workers never observe a torn file.
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return text


# -- concurrent-safe claim/publish ---------------------------------------

_CLAIM_TTL_S = 600.0  # age past which a claim is stale even if pid unknown
_CLAIM_WAIT_S = 30.0  # max wait on a live claim before computing anyway
_CLAIM_POLL_S = 0.02


class CacheClaim:
    """Advisory exclusive claim electing one computing writer per key."""

    def __init__(self, entry_path: Path):
        self.path = entry_path.with_name(entry_path.name + ".claim")
        self.held = False

    def acquire(self) -> bool:
        """Take the claim; False when a rival already holds it.

        The claim's JSON is written to a temp file first and then
        hard-linked into place, which fails if the claim exists (the
        same exclusivity as ``O_EXCL``).  A rival therefore never reads
        a claim that exists but is still empty, which ``is_stale`` would
        take for a torn file and take over.
        """
        try:
            fd, tmp = tempfile.mkstemp(dir=self.path.parent, suffix=".tmp")
        except OSError:
            return True  # unwritable dir: run uncoordinated (store will warn)
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump({"pid": os.getpid(), "time": time.time()}, fh)
            os.link(tmp, self.path)
        except FileExistsError:
            return False
        except OSError:
            return True  # no hard links here: run uncoordinated
        finally:
            os.unlink(tmp)
        self.held = True
        return True

    def release(self) -> None:
        if self.held:
            try:
                os.unlink(self.path)
            except OSError:
                pass
            self.held = False

    def is_stale(self) -> bool:
        """True when the current holder is provably not coming back."""
        try:
            data = json.loads(self.path.read_text())
        except OSError:
            return False  # claim vanished: holder released it, not stale
        except ValueError:
            return True  # torn claim file: holder died mid-write
        pid = data.get("pid")
        if isinstance(pid, int) and pid > 0:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return True  # owner is gone (crashed worker)
            except OSError:
                pass  # alive but not ours / cross-host: fall through to TTL
        return (time.time() - float(data.get("time", 0.0))) > _CLAIM_TTL_S

    def takeover(self) -> None:
        try:
            os.unlink(self.path)
        except OSError:
            pass


def await_claimed_result(
    path: Path, claim: CacheClaim
) -> Tuple[Optional[ExperimentReport], bool]:
    """Wait for a rival claimant to publish; returns (report, we_claimed).

    Polls until the result appears, the claim goes stale (dead owner ->
    takeover), or patience runs out (compute anyway, unclaimed).  After
    winning the claim the entry is read once more: the holder may have
    published and released between our last miss and our acquire.
    """
    deadline = time.monotonic() + _CLAIM_WAIT_S
    while time.monotonic() < deadline:
        report = cache_load(path)
        if report is not None:
            return report, False
        if not claim.path.exists():
            # Holder released without publishing (its point failed), or
            # published just now: contend for the claim ourselves.
            if claim.acquire():
                return cache_load(path), True
            continue
        if claim.is_stale():
            claim.takeover()
            if claim.acquire():
                return cache_load(path), True
            continue
        time.sleep(_CLAIM_POLL_S)
    return None, False
