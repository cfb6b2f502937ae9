"""Multi-writer stress tests for the O_EXCL cache claim/publish protocol.

Many genuinely concurrent *processes* race on one cache key — the
shared-cache scenario the claim protocol exists for (pool workers,
duplicated points across simultaneous sweeps, one cache dir on a shared
filesystem).  The invariants pinned here:

* **exactly-one-compute** — one racer wins the ``O_EXCL`` claim and runs
  the driver; every other racer is served the published entry;
* **no torn reads** — every racer gets a byte-identical, fully-parsed
  report (write-then-rename publishing means a reader never observes a
  partial entry);
* **no leftovers** — once the race settles, no ``*.claim`` or ``*.tmp``
  files remain;
* **dead-claim takeover** — a claim whose owner pid is gone does not
  wedge the key: the next racer takes the claim over and computes.

The process races are probabilistic; :class:`TestClaimWindows` replays
the two interleavings that once let a second racer compute, one step at
a time.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time

from repro.experiments.scenario import Scenario
from repro.experiments.service import cache, execute_point

SCEN = Scenario(gpus=("V100",))
EXP = "table4"

# A pid that cannot exist: beyond the default pid_max on 64-bit Linux
# (and comfortably beyond any real allocation elsewhere).
DEAD_PID = 2**22 + 12345

# fork: children inherit the imported package, the memoized code version
# and the Barrier — the race starts from identical state, simultaneously.
_CTX = multiprocessing.get_context("fork")


def _racer(barrier, cache_dir, out):
    """One racing process: run the point, report what it observed."""
    _ = barrier.wait()  # stdlib Barrier, not a sync scope (returns arrival index)
    res = execute_point(EXP, SCEN, use_cache=True, cache_dir=cache_dir)
    out.put({
        "pid": os.getpid(),
        "cached": res.cached,
        "ok": res.ok,
        "report": res.report.to_json() if res.report is not None else None,
        "error": res.error,
    })


def _race(tmp_path, racers):
    barrier = _CTX.Barrier(racers)
    out = _CTX.Queue()
    procs = [
        _CTX.Process(target=_racer, args=(barrier, tmp_path, out))
        for _ in range(racers)
    ]
    for p in procs:
        p.start()
    results = [out.get(timeout=120) for _ in procs]
    for p in procs:
        p.join(timeout=120)
        assert p.exitcode == 0
    return results


class TestMultiWriterRace:
    def test_exactly_one_compute_no_torn_reads_no_leftovers(self, tmp_path):
        results = _race(tmp_path, racers=8)
        assert len(results) == 8
        assert all(r["ok"] for r in results), [r["error"] for r in results]

        # Exactly one racer computed; everyone else was served the
        # published entry (cached=True covers both a direct hit and the
        # await-claimed-result path).
        computed = [r for r in results if not r["cached"]]
        assert len(computed) == 1, (
            f"{len(computed)} racers computed; the claim elected no single "
            f"writer"
        )

        # No torn reads: every report parses and all are byte-identical
        # to the computed one.
        reports = {r["report"] for r in results}
        assert len(reports) == 1
        json.loads(reports.pop())  # well-formed JSON

        # The race left no coordination litter behind.
        assert list(tmp_path.glob("*.claim")) == []
        assert list(tmp_path.glob("*.tmp")) == []
        # Exactly the one published entry.
        assert len(list(tmp_path.glob(f"{EXP}-*.json"))) == 1

    def test_repeated_races_stay_single_compute(self, tmp_path):
        # Re-running the race against a now-warm cache must not recompute:
        # every racer is a plain cache hit.
        first = _race(tmp_path, racers=4)
        assert sum(not r["cached"] for r in first) == 1
        second = _race(tmp_path, racers=4)
        assert all(r["cached"] for r in second)
        assert {r["report"] for r in first} == {r["report"] for r in second}


class TestDeadClaimTakeover:
    def _plant_dead_claim(self, tmp_path, pid=DEAD_PID, age=0.0):
        entry = cache.cache_path(tmp_path, EXP, SCEN)
        entry.parent.mkdir(parents=True, exist_ok=True)
        claim = entry.with_name(entry.name + ".claim")
        claim.write_text(json.dumps({"pid": pid, "time": time.time() - age}))
        return entry, claim

    def test_dead_owner_claim_is_taken_over(self, tmp_path):
        # A claim from a crashed worker (pid provably gone) must not
        # block the racers: one takes it over and computes.
        self._plant_dead_claim(tmp_path)
        t0 = time.monotonic()
        results = _race(tmp_path, racers=4)
        elapsed = time.monotonic() - t0
        assert all(r["ok"] for r in results)
        # At least one racer took the claim over and computed.  Exactly
        # one in the common case — but the takeover window (unlink, then
        # O_EXCL re-acquire) is advisory by design: the protocol prefers
        # duplicate work over a wedged key, so a second simultaneous
        # takeover is legal as long as the published result is unique.
        computed = sum(not r["cached"] for r in results)
        assert 1 <= computed <= len(results)
        assert len({r["report"] for r in results}) == 1
        # Takeover is prompt — nobody sat out the 30s claim-wait budget.
        assert elapsed < 25
        assert list(tmp_path.glob("*.claim")) == []

    def test_torn_claim_file_is_taken_over(self, tmp_path):
        # A half-written claim (owner died mid-write) reads as stale.
        entry, claim = self._plant_dead_claim(tmp_path)
        claim.write_text('{"pid": 123')  # torn JSON
        results = _race(tmp_path, racers=2)
        assert all(r["ok"] for r in results)
        assert sum(not r["cached"] for r in results) >= 1
        assert len({r["report"] for r in results}) == 1
        assert list(tmp_path.glob("*.claim")) == []

    def test_is_stale_semantics(self, tmp_path):
        entry, claim_path = self._plant_dead_claim(tmp_path)
        claim = cache.CacheClaim(entry)
        assert claim.is_stale()  # dead pid
        # A live-pid claim is not stale until the TTL passes...
        claim_path.write_text(
            json.dumps({"pid": os.getpid(), "time": time.time()})
        )
        assert not claim.is_stale()
        # ...and ages out past the TTL even when the pid check is moot.
        claim_path.write_text(
            json.dumps(
                {"pid": os.getpid(), "time": time.time() - 2 * 600.0}
            )
        )
        assert claim.is_stale()
        # A vanished claim means "released", not "stale".
        claim_path.unlink()
        assert not claim.is_stale()


class TestClaimWindows:
    """Deterministic replays of the interleavings behind duplicate computes."""

    def test_claim_is_never_visible_before_its_content(
        self, tmp_path, monkeypatch
    ):
        # A rival polling while the claim is being written must see it
        # either absent or complete: an empty claim file reads as torn,
        # and a torn claim is taken over although its owner is alive.
        entry = cache.cache_path(tmp_path, EXP, SCEN)
        rival = cache.CacheClaim(entry)
        seen = []
        real_dump = json.dump

        def dump_and_let_rival_look(obj, fh, *args, **kwargs):
            seen.append(rival.is_stale())
            return real_dump(obj, fh, *args, **kwargs)

        monkeypatch.setattr(json, "dump", dump_and_let_rival_look)
        claim = cache.CacheClaim(entry)
        assert claim.acquire()
        assert seen == [False]
        assert not rival.is_stale() and not rival.acquire()
        claim.release()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_entry_published_between_miss_and_acquire_is_served(
        self, tmp_path, monkeypatch
    ):
        # The winner publishes and releases its claim after our cache
        # miss but before our acquire: the acquire succeeds, and the
        # point must still be served from the cache, not recomputed.
        winner = execute_point(EXP, SCEN, use_cache=False)
        entry = cache.cache_path(tmp_path, EXP, SCEN)
        real_acquire = cache.CacheClaim.acquire

        def acquire_after_winner(claim):
            cache.cache_store(entry, winner.report)
            return real_acquire(claim)

        monkeypatch.setattr(cache.CacheClaim, "acquire", acquire_after_winner)
        res = execute_point(EXP, SCEN, use_cache=True, cache_dir=tmp_path)
        assert res.ok and res.cached
        assert res.report.to_json() == winner.report.to_json()
        assert list(tmp_path.glob("*.claim")) == []
