"""Property-based barrier-semantics laws for every SyncScope implementation.

Three laws, checked with hypothesis across scope kinds, participant counts
and round counts:

1. **Exactly-once release** — every participant completes every round
   exactly once (no lost or duplicated wake-ups in the release wavefront).
2. **Round ordering** — no participant observes round ``r+1``'s release
   before every participant has completed round ``r`` (barrier rounds are
   totally ordered; a barrier that lets a fast member lap the group is
   not a barrier).
3. **Latency monotonicity** — per-sync latency is non-decreasing in the
   participant count, along each scope's natural participant axis.

Laws 1 and 2 are laws of the event protocol, so they run on the engine.
The default backend matches it float for float wherever it takes the
closed forms (``tests/sim/test_backend_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.arch import DGX1_V100, P100, V100
from repro.sim.engine import use_backend
from repro.sim.node import Node
from repro.sync import (
    BlockGroup,
    GridGroup,
    HostBarrierGroup,
    MultiGridGroup,
    WarpGroup,
)

specs = st.sampled_from([V100, P100])
n_rounds = st.integers(min_value=1, max_value=4)


def make_scope(kind: str, spec, participants: int):
    """Build one scope with ``participants`` members on its natural axis."""
    if kind == "warp":
        return WarpGroup(spec, size=participants)
    if kind == "block":
        return BlockGroup(spec, warps_per_block=participants)
    if kind == "grid":
        # participants blocks via the sm_count override (1 block/SM).
        return GridGroup(spec, 1, 64, sm_count=participants)
    if kind == "multigrid":
        # An 8-GPU node of the drawn architecture: the DGX-1 box for
        # V100, and the same box re-specced with P100s (a beyond-paper
        # platform, as scenario sweeps allow) so the barrier laws also
        # cover the P100 multi-grid calibration.
        node_spec = DGX1_V100 if spec is V100 else replace(DGX1_V100, gpu=P100)
        return MultiGridGroup(
            Node(node_spec, gpu_count=8), 1, 64, gpu_ids=range(participants)
        )
    if kind == "host":
        return HostBarrierGroup(participants, DGX1_V100.omp_barrier_ns(participants))
    raise AssertionError(kind)


SCOPE_KINDS = ("warp", "block", "grid", "multigrid", "host")
kinds = st.sampled_from(SCOPE_KINDS)
participant_counts = st.integers(min_value=1, max_value=8)


class TestReleaseSemantics:
    @given(kinds, specs, participant_counts, n_rounds)
    @settings(max_examples=60, deadline=None)
    def test_every_participant_released_exactly_once_per_round(
        self, kind, spec, participants, rounds
    ):
        scope = make_scope(kind, spec, participants)
        with use_backend("engine"):
            run = scope.run_rounds(n_syncs=rounds)
        assert scope.rounds_released == rounds
        for member in run.members:
            releases = run.releases_of(member)
            # exactly one completion per round ...
            assert len(releases) == rounds
            # ... at strictly increasing times (no duplicated wake-ups).
            assert all(a < b for a, b in zip(releases, releases[1:]))

    @given(kinds, specs, participant_counts, n_rounds)
    @settings(max_examples=60, deadline=None)
    def test_round_ordering_preserved_across_participants(
        self, kind, spec, participants, rounds
    ):
        """No member may enter round r+1 before every member finished r."""
        scope = make_scope(kind, spec, participants)
        with use_backend("engine"):
            run = scope.run_rounds(n_syncs=rounds)
        for r in range(rounds - 1):
            last_of_round = max(run.release_ns[(m, r)] for m in run.members)
            first_of_next = min(run.release_ns[(m, r + 1)] for m in run.members)
            assert first_of_next >= last_of_round

    @given(kinds, specs, st.integers(min_value=2, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_missing_participant_hangs_counted_scopes(
        self, kind, spec, participants
    ):
        """Section VIII-B, uniformly: a strict subset of any arrival-counted
        scope leaves the barrier waiting forever."""
        from repro.sim.engine import DeadlockError

        scope = make_scope(kind, spec, participants)
        with pytest.raises(DeadlockError):
            scope.run_rounds(n_syncs=1, members=range(participants - 1))


class TestLatencyMonotonicity:
    @given(kinds, specs, st.integers(min_value=1, max_value=7), n_rounds)
    @settings(max_examples=60, deadline=None)
    def test_simulated_latency_non_decreasing_in_participants(
        self, kind, spec, participants, rounds
    ):
        smaller = make_scope(kind, spec, participants)
        larger = make_scope(kind, spec, participants + 1)
        t_small = smaller.run_rounds(n_syncs=rounds).total_ns
        t_large = larger.run_rounds(n_syncs=rounds).total_ns
        assert t_large >= t_small * (1.0 - 1e-12)

    @given(kinds, specs, st.integers(min_value=1, max_value=7))
    @settings(max_examples=60, deadline=None)
    def test_latency_model_non_decreasing_in_participants(
        self, kind, spec, participants
    ):
        assert (
            make_scope(kind, spec, participants + 1).latency_model()
            >= make_scope(kind, spec, participants).latency_model() * (1.0 - 1e-12)
        )
