"""Tests for single-GPU device-wide reductions (Figs 13-15, Table VI)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.paper_data import TABLE6_GBPS
from repro.reduction import device
from repro.reduction.baselines import reduce_cub, reduce_cuda_sample
from repro.reduction.device import (
    FIG15_SIZES_P100,
    FIG15_SIZES_V100,
    MATERIALIZE_LIMIT_BYTES,
    REDUCTION_METHODS,
    VirtualData,
    bandwidth_table,
    latency_vs_size,
    make_input,
    reduce_grid_sync,
    reduce_implicit,
)
from repro.util.units import GB, MB

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


class TestVirtualData:
    def test_expected_sum_matches_materialized(self):
        vd = VirtualData(n_elements=1000)
        chunk = vd.chunk(0, 1000)
        assert vd.expected_sum == pytest.approx(chunk.sum())

    @given(st.integers(min_value=1, max_value=100_000))
    @settings(max_examples=60, deadline=None)
    def test_closed_form_for_any_size(self, n):
        vd = VirtualData(n_elements=n)
        assert vd.expected_sum == pytest.approx(vd.chunk(0, n).sum())

    def test_chunk_windows_consistent(self):
        vd = VirtualData(n_elements=500)
        full = vd.chunk(0, 500)
        part = np.concatenate([vd.chunk(0, 200), vd.chunk(200, 300)])
        np.testing.assert_array_equal(full, part)

    def test_nbytes(self):
        assert VirtualData(n_elements=100).nbytes == 800

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            VirtualData(n_elements=0)


class TestMakeInput:
    def test_small_sizes_materialize(self):
        assert isinstance(make_input(MATERIALIZE_LIMIT_BYTES), np.ndarray)
        assert isinstance(make_input(MATERIALIZE_LIMIT_BYTES + 8), VirtualData)

    def test_fig15_first_sizes_materialize(self):
        # One real input per method per GPU behind fig15's correct-sums rows.
        for size in (FIG15_SIZES_V100[0], FIG15_SIZES_P100[0]):
            assert isinstance(make_input(size), np.ndarray)

    @pytest.mark.parametrize("size", [0, -1024])
    def test_sizes_below_one_byte_rejected(self, size):
        with pytest.raises(ValueError, match="size_bytes"):
            make_input(size)

    def test_sub_element_sizes_round_up(self):
        for size in range(1, 8):
            assert make_input(size).nbytes == 8

    def test_large_sizes_virtual(self):
        data = make_input(1 * GB)
        assert isinstance(data, VirtualData)

    def test_seed_reproducible(self):
        a, b = make_input(1024, seed=1), make_input(1024, seed=1)
        np.testing.assert_array_equal(a, b)


class TestImplicitReduction:
    def test_correct_on_real_data(self, spec):
        data = np.random.default_rng(2).uniform(size=4 * MB // 8)
        r = reduce_implicit(spec, data)
        assert r.correct
        assert r.value == pytest.approx(float(data.sum()))

    def test_correct_on_virtual_data(self, spec):
        r = reduce_implicit(spec, VirtualData(n_elements=10**8))
        assert r.correct

    def test_bandwidth_approaches_calibrated_at_large_sizes(self, spec):
        r = reduce_implicit(spec, make_input(4 * GB))
        assert r.bandwidth_gbps == pytest.approx(
            spec.hbm.effective_gbps("implicit"), rel=0.02
        )

    def test_latency_floor_at_tiny_sizes(self, spec):
        r = reduce_implicit(spec, make_input(1024))
        # Two launches and a sync: floor in the tens of microseconds.
        assert 10.0 < r.latency_us < 30.0

    @given(st.integers(min_value=8, max_value=100_000))
    @settings(max_examples=20, deadline=None)
    def test_correct_for_any_small_size(self, nbytes):
        from repro.sim.arch import P100, V100

        for spec in (V100, P100):
            r = reduce_implicit(spec, make_input(nbytes, seed=nbytes))
            assert r.correct


class TestGridSyncReduction:
    def test_correct(self, spec):
        data = np.random.default_rng(5).uniform(size=4 * MB // 8)
        r = reduce_grid_sync(spec, data)
        assert r.correct

    def test_rejects_non_coresident_config(self, spec):
        with pytest.raises(ValueError):
            reduce_grid_sync(spec, make_input(1 * MB), threads_per_block=1024,
                             blocks_per_sm=4)

    def test_implicit_beats_grid_at_all_sizes(self, spec):
        """Fig 15's headline: implicit always outperforms grid sync."""
        for size in (int(0.1 * MB), 10 * MB, 1 * GB):
            data = make_input(size)
            impl = reduce_implicit(spec, data)
            grid = reduce_grid_sync(spec, data)
            assert impl.total_ns <= grid.total_ns * 1.005, size

    def test_gap_is_not_decisive(self, spec):
        """...but 'the performance difference is not so decisive'."""
        data = make_input(1 * GB)
        impl = reduce_implicit(spec, data)
        grid = reduce_grid_sync(spec, data)
        assert grid.total_ns < impl.total_ns * 1.10


class TestBaselines:
    def test_cub_correct(self, spec):
        data = np.random.default_rng(7).uniform(size=2 * MB // 8)
        r = reduce_cub(spec, data)
        assert r.correct and r.method == "cub"

    def test_sample_correct(self, spec):
        data = np.random.default_rng(8).uniform(size=2 * MB // 8)
        r = reduce_cuda_sample(spec, data)
        assert r.correct and r.method == "cuda_sample"

    def test_cub_pascal_bandwidth_deficit(self, p100, v100):
        data = make_input(1 * GB)
        for spec, lo, hi in ((p100, 0.89, 0.95), (v100, 0.96, 1.0)):
            cub = reduce_cub(spec, data)
            impl = reduce_implicit(spec, data)
            ratio = cub.bandwidth_gbps / impl.bandwidth_gbps
            assert lo < ratio < hi


class TestTableVI:
    def test_bandwidths_match_paper(self, spec):
        rows = bandwidth_table(spec)
        for method, measured in rows.items():
            paper = TABLE6_GBPS[spec.name][method]
            assert measured == pytest.approx(paper, rel=0.03), method

    def test_ordering_matches_paper(self, spec):
        rows = bandwidth_table(spec)
        assert rows["implicit"] >= rows["grid"] >= rows["cub"]
        assert rows["implicit"] < rows["theory"]


class TestFig15Sweep:
    def test_latency_monotone_in_size(self, v100):
        res = latency_vs_size(v100, methods=("implicit",), sizes=(MB, 16 * MB, GB))
        lats = [r.total_ns for r in res["implicit"]]
        assert lats == sorted(lats)

    def test_all_methods_all_sizes_correct(self, v100):
        res = latency_vs_size(v100, sizes=(MATERIALIZE_LIMIT_BYTES, 64 * MB))
        assert all(r.correct for series in res.values() for r in series)

    def test_results_equal_unshared_runs(self, spec):
        # Sharing one input per size across the methods changes no number.
        sizes = (MB // 10, 2 * MB, GB)
        res = latency_vs_size(spec, sizes=sizes, seed=3)
        for method in REDUCTION_METHODS:
            alone = [device._dispatch(spec, method, make_input(s, 3), 3) for s in sizes]
            assert res[method] == alone


# A fresh interpreter, so no input drawn or cached by an earlier test hides
# the allocation.
_TRACED_RUN = """
import tracemalloc
from repro.experiments.exp_reduction import run_fig15, run_table6
tracemalloc.start()
run_fig15()
run_table6()
print(tracemalloc.get_traced_memory()[1])
"""


def test_fig15_and_table6_allocate_under_4_mb():
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN],
        env={**os.environ, "PYTHONPATH": REPO_SRC},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 4 * MB
