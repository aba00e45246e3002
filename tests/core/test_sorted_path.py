"""Differential and robustness wall for the sort-once window-sum path.

The sorted path (:class:`repro.core.fastgrid._SortedSample`) computes the
same window sums as the binned O(n²) path from prefix sums over the
sample sorted once, so its curves differ from the binned bits by
rounding only.  The contract (DESIGN.md, "Sort-once path"):

* curves within a per-kernel relative tolerance of the binned path, at
  x offsets 0 and 1e6;
* ``h_opt`` on the same grid index;
* window membership decided by the binned predicate ``|x_i − x_l| <=
  grid[j]·R`` exactly — checked against a brute-force count;
* bit-for-bit agreement among the row-block executors (numpy,
  blocked, blocked-shm, multicore) at any block size, because every row
  is computed independently of its block;
* float32 sweeps keep the binned bits.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import fastgrid
from repro.core.backends import get_backend
from repro.core.blockwise import cv_scores_blocked_shm
from repro.core.fastgrid import (
    cv_scores_fastgrid,
    fastgrid_row_contributions,
    window_sum_path,
)
from repro.data.generators import paper_dgp
from repro.kernels import fast_grid_kernels, get_kernel

#: Curve rtol against the binned path, per kernel (largest power p), as
#: recorded in DESIGN.md.  Tricube's is the loosest: a window holding one
#: neighbour at u ≈ 0.9998 has a weight of ~1e-10 that both paths obtain
#: by cancelling O(1) polynomial terms, so each path is off the exact
#: value by ~1e-8 there and the two differ by up to 4.3e-8.
RTOL = {
    "uniform": 1e-10,
    "epanechnikov": 1e-10,
    "triangular": 1e-10,
    "biweight": 1e-9,
    "triweight": 1e-9,
    "tricube": 1e-7,
}
KERNELS = tuple(fast_grid_kernels())
OFFSETS = (0.0, 1e6)
N = 600


def test_every_fast_grid_kernel_has_a_tolerance():
    assert set(KERNELS) == set(RTOL)


@pytest.fixture
def binned(monkeypatch):
    """Run a callable with the path rule forced to the binned path."""

    def run(fn):
        with monkeypatch.context() as patch:
            patch.setattr(fastgrid, "SORTED_MIN_N", 10**18)
            return fn()

    return run


def _sample(n: int, seed: int, offset: float = 0.0):
    rng = np.random.default_rng(seed)
    x = offset + rng.uniform(0.0, 1.0, n)
    y = np.sin(6.0 * (x - offset)) + rng.normal(0.0, 0.3, n)
    return x, y


def _assert_contract(sorted_curve, binned_curve, kernel):
    np.testing.assert_allclose(
        sorted_curve, binned_curve, rtol=RTOL[kernel], atol=0.0
    )
    assert int(np.argmin(sorted_curve)) == int(np.argmin(binned_curve))


def _brute_counts(x, grid, radius):
    dist = np.abs(x[:, None] - x[None, :])
    cut = grid * radius
    return (dist[:, :, None] <= cut[None, None, :]).sum(axis=1)


class TestPathRule:
    def test_benchmark_shapes(self):
        assert window_sum_path(8000, 50, "epanechnikov") == "sorted"
        assert window_sum_path(3163, 50, "epanechnikov") == "sorted"
        # The served workload's shape keeps the binned path.
        assert window_sum_path(2000, 500, "epanechnikov") == "binned"

    def test_small_samples_stay_binned(self):
        assert window_sum_path(fastgrid.SORTED_MIN_N - 1, 2, "uniform") == "binned"

    def test_float32_and_dense_kernels_stay_binned(self):
        assert window_sum_path(8000, 50, "epanechnikov", "float32") == "binned"
        assert window_sum_path(8000, 50, "gaussian") == "binned"

    def test_rule_is_whole_sample_only(self):
        # Every row block of one sweep takes the same path: the rule sees
        # (n, k, kernel, dtype), never the block's row count.
        x, y = _sample(N, 0)
        grid = np.linspace(0.01, 0.3, 20)
        one = fastgrid_row_contributions(x, y, grid, "epanechnikov", 0, 1)
        whole = fastgrid_row_contributions(x, y, grid, "epanechnikov", 0, N)
        assert one.tobytes() == whole[:1].tobytes()


class TestAgainstBinned:
    @pytest.mark.parametrize("offset", OFFSETS)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_random_sample(self, kernel, offset, binned):
        x, y = _sample(N, 1, offset)
        grid = np.linspace(0.01, 0.3, 30)
        assert window_sum_path(N, 30, kernel) == "sorted"
        got = cv_scores_fastgrid(x, y, grid, kernel)
        ref = binned(lambda: cv_scores_fastgrid(x, y, grid, kernel))
        _assert_contract(got, ref, kernel)

    @pytest.mark.parametrize("offset", OFFSETS)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_duplicates_exactly_on_window_edges(self, kernel, offset, binned):
        # Three copies of each multiple of 1/64, and bandwidths that are
        # multiples of 1/64 too: window edges land exactly on data.
        lattice = offset + np.arange(200) / 64.0
        x = np.repeat(lattice, 3)
        y = np.sin(x - offset) + np.random.default_rng(2).normal(0, 0.1, x.size)
        grid = np.arange(1, 31) / 64.0
        got = cv_scores_fastgrid(x, y, grid, kernel)
        ref = binned(lambda: cv_scores_fastgrid(x, y, grid, kernel))
        _assert_contract(got, ref, kernel)

    @pytest.mark.parametrize("offset", OFFSETS)
    def test_membership_matches_binned_predicate(self, offset):
        # Adversarial edges: points at fl(x_i ± c), one ulp either side,
        # where searchsorted on x_i ± c and the predicate |x_i − x_l| <= c
        # can disagree.
        rng = np.random.default_rng(3)
        base = offset + rng.uniform(0.0, 1.0, 300)
        grid = np.linspace(0.013, 0.29, 20)
        extra = []
        for i, j in zip(rng.integers(0, 300, 60), rng.integers(0, 20, 60)):
            for edge in (base[i] - grid[j], base[i] + grid[j]):
                extra += [np.nextafter(edge, -np.inf), edge,
                          np.nextafter(edge, np.inf)]
        x = np.concatenate([base, extra])
        y = rng.normal(size=x.size)
        kern = get_kernel("uniform")
        sample = fastgrid._SortedSample(x, y, grid, kern)
        _, _, count = sample.window_sums(0, x.size)
        np.testing.assert_array_equal(
            count, _brute_counts(x, grid, kern.support_radius)
        )

    @pytest.mark.parametrize("offset", OFFSETS)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_constant_x(self, kernel, offset, binned):
        x = np.full(N, offset + 0.5, dtype=np.float64)
        y = np.random.default_rng(4).normal(size=N)
        grid = np.linspace(0.01, 0.3, 20)
        got = cv_scores_fastgrid(x, y, grid, kernel)
        ref = binned(lambda: cv_scores_fastgrid(x, y, grid, kernel))
        _assert_contract(got, ref, kernel)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_near_constant_x(self, kernel, binned):
        rng = np.random.default_rng(5)
        x = 0.5 + 1e-12 * rng.uniform(size=N)
        y = rng.normal(size=N)
        grid = np.linspace(0.01, 0.3, 20)
        got = cv_scores_fastgrid(x, y, grid, kernel)
        ref = binned(lambda: cv_scores_fastgrid(x, y, grid, kernel))
        _assert_contract(got, ref, kernel)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_bandwidths_below_minimum_spacing_empty_the_windows(
        self, kernel, binned
    ):
        # Distinct lattice points 1/64 apart; the first grid points see
        # only the observation itself, so those CV values are exactly 0.
        x = np.arange(N) / 64.0
        y = np.cos(x)
        grid = np.concatenate([[1 / 512, 1 / 256], np.linspace(0.02, 0.6, 20)])
        got = cv_scores_fastgrid(x, y, grid, kernel)
        ref = binned(lambda: cv_scores_fastgrid(x, y, grid, kernel))
        assert not got[:2].any()
        _assert_contract(got, ref, kernel)

    @pytest.mark.parametrize("offset", OFFSETS)
    @pytest.mark.parametrize("kernel", ("epanechnikov", "tricube"))
    def test_tiny_bandwidths_keep_bookkeeping_linear(
        self, kernel, offset, binned
    ):
        # h_min is 1e7 times below the spread: 15 octaves, most cut into
        # cells far narrower than the data spacing.  Only non-empty
        # cells become segments, so every octave stays O(n).
        x, y = _sample(N, 6, offset)
        grid = np.geomspace(1e-7, 0.5, 30)
        got = cv_scores_fastgrid(x, y, grid, kernel)
        ref = binned(lambda: cv_scores_fastgrid(x, y, grid, kernel))
        _assert_contract(got, ref, kernel)
        sample = fastgrid._SortedSample(x, y, grid, get_kernel(kernel))
        assert len(sample.octaves) == 15
        for octave in sample.octaves:
            assert octave.seg_start.size <= N
            assert octave.zprefix.shape[1] == N + 1


class TestBinnedBitsKept:
    def test_float32_is_byte_identical_to_binned(self, binned):
        x, y = _sample(N, 7)
        grid = np.linspace(0.01, 0.3, 20)
        got = cv_scores_fastgrid(x, y, grid, dtype="float32")
        ref = binned(lambda: cv_scores_fastgrid(x, y, grid, dtype="float32"))
        assert got.tobytes() == ref.tobytes()


class TestExecutorsAgreeBitForBit:
    @pytest.mark.parametrize("kernel", ("epanechnikov", "triangular", "tricube"))
    def test_numpy_blocked_shm_multicore(self, kernel):
        x, y = _sample(N, 8)
        grid = np.linspace(0.01, 0.3, 25)
        assert window_sum_path(N, 25, kernel) == "sorted"
        ref = cv_scores_fastgrid(x, y, grid, kernel).tobytes()
        for rows in (1, 7, 64, N):
            assert cv_scores_fastgrid(
                x, y, grid, kernel, block_rows=rows
            ).tobytes() == ref
        assert cv_scores_fastgrid(
            x, y, grid, kernel, memory_budget="2MiB"
        ).tobytes() == ref
        for rows in (13, 200):
            assert cv_scores_blocked_shm(
                x, y, grid, kernel, block_rows=rows, workers=2
            ).tobytes() == ref
        # blocked-shm on two cores with the blocks the one rule plans.
        multicore = get_backend("blocked-shm")
        assert np.asarray(
            multicore(x, y, grid, kernel, workers=2)
        ).tobytes() == ref


class TestExactBenchmarkOracle:
    def test_every_pool_dataset_lands_on_the_dense_reference(self):
        # The committed dense O(k·n²) references of the exact-8k
        # benchmark: grid index, value within 1e-6, never a grid edge.
        path = Path(__file__).parents[2] / "perfbench" / "oracle" / "exact-8k.json"
        oracle = json.loads(path.read_text())
        grid = np.linspace(0.002, 0.1, 50)
        for seed, ref in oracle["curves"].items():
            sample = paper_dgp(8000, seed=int(seed))
            got = cv_scores_fastgrid(sample.x, sample.y, grid)
            j = int(np.argmin(got))
            assert j == ref["argmin"]
            assert 0 < j < grid.size - 1
            np.testing.assert_allclose(got, ref["scores"], rtol=1e-6)
