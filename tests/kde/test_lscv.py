"""Tests for least-squares CV in KDE — the paper's named extension."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import fastgrid
from repro.core.fastgrid import plan_fastgrid_blocks, window_sum_path
from repro.core.grid import BandwidthGrid
from repro.data import bimodal_normal_sample, uniform_sample
from repro.exceptions import ValidationError
from repro.kde import lscv, select_kde_bandwidth
from repro.kde.convolution import self_convolution
from repro.kde.lscv import (
    lscv_score,
    lscv_scores_fastgrid,
    lscv_scores_grid,
    supports_fast_lscv,
)
from repro.kernels import get_kernel


class TestEligibility:
    def test_epanechnikov_and_uniform_supported(self):
        assert supports_fast_lscv("epanechnikov")
        assert supports_fast_lscv("uniform")

    def test_others_not_supported(self):
        assert not supports_fast_lscv("gaussian")
        assert not supports_fast_lscv("triangular")
        assert not supports_fast_lscv("biweight")

    def test_fastgrid_rejects_unsupported_kernel(self):
        x = np.random.default_rng(0).normal(size=30)
        with pytest.raises(ValidationError, match="fast-grid LSCV"):
            lscv_scores_fastgrid(x, np.array([0.1, 0.2]), "gaussian")


class TestFastDenseEquivalence:
    @pytest.mark.parametrize("kernel", ["epanechnikov", "uniform"])
    def test_matches_dense_on_normal_sample(self, kernel, rng):
        x = rng.normal(size=150)
        grid = BandwidthGrid.for_sample(x, 12)
        fast = lscv_scores_fastgrid(x, grid.values, kernel)
        dense = lscv_scores_grid(x, grid.values, kernel)
        np.testing.assert_allclose(fast, dense, rtol=1e-9)

    @given(n=st.integers(5, 60), k=st.integers(1, 10), seed=st.integers(0, 5000))
    @settings(max_examples=25, deadline=None)
    def test_matches_dense_property(self, n, k, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, 1, n)
        if x.max() == x.min():
            return
        grid = BandwidthGrid.for_sample(x, k)
        fast = lscv_scores_fastgrid(x, grid.values)
        dense = lscv_scores_grid(x, grid.values)
        np.testing.assert_allclose(fast, dense, rtol=1e-8, atol=1e-10)

    def test_duplicate_points_handled(self):
        x = np.repeat([0.1, 0.5, 0.9], 4)
        grid = np.array([0.05, 0.2, 1.0])
        fast = lscv_scores_fastgrid(x, grid)
        dense = lscv_scores_grid(x, grid)
        np.testing.assert_allclose(fast, dense, rtol=1e-9)


class TestLscvBehaviour:
    def test_score_formula_consistency(self, rng):
        x = rng.normal(size=80)
        assert lscv_score(x, 0.4) == pytest.approx(
            lscv_scores_grid(x, np.array([0.4]))[0]
        )

    def test_lscv_minimum_interior_on_normal_data(self, rng):
        x = rng.normal(size=500)
        grid = BandwidthGrid.evenly_spaced(0.02, 3.0, 60)
        scores = lscv_scores_fastgrid(x, grid.values)
        j = int(np.argmin(scores))
        assert 0 < j < len(grid) - 1

    def test_lscv_penalises_tiny_bandwidth(self, rng):
        x = rng.normal(size=300)
        scores = lscv_scores_fastgrid(x, np.array([0.001, 0.5]))
        assert scores[0] > scores[1]

    def test_bimodal_prefers_smaller_h_than_silverman(self):
        from repro.kde.rot import silverman_bandwidth

        s = bimodal_normal_sample(800, seed=7)
        grid = BandwidthGrid.evenly_spaced(0.02, 2.0, 80)
        scores = lscv_scores_fastgrid(s.x, grid.values)
        h_lscv = grid.values[int(np.argmin(scores))]
        h_silv = silverman_bandwidth(s.x, "epanechnikov")
        assert h_lscv < h_silv

    def test_needs_two_observations(self):
        with pytest.raises(ValidationError):
            lscv_score(np.array([1.0]), 0.1)

    def test_bandwidth_positive_required(self):
        with pytest.raises(ValidationError):
            lscv_score(np.array([1.0, 2.0]), 0.0)


def _lscv_sample(case: str, n: int) -> np.ndarray:
    rng = np.random.default_rng(3)
    if case == "tied":
        # About 60 distinct values: every window edge sits on a run of ties.
        return np.round(rng.normal(size=n), 1)
    if case == "offset":
        return 1e6 + rng.uniform(0.0, 1.0, n)
    return rng.normal(size=n)


class TestSortedPath:
    """LSCV on the regression sweep's sorted window sums (n >= 10·k, n >= 500)."""

    N = 1200
    K = 12

    @pytest.mark.parametrize("case", ["normal", "tied", "offset"])
    @pytest.mark.parametrize("kernel", ["epanechnikov", "uniform"])
    def test_matches_dense_oracle(self, kernel, case):
        x = _lscv_sample(case, self.N)
        grid = BandwidthGrid.for_sample(x, self.K)
        kern = get_kernel(kernel)
        # Both pair sums take the sorted path: the kernel at radius R and
        # its self-convolution (odd powers 3 and 5 for Epanechnikov) at 2R.
        for like in (kern, self_convolution(kern)):
            assert window_sum_path(self.N, self.K, like) == "sorted"
        fast = lscv_scores_fastgrid(x, grid.values, kernel)
        dense = lscv_scores_grid(x, grid.values, kernel)
        np.testing.assert_allclose(fast, dense, rtol=1e-9)
        chosen = select_kde_bandwidth(x, kernel=kernel, grid=grid)
        assert chosen.backend == "fastgrid"
        assert chosen.bandwidth == grid.values[int(np.argmin(dense))]

    def test_samples_stay_outside_the_sweep_cache(self, monkeypatch):
        # K and its self-convolution share a name; LSCV builds both samples
        # itself and leaves the regression sweep's one-entry cache alone.
        x = _lscv_sample("normal", self.N)
        sentinel = object()
        monkeypatch.setattr(fastgrid, "_LAST_SORTED", sentinel)
        lscv_scores_fastgrid(x, BandwidthGrid.for_sample(x, self.K).values)
        assert fastgrid._LAST_SORTED is sentinel


@pytest.mark.parametrize("n", [200, 1200])
def test_block_partition_invariance(n, monkeypatch):
    # Rows are folded in order, so any block size gives the same bits on
    # both paths (binned at n = 200, sorted at n = 1,200).
    x = _lscv_sample("normal", n)
    grid = np.array([0.1, 0.3, 0.9])
    whole = lscv_scores_fastgrid(x, grid)
    monkeypatch.setattr(
        lscv, "plan_fastgrid_blocks",
        functools.partial(plan_fastgrid_blocks, max_rows=11),
    )
    assert lscv_scores_fastgrid(x, grid).tobytes() == whole.tobytes()
