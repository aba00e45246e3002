"""Tests for the fast sorted grid search — the paper's primary contribution.

The central invariant: for every compact polynomial kernel, both fast
implementations must reproduce the dense per-bandwidth evaluation of
``CV_lc`` *exactly* (up to float64 round-off) on any data and any grid.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fastgrid import (
    cv_scores_fastgrid,
    cv_scores_fastgrid_python,
    fastgrid_row_contributions,
    require_fast_grid_kernel,
)
from repro.core.grid import BandwidthGrid
from repro.core.loocv import cv_scores_dense_grid
from repro.data import paper_dgp
from repro.exceptions import ValidationError
from repro.kernels import fast_grid_kernels

POLY_KERNELS = sorted(fast_grid_kernels())


class TestEligibility:
    def test_polynomial_kernels_accepted(self):
        for name in POLY_KERNELS:
            assert require_fast_grid_kernel(name).name == name

    def test_gaussian_rejected(self):
        with pytest.raises(ValidationError, match="does not support"):
            require_fast_grid_kernel("gaussian")

    def test_cosine_rejected(self):
        with pytest.raises(ValidationError, match="does not support"):
            require_fast_grid_kernel("cosine")


@pytest.mark.parametrize("kernel", POLY_KERNELS)
class TestEquivalenceWithDense:
    """Fast grid == dense grid for every polynomial kernel."""

    def test_vectorised_matches_dense(self, kernel, paper_sample_small, small_grid):
        s = paper_sample_small
        fast = cv_scores_fastgrid(s.x, s.y, small_grid.values, kernel)
        dense = cv_scores_dense_grid(s.x, s.y, small_grid.values, kernel)
        np.testing.assert_allclose(fast, dense, rtol=1e-10, atol=1e-12)

    def test_python_sweep_matches_dense(self, kernel, paper_sample_small, small_grid):
        s = paper_sample_small
        swept = cv_scores_fastgrid_python(s.x, s.y, small_grid.values, kernel)
        dense = cv_scores_dense_grid(s.x, s.y, small_grid.values, kernel)
        np.testing.assert_allclose(swept, dense, rtol=1e-8, atol=1e-10)


class TestEquivalenceProperties:
    @given(
        n=st.integers(5, 40),
        k=st.integers(1, 15),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_fast_equals_dense_on_random_data(self, n, k, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, 1, n)
        y = rng.normal(0, 1, n)
        grid = BandwidthGrid.for_sample(x, k) if x.max() > x.min() else None
        if grid is None:
            return
        fast = cv_scores_fastgrid(x, y, grid.values)
        dense = cv_scores_dense_grid(x, y, grid.values)
        np.testing.assert_allclose(fast, dense, rtol=1e-9, atol=1e-11)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_duplicate_x_values_handled(self, seed):
        # Ties in x: distances of exactly 0 between distinct observations
        # must be included in every window without double-counting self.
        rng = np.random.default_rng(seed)
        x = np.repeat(rng.uniform(0, 1, 6), 2)
        y = rng.normal(0, 1, 12)
        grid = np.array([0.1, 0.5, 1.0])
        fast = cv_scores_fastgrid(x, y, grid)
        dense = cv_scores_dense_grid(x, y, grid)
        np.testing.assert_allclose(fast, dense, rtol=1e-9, atol=1e-11)

    def test_bandwidth_on_exact_distance_boundary(self):
        # d == h exactly: |u| <= 1 includes the point (weight 0 for the
        # Epanechnikov but 0.5 for the uniform kernel) — both paths must
        # agree on the convention.
        x = np.array([0.0, 0.5, 1.0])
        y = np.array([1.0, 5.0, 9.0])
        grid = np.array([0.5, 1.0])
        for kernel in ("epanechnikov", "uniform"):
            fast = cv_scores_fastgrid(x, y, grid, kernel)
            dense = cv_scores_dense_grid(x, y, grid, kernel)
            np.testing.assert_allclose(fast, dense, rtol=1e-12)


class TestWindowSemantics:
    def test_scores_monotone_data_smoke(self, paper_sample_medium, medium_grid):
        s = paper_sample_medium
        scores = cv_scores_fastgrid(s.x, s.y, medium_grid.values)
        assert np.isfinite(scores).all()
        # Optimal bandwidth on curved data is interior, not the largest.
        assert np.argmin(scores) < len(medium_grid) - 1

    def test_empty_windows_contribute_zero(self):
        # Smallest bandwidth so small no window contains a neighbour:
        # every M(X_i) = 0 and the score is exactly 0.
        x = np.array([0.0, 0.4, 0.8, 1.2])
        y = np.array([1.0, 2.0, 3.0, 4.0])
        grid = np.array([0.01, 0.5])
        scores = cv_scores_fastgrid(x, y, grid)
        assert scores[0] == 0.0
        assert scores[1] > 0.0

    def test_chunk_rows_invariance(self, paper_sample_medium, medium_grid):
        s = paper_sample_medium
        a = cv_scores_fastgrid(s.x, s.y, medium_grid.values, block_rows=400)
        b = cv_scores_fastgrid(s.x, s.y, medium_grid.values, block_rows=7)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_float32_mode_close_to_float64(self, paper_sample_medium, medium_grid):
        s = paper_sample_medium
        a = cv_scores_fastgrid(s.x, s.y, medium_grid.values, dtype="float64")
        b = cv_scores_fastgrid(s.x, s.y, medium_grid.values, dtype="float32")
        np.testing.assert_allclose(a, b, rtol=1e-3)


class TestRowContributions:
    def test_invalid_block_rejected(self, paper_sample_small, small_grid):
        s = paper_sample_small
        for start, stop in [(10, 5), (0, s.n + 1), (-1, 3), (4, 4)]:
            with pytest.raises(ValidationError):
                fastgrid_row_contributions(
                    s.x, s.y, small_grid.values, "epanechnikov", start, stop
                )


class TestShiftInvariance:
    """CV_lc depends on X only through differences and on Y through
    residuals around local means: shifting X, and shifting Y by a
    constant, must leave the whole CV curve unchanged."""

    def test_x_shift_invariance(self, paper_sample_small, small_grid):
        s = paper_sample_small
        base = cv_scores_fastgrid(s.x, s.y, small_grid.values)
        shifted = cv_scores_fastgrid(s.x + 37.5, s.y, small_grid.values)
        np.testing.assert_allclose(base, shifted, rtol=1e-7)

    def test_y_shift_invariance(self, paper_sample_small, small_grid):
        s = paper_sample_small
        base = cv_scores_fastgrid(s.x, s.y, small_grid.values)
        shifted = cv_scores_fastgrid(s.x, s.y - 11.0, small_grid.values)
        np.testing.assert_allclose(base, shifted, rtol=1e-7, atol=1e-12)

    def test_y_scale_quadratic(self, paper_sample_small, small_grid):
        s = paper_sample_small
        base = cv_scores_fastgrid(s.x, s.y, small_grid.values)
        scaled = cv_scores_fastgrid(s.x, 3.0 * s.y, small_grid.values)
        np.testing.assert_allclose(scaled, 9.0 * base, rtol=1e-9)

    def test_joint_xh_scale_invariance(self, paper_sample_small, small_grid):
        s = paper_sample_small
        base = cv_scores_fastgrid(s.x, s.y, small_grid.values)
        scaled = cv_scores_fastgrid(2.0 * s.x, s.y, 2.0 * small_grid.values)
        np.testing.assert_allclose(base, scaled, rtol=1e-9)
