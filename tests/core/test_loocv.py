"""Tests for the LOO-CV objective — including hand-computed golden cases."""

import numpy as np
import pytest

from repro.core.loocv import (
    cv_score,
    cv_score_reference,
    cv_scores_dense_grid,
    dense_row_contributions,
    loo_estimates,
)
from repro.data import paper_dgp
from repro.utils.numeric import fold_rows


class TestGoldenValues:
    """Hand calculations on tiny samples (the paper's §IV-C debugging
    method: 'sample sizes for which hand calculation was feasible')."""

    def test_three_equally_spaced_points_uniform_kernel(self):
        # x = 0, 0.5, 1; y = 0, 1, 4; h = 0.6 (uniform kernel, radius 1:
        # window |u| <= 1 means |dx| <= 0.6, so each endpoint sees only
        # the middle point, and the middle point sees both endpoints).
        x = np.array([0.0, 0.5, 1.0])
        y = np.array([0.0, 1.0, 4.0])
        h = 0.6
        # g_-0 = 1 (only x=0.5); g_-1 = (0+4)/2 = 2; g_-2 = 1.
        expected = ((0.0 - 1.0) ** 2 + (1.0 - 2.0) ** 2 + (4.0 - 1.0) ** 2) / 3.0
        assert cv_score(x, y, h, "uniform") == pytest.approx(expected)
        assert cv_score_reference(x, y, h, "uniform") == pytest.approx(expected)

    def test_epanechnikov_weighting_by_hand(self):
        # x = 0, 0.5, 1; y = 1, 2, 3; h = 1.
        # For i=0: u = (0-0.5)/1 and (0-1)/1 -> weights K(0.5)=0.5625, K(1)=0.
        # g_-0 = 2. For i=1: both neighbours at u=0.5 -> g = (1+3)/2 = 2.
        # For i=2: symmetric to i=0 -> g = 2.
        x = np.array([0.0, 0.5, 1.0])
        y = np.array([1.0, 2.0, 3.0])
        expected = ((1 - 2) ** 2 + (2 - 2) ** 2 + (3 - 2) ** 2) / 3.0
        assert cv_score(x, y, 1.0, "epanechnikov") == pytest.approx(expected)

    def test_empty_window_excluded_via_m_indicator(self):
        # A far outlier whose window contains no neighbour: M(X_i) = 0,
        # so it contributes nothing.
        x = np.array([0.0, 0.1, 0.2, 100.0])
        y = np.array([1.0, 2.0, 3.0, 999.0])
        h = 0.15
        score = cv_score(x, y, h, "epanechnikov")
        # Same data without the outlier, rescaled by the n in 1/n.
        inner = cv_score_reference(x[:3], y[:3], h, "epanechnikov")
        assert score == pytest.approx(inner * 3.0 / 4.0)


class TestLooEstimates:
    def test_matches_reference_loop(self, paper_sample_small):
        s = paper_sample_small
        h = 0.2
        g_loo, valid = loo_estimates(s.x, s.y, h)
        assert valid.all()
        # Manual check of a single observation.
        i = 7
        u = (s.x[i] - np.delete(s.x, i)) / h
        w = 0.75 * (1 - u**2) * (np.abs(u) <= 1)
        expected = (w * np.delete(s.y, i)).sum() / w.sum()
        assert g_loo[i] == pytest.approx(expected)

    def test_invalid_entries_are_nan(self):
        x = np.array([0.0, 0.1, 50.0])
        y = np.array([1.0, 2.0, 3.0])
        g_loo, valid = loo_estimates(x, y, 0.5)
        assert not valid[2]
        assert np.isnan(g_loo[2])

    def test_chunking_does_not_change_result(self, paper_sample_medium):
        s = paper_sample_medium
        full, _ = loo_estimates(s.x, s.y, 0.1)
        chunked, _ = loo_estimates(s.x, s.y, 0.1, chunk_rows=17)
        np.testing.assert_array_equal(full, chunked)

    def test_nonpositive_bandwidth_rejected(self, paper_sample_small):
        s = paper_sample_small
        with pytest.raises(ValueError):
            loo_estimates(s.x, s.y, 0.0)


class TestCvScore:
    def test_matches_reference(self, paper_sample_small):
        s = paper_sample_small
        for h in (0.05, 0.2, 0.8):
            assert cv_score(s.x, s.y, h) == pytest.approx(
                cv_score_reference(s.x, s.y, h)
            )

    def test_oversmoothing_hurts_on_curved_data(self, paper_sample_medium):
        s = paper_sample_medium
        # The paper's DGP is strongly curved: a huge bandwidth (global
        # mean) must score much worse than a moderate one.
        assert cv_score(s.x, s.y, 1.0) > 2.0 * cv_score(s.x, s.y, 0.1)

    def test_gaussian_kernel_supported(self, paper_sample_small):
        s = paper_sample_small
        val = cv_score(s.x, s.y, 0.2, "gaussian")
        assert np.isfinite(val) and val > 0.0


class TestDenseGrid:
    def test_matches_per_h_scores(self, paper_sample_small, small_grid):
        s = paper_sample_small
        grid_scores = cv_scores_dense_grid(s.x, s.y, small_grid.values)
        singles = [cv_score(s.x, s.y, h) for h in small_grid.values]
        np.testing.assert_array_equal(grid_scores, singles)

    def test_chunking_invariance(self, paper_sample_medium, medium_grid):
        s = paper_sample_medium
        a = cv_scores_dense_grid(s.x, s.y, medium_grid.values)
        b = cv_scores_dense_grid(s.x, s.y, medium_grid.values, chunk_rows=23)
        np.testing.assert_array_equal(a, b)

    def test_cosine_kernel_grid(self, paper_sample_small, small_grid):
        s = paper_sample_small
        scores = cv_scores_dense_grid(s.x, s.y, small_grid.values, "cosine")
        assert np.isfinite(scores).all()


class TestDenseRows:
    # At h = 0.0005 some leave-one-out windows of the n = 400 sample are
    # empty, so the empty counts have something to add up.
    @pytest.mark.parametrize("h", [0.15, 0.0005])
    def test_blocks_fold_to_the_full_score(self, paper_sample_medium, h):
        s = paper_sample_medium
        n = s.n
        grid = np.array([h])
        parts = [
            dense_row_contributions(s.x, s.y, grid, "epanechnikov", lo, hi)
            for lo, hi in [(0, 100), (100, 250), (250, n)]
        ]
        whole, empty = dense_row_contributions(
            s.x, s.y, grid, "epanechnikov", 0, n
        )
        assert np.vstack([rows for rows, _ in parts]).tobytes() == whole.tobytes()
        assert sum(count for _, count in parts) == empty
        assert fold_rows(whole)[0] / n == cv_score(s.x, s.y, h)
        _, valid = loo_estimates(s.x, s.y, h)
        assert empty[0] == int((~valid).sum())
        assert (empty[0] > 0) == (h < 0.01)

    @pytest.mark.parametrize("kernel", ["gaussian", "cosine"])
    def test_rows_do_not_depend_on_the_block(self, paper_sample_medium, kernel):
        # BLAS ``w @ y`` changes a row's bits with the rows sharing the
        # call; the dense rows must not.
        s = paper_sample_medium
        grid = np.linspace(0.01, 0.2, 7)
        whole, _ = dense_row_contributions(s.x, s.y, grid, kernel, 0, s.n)
        for rows in (1, 7, 23):
            blocks = [
                dense_row_contributions(
                    s.x, s.y, grid, kernel, lo, min(lo + rows, s.n)
                )[0]
                for lo in range(0, s.n, rows)
            ]
            assert np.vstack(blocks).tobytes() == whole.tobytes(), rows
