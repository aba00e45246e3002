"""Integration: the paper's §IV-C cross-checks, end to end.

"The sequential C code and the CUDA code were checked against each other
to ensure that they produced identical results under many different sets
of inputs" — here across every backend, several DGPs, kernels, and seeds;
plus the R-program analogue landing in the same bandwidth range.
"""

import numpy as np
import pytest

from repro.core import (
    GridSearchSelector,
    NumericalOptimizationSelector,
    select_bandwidth,
)
from repro.core.grid import BandwidthGrid
from repro.data import generate

BACKENDS = ("numpy", "python", "blocked-shm", "gpusim")


class TestBackendAgreement:
    @pytest.mark.parametrize("dgp", ["paper", "sine", "heteroskedastic"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_all_backends_same_scores(self, dgp, seed):
        sample = generate(dgp, 150, seed=seed)
        grid = BandwidthGrid.for_sample(sample.x, 12)
        scores = {}
        for backend in BACKENDS:
            res = GridSearchSelector(grid=grid, backend=backend).select(
                sample.x, sample.y
            )
            scores[backend] = res.scores
            assert res.bandwidth in grid.values
        for backend in BACKENDS[1:]:
            np.testing.assert_allclose(
                scores[backend], scores["numpy"], rtol=5e-4,
                err_msg=f"{backend} disagrees on {dgp}/{seed}",
            )

    @pytest.mark.parametrize("kernel", ["epanechnikov", "uniform", "biweight"])
    def test_gpusim_matches_numpy_across_kernels(self, kernel):
        sample = generate("paper", 120, seed=3)
        grid = BandwidthGrid.for_sample(sample.x, 10)
        a = GridSearchSelector(grid=grid, backend="numpy", kernel=kernel).select(
            sample.x, sample.y
        )
        b = GridSearchSelector(grid=grid, backend="gpusim", kernel=kernel).select(
            sample.x, sample.y
        )
        assert a.bandwidth == pytest.approx(b.bandwidth)
        np.testing.assert_allclose(a.scores, b.scores, rtol=5e-4)


class TestOptimiserConsistency:
    """§IV-C: 'verify that both R programs produced optimal bandwidths in
    similar ranges to what was obtained from the C and CUDA code'."""

    def test_numeric_optimum_in_grid_optimum_range(self):
        sample = generate("paper", 600, seed=10)
        grid_res = GridSearchSelector(n_bandwidths=100).select(sample.x, sample.y)
        num_res = NumericalOptimizationSelector(
            n_restarts=3, seed=0, maxiter=120
        ).select(sample.x, sample.y)
        # Same order of magnitude and CV values within a few percent.
        ratio = num_res.bandwidth / grid_res.bandwidth
        assert 0.2 < ratio < 5.0
        assert num_res.score <= grid_res.score * 1.05

    def test_grid_scores_are_global_on_grid(self):
        # The grid search must return the global grid minimum, which the
        # optimiser cannot beat when constrained to the same grid points.
        sample = generate("sine", 400, seed=4)
        res = GridSearchSelector(n_bandwidths=60).select(sample.x, sample.y)
        assert res.score == pytest.approx(res.scores.min())


class TestEndToEndWorkflow:
    def test_select_fit_predict_roundtrip(self):
        from repro.regression import NadarayaWatson

        sample = generate("paper", 800, seed=12)
        result = select_bandwidth(sample.x, sample.y, n_bandwidths=50)
        model = NadarayaWatson(bandwidth=result.bandwidth).fit(sample.x, sample.y)
        at = np.linspace(0.1, 0.9, 9)
        rmse = np.sqrt(np.mean((model.predict(at) - sample.true_mean(at)) ** 2))
        assert rmse < 0.2

    def test_float32_gpu_choice_close_to_float64_choice(self):
        sample = generate("paper", 500, seed=13)
        grid = BandwidthGrid.for_sample(sample.x, 50)
        a = select_bandwidth(sample.x, sample.y, grid=grid, backend="numpy")
        b = select_bandwidth(sample.x, sample.y, grid=grid, backend="gpusim")
        # float32 rounding may shift the argmin by at most one grid step.
        assert abs(a.bandwidth - b.bandwidth) <= grid.spacing + 1e-12
