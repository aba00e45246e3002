"""Tests for KernelDensity and select_kde_bandwidth."""

import numpy as np
import pytest

from repro.core.grid import BandwidthGrid
from repro.data import bimodal_normal_sample, uniform_sample
from repro.exceptions import SelectionError, ValidationError
from repro.kde import KernelDensity, kde_evaluate, select_kde_bandwidth

_TRAPEZOID = getattr(np, "trapezoid", None) or np.trapz


class TestKdeEvaluate:
    def test_single_point_sample_shape(self, rng):
        x = rng.normal(size=50)
        d = kde_evaluate(x, np.array([0.0]), 0.5)
        assert d.shape == (1,)
        assert d[0] > 0.0

    def test_density_nonnegative(self, rng):
        x = rng.normal(size=200)
        pts = np.linspace(-5, 5, 101)
        assert (kde_evaluate(x, pts, 0.3) >= 0.0).all()

    def test_density_integrates_to_one(self, rng):
        x = rng.normal(size=500)
        pts = np.linspace(-6, 6, 2001)
        mass = float(_TRAPEZOID(kde_evaluate(x, pts, 0.4), pts))
        assert mass == pytest.approx(1.0, abs=1e-3)

    def test_bandwidth_validated(self, rng):
        x = rng.normal(size=10)
        with pytest.raises(ValidationError):
            kde_evaluate(x, x, 0.0)

    def test_hand_computed_value(self):
        # x = {0, 1}, h = 1, Epanechnikov: f(0) = (K(0) + K(1)) / 2 = 0.375.
        x = np.array([0.0, 1.0])
        assert kde_evaluate(x, np.array([0.0]), 1.0)[0] == pytest.approx(0.375)


class TestSelectKdeBandwidth:
    def test_lscv_grid_default(self, rng):
        x = rng.normal(size=400)
        res = select_kde_bandwidth(x)
        assert res.method == "kde-lscv-grid"
        assert res.backend == "fastgrid"
        assert res.bandwidth > 0.0
        assert res.n_evaluations == 50

    def test_grid_above_the_optimum_is_flagged(self, rng):
        x = rng.normal(size=400)
        grid = BandwidthGrid.evenly_spaced(2.0, 5.0, 20)
        res = select_kde_bandwidth(x, grid=grid)
        assert res.bandwidth == grid.minimum
        assert res.diagnostics["grid_minimum"] == grid.minimum
        assert res.diagnostics["grid_maximum"] == grid.maximum
        assert res.diagnostics["boundary_minimum"] is True

    def test_interior_optimum_is_not_flagged(self, rng):
        x = rng.normal(size=400)
        grid = BandwidthGrid.evenly_spaced(0.05, 3.0, 60)
        res = select_kde_bandwidth(x, grid=grid)
        assert grid.minimum < res.bandwidth < grid.maximum
        assert res.diagnostics["boundary_minimum"] is False

    def test_dense_backend_for_gaussian(self, rng):
        x = rng.normal(size=100)
        res = select_kde_bandwidth(x, kernel="gaussian", n_bandwidths=8)
        assert res.backend == "dense"

    def test_silverman_and_scott(self, rng):
        x = rng.normal(size=300)
        silv = select_kde_bandwidth(x, method="silverman")
        scott = select_kde_bandwidth(x, method="scott")
        assert silv.method == "kde-silverman"
        assert scott.bandwidth >= silv.bandwidth

    def test_unknown_method_rejected(self, rng):
        with pytest.raises(ValidationError):
            select_kde_bandwidth(rng.normal(size=50), method="plugin")


class TestKernelDensityModel:
    def test_fit_evaluate_workflow(self, rng):
        x = rng.normal(size=300)
        kde = KernelDensity().fit(x)
        assert kde.bandwidth is not None
        assert (kde.evaluate(np.linspace(-3, 3, 21)) >= 0.0).all()

    def test_fixed_bandwidth(self, rng):
        kde = KernelDensity(bandwidth=0.7).fit(rng.normal(size=100))
        assert kde.bandwidth == 0.7
        assert kde.selection_ is None

    def test_unfitted_raises(self):
        with pytest.raises(SelectionError):
            KernelDensity(bandwidth=0.5).evaluate(np.array([0.0]))

    def test_lscv_beats_rot_on_bimodal_ise(self):
        s = bimodal_normal_sample(1000, seed=13)
        lscv = KernelDensity(method="lscv-grid", n_bandwidths=60).fit(s.x)
        silv = KernelDensity(
            bandwidth=select_kde_bandwidth(s.x, method="silverman").bandwidth
        ).fit(s.x)
        assert lscv.integrated_squared_error(s.pdf) < silv.integrated_squared_error(
            s.pdf
        )

    def test_ise_decreases_with_n(self):
        ises = []
        for n in (100, 2000):
            s = uniform_sample(n, seed=3)
            kde = KernelDensity(bandwidth=0.1).fit(s.x)
            ises.append(kde.integrated_squared_error(s.pdf))
        assert ises[1] < ises[0]

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(ValidationError):
            KernelDensity(bandwidth=0.0)
