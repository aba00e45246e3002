"""Tests for the Nadaraya–Watson estimator."""

import numpy as np
import pytest

from repro.core.selectors import RuleOfThumbSelector
from repro.data import linear_dgp, paper_dgp
from repro.exceptions import SelectionError, ValidationError, error_code
from repro.kernels import get_kernel, list_kernels
from repro.regression import NadarayaWatson, nw_estimate


class TestNwEstimate:
    def test_weighted_average_by_hand(self):
        # Uniform kernel, h=1: estimate at 0.5 averages all y with |dx|<=1.
        x = np.array([0.0, 0.5, 1.0])
        y = np.array([3.0, 6.0, 9.0])
        est, valid = nw_estimate(x, y, np.array([0.5]), 1.0, "uniform")
        assert est[0] == pytest.approx(6.0)
        assert valid[0]

    def test_empty_window_is_nan_invalid(self):
        x = np.array([0.0, 0.1, 0.2])
        y = np.array([1.0, 2.0, 3.0])
        est, valid = nw_estimate(x, y, np.array([5.0]), 0.5)
        assert np.isnan(est[0])
        assert not valid[0]

    def test_interpolates_constant_function(self):
        x = np.linspace(0, 1, 50)
        y = np.full(50, 7.0)
        est, _ = nw_estimate(x, y, np.linspace(0.1, 0.9, 9), 0.3)
        np.testing.assert_allclose(est, 7.0)

    def test_estimate_is_convex_combination(self, rng):
        x = rng.uniform(0, 1, 100)
        y = rng.normal(0, 1, 100)
        est, valid = nw_estimate(x, y, np.linspace(0, 1, 11), 0.2)
        assert (est[valid] >= y.min() - 1e-12).all()
        assert (est[valid] <= y.max() + 1e-12).all()

    def test_bandwidth_must_be_positive(self):
        x = np.array([0.0, 0.5, 1.0])
        with pytest.raises(ValidationError):
            nw_estimate(x, x, x, -0.1)

    @pytest.mark.parametrize("h", [np.nan, np.inf, -np.inf])
    def test_non_finite_bandwidth_rejected(self, h):
        # NaN passes an ``h <= 0`` guard; it would come back as all-NaN
        # predictions, and +inf as the global mean, with no error.
        x = np.linspace(0.0, 1.0, 10)
        with pytest.raises(ValidationError) as info:
            nw_estimate(x, x, x, h)
        assert error_code(info.value) == "REPRO_VALIDATION"

    def test_chunking_invariance(self, paper_sample_medium):
        s = paper_sample_medium
        at = np.linspace(0, 1, 200)
        a, _ = nw_estimate(s.x, s.y, at, 0.1)
        b, _ = nw_estimate(s.x, s.y, at, 0.1, chunk_rows=13)
        np.testing.assert_allclose(a, b)


class TestNadarayaWatsonModel:
    def test_fit_selects_bandwidth(self, paper_sample_medium):
        s = paper_sample_medium
        model = NadarayaWatson(n_bandwidths=20).fit(s.x, s.y)
        assert model.bandwidth is not None
        assert model.selection_ is not None
        assert model.selection_.method == "grid-search"

    def test_fixed_bandwidth_skips_selection(self, paper_sample_medium):
        s = paper_sample_medium
        model = NadarayaWatson(bandwidth=0.15).fit(s.x, s.y)
        assert model.bandwidth == 0.15
        assert model.selection_ is None

    def test_custom_selector_used(self, paper_sample_medium):
        s = paper_sample_medium
        model = NadarayaWatson(selector=RuleOfThumbSelector()).fit(s.x, s.y)
        assert model.selection_.method == "rule-of-thumb"

    def test_predict_before_fit_raises(self):
        with pytest.raises(SelectionError, match="not fitted"):
            NadarayaWatson(bandwidth=0.1).predict(np.array([0.5]))

    def test_predict_tracks_truth(self):
        s = paper_dgp(3000, seed=8)
        model = NadarayaWatson(n_bandwidths=50).fit(s.x, s.y)
        at = np.linspace(0.1, 0.9, 17)
        rmse = np.sqrt(np.mean((model.predict(at) - s.true_mean(at)) ** 2))
        assert rmse < 0.1

    def test_loo_fitted_values_match_loocv_module(self, paper_sample_small):
        from repro.core.loocv import loo_estimates

        s = paper_sample_small
        model = NadarayaWatson(bandwidth=0.2).fit(s.x, s.y)
        got, mask = model.loo_fitted_values()
        expected, expected_mask = loo_estimates(s.x, s.y, 0.2)
        np.testing.assert_allclose(got[mask], expected[expected_mask])

    def test_cv_score_consistency(self, paper_sample_small):
        from repro.core.loocv import cv_score

        s = paper_sample_small
        model = NadarayaWatson(bandwidth=0.2).fit(s.x, s.y)
        assert model.cv_score() == pytest.approx(cv_score(s.x, s.y, 0.2))

    def test_r_squared_high_on_strong_signal(self):
        s = linear_dgp(1000, noise=0.05, seed=2)
        model = NadarayaWatson(n_bandwidths=30).fit(s.x, s.y)
        assert model.r_squared() > 0.95

    def test_residuals_shape(self, paper_sample_medium):
        s = paper_sample_medium
        model = NadarayaWatson(bandwidth=0.1).fit(s.x, s.y)
        assert model.residuals().shape == (s.n,)

    def test_nonpositive_fixed_bandwidth_rejected(self):
        with pytest.raises(ValidationError):
            NadarayaWatson(bandwidth=0.0)

    @pytest.mark.parametrize("h", [np.nan, np.inf, -np.inf])
    def test_non_finite_fixed_bandwidth_rejected(self, h):
        with pytest.raises(ValidationError) as info:
            NadarayaWatson(bandwidth=h)
        assert error_code(info.value) == "REPRO_VALIDATION"

    def test_predict_with_validity(self, paper_sample_medium):
        s = paper_sample_medium
        model = NadarayaWatson(bandwidth=0.05).fit(s.x, s.y)
        est, valid = model.predict_with_validity(np.array([0.5, 40.0]))
        assert valid[0] and not valid[1]
        assert np.isnan(est[1])


def dense_nw(x, y, at, h, kernel):
    """Float64 oracle: one evaluation point at a time, ``Σ y·K / Σ K``,
    valid where the weight sum is positive."""
    kern = get_kernel(kernel)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    est = np.full(len(at), np.nan)
    valid = np.zeros(len(at), dtype=bool)
    for j, a in enumerate(np.asarray(at, dtype=np.float64)):
        w = kern((a - x) / h)
        den = w.sum()
        valid[j] = den > 0.0
        if valid[j]:
            est[j] = (y * w).sum() / den
    return est, valid


# Each case maps the paper sample (x, y), its evaluation points and h to
# a harder version of the same problem.
CASES = {
    "paper": lambda x, y, at, h: (x, y, at, h),
    "shift-1e6": lambda x, y, at, h: (x + 1e6, y, at + 1e6, h),
    "scale-1e-6": lambda x, y, at, h: (x * 1e-6, y, at * 1e-6, h * 1e-6),
    "scale-1e6": lambda x, y, at, h: (x * 1e6, y, at * 1e6, h * 1e6),
    "tied-0.1": lambda x, y, at, h: (np.round(x, 1), y, at, h),
    "float32": lambda x, y, at, h: (
        x.astype(np.float32), y.astype(np.float32), at, h
    ),
    "constant-x": lambda x, y, at, h: (np.full_like(x, 0.5), y, at, h),
}


def case_sample(case):
    s = paper_dgp(200, seed=5)
    h = 0.1
    # The last point sits 100 bandwidths past the data, where even the
    # Gaussian weight underflows to 0: its window is empty for every kernel.
    at = np.append(np.linspace(-0.1, 1.1, 25), 1.0 + 100 * h)
    return CASES[case](s.x, s.y, at, h)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("kernel", list_kernels())
def test_matches_dense_oracle(kernel, case):
    x, y, at, h = case_sample(case)
    want, want_valid = dense_nw(x, y, at, h, kernel)
    assert want_valid.any() and not want_valid.all()
    model = NadarayaWatson(kernel, bandwidth=h).fit(x, y)
    for est, valid in (
        nw_estimate(x, y, at, h, kernel),
        model.predict_with_validity(at),
    ):
        np.testing.assert_array_equal(valid, want_valid)
        np.testing.assert_allclose(est, want, rtol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_x_is_a_data_shape_error(bad):
    x, y, at, h = case_sample("paper")
    x = x.copy()
    x[7] = bad
    for call in (
        lambda: nw_estimate(x, y, at, h),
        lambda: NadarayaWatson(bandwidth=h).fit(x, y),
    ):
        with pytest.raises(ValidationError) as info:
            call()
        assert error_code(info.value) == "REPRO_DATA_SHAPE"
