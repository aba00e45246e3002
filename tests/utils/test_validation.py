"""Unit tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.exceptions import BandwidthGridError, DataShapeError, ValidationError
from repro.utils.validation import (
    as_float_array,
    check_bandwidth,
    check_paired_samples,
    check_positive_int,
    ensure_bandwidths,
)


class TestAsFloatArray:
    def test_list_coerced_to_contiguous_float64(self):
        arr = as_float_array([1, 2, 3])
        assert arr.dtype == np.float64
        assert arr.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(arr, [1.0, 2.0, 3.0])

    def test_scalar_becomes_length_one(self):
        assert as_float_array(3.5).shape == (1,)

    def test_float32_dtype_respected(self):
        assert as_float_array([1.0], dtype=np.float32).dtype == np.float32

    def test_2d_rejected(self):
        with pytest.raises(DataShapeError, match="one-dimensional"):
            as_float_array(np.ones((2, 2)))

    def test_empty_rejected_by_default(self):
        with pytest.raises(DataShapeError, match="empty"):
            as_float_array([])

    def test_empty_allowed_when_requested(self):
        assert as_float_array([], allow_empty=True).size == 0

    def test_nan_rejected(self):
        with pytest.raises(DataShapeError, match="NaN or infinite"):
            as_float_array([1.0, np.nan])

    def test_inf_rejected(self):
        with pytest.raises(DataShapeError, match="NaN or infinite"):
            as_float_array([np.inf, 1.0])

    def test_name_appears_in_error(self):
        with pytest.raises(DataShapeError, match="myarg"):
            as_float_array([[1.0]], name="myarg")


class TestCheckPairedSamples:
    def test_valid_pair_passes_through(self):
        x, y = check_paired_samples([1, 2, 3], [4, 5, 6])
        np.testing.assert_array_equal(x, [1, 2, 3])
        np.testing.assert_array_equal(y, [4, 5, 6])

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataShapeError, match="same length"):
            check_paired_samples([1, 2, 3], [1, 2])

    def test_min_size_enforced(self):
        with pytest.raises(DataShapeError, match="at least 3"):
            check_paired_samples([1, 2], [1, 2])

    def test_custom_min_size(self):
        x, y = check_paired_samples([1, 2], [1, 2], min_size=2)
        assert x.shape == (2,)


class TestCheckPositiveInt:
    def test_accepts_python_and_numpy_ints(self):
        assert check_positive_int(5, name="n") == 5
        assert check_positive_int(np.int64(7), name="n") == 7

    def test_rejects_bool(self):
        with pytest.raises(ValidationError):
            check_positive_int(True, name="n")

    def test_rejects_zero_and_negative(self):
        with pytest.raises(ValidationError):
            check_positive_int(0, name="n")
        with pytest.raises(ValidationError):
            check_positive_int(-3, name="n")

    def test_rejects_float(self):
        with pytest.raises(ValidationError):
            check_positive_int(2.5, name="n")

    def test_maximum_enforced(self):
        with pytest.raises(ValidationError, match="<= 10"):
            check_positive_int(11, name="n", maximum=10)


class TestEnsureBandwidths:
    def test_sorted_positive_grid_ok(self):
        grid = ensure_bandwidths([0.1, 0.2, 0.5])
        np.testing.assert_array_equal(grid, [0.1, 0.2, 0.5])

    def test_single_value_ok(self):
        assert ensure_bandwidths([0.3]).shape == (1,)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(BandwidthGridError, match="positive"):
            ensure_bandwidths([0.0, 0.1])

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(BandwidthGridError, match="positive"):
            ensure_bandwidths([-0.1, 0.1])

    def test_unsorted_rejected(self):
        with pytest.raises(BandwidthGridError, match="increasing"):
            ensure_bandwidths([0.2, 0.1])

    def test_duplicates_rejected(self):
        with pytest.raises(BandwidthGridError, match="increasing"):
            ensure_bandwidths([0.1, 0.1, 0.2])


def _bandwidth_entry_points():
    from repro.core.loocv import cv_score, cv_score_reference, loo_estimates
    from repro.kde import KernelDensity, kde_evaluate, lscv_score
    from repro.regression.nadaraya_watson import NadarayaWatson, nw_estimate

    x = np.linspace(0.0, 1.0, 20)
    y = x * x
    return {
        "cv_score": lambda h: cv_score(x, y, h),
        "cv_score_reference": lambda h: cv_score_reference(x, y, h),
        "loo_estimates": lambda h: loo_estimates(x, y, h),
        "lscv_score": lambda h: lscv_score(x, h),
        "kde_evaluate": lambda h: kde_evaluate(x, x, h),
        "KernelDensity": lambda h: KernelDensity(bandwidth=h),
        "nw_estimate": lambda h: nw_estimate(x, y, x, h),
        "NadarayaWatson": lambda h: NadarayaWatson(bandwidth=h),
    }


ENTRY_POINTS = sorted(_bandwidth_entry_points())


class TestCheckBandwidth:
    def test_finite_positive_passes_as_float(self):
        assert check_bandwidth(np.float32(0.5)) == 0.5
        assert type(check_bandwidth(2)) is float

    # NaN used to score 0.0 (every window empty), the best score possible.
    @pytest.mark.parametrize("h", [np.nan, np.inf, -np.inf, 0.0, -0.1])
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_every_entry_point_raises_the_typed_error(self, entry, h):
        call = _bandwidth_entry_points()[entry]
        with pytest.raises(ValidationError) as info:
            call(h)
        assert info.value.code == "REPRO_VALIDATION"
