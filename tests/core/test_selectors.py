"""Tests for the bandwidth selectors (the paper's four programs)."""

import numpy as np
import pytest

from repro.core.grid import BandwidthGrid
from repro.core.loocv import cv_score
from repro.core.selectors import (
    GridSearchSelector,
    NumericalOptimizationSelector,
    RuleOfThumbSelector,
    rule_of_thumb_bandwidth,
)
from repro.core.api import select_bandwidth
from repro.core.backends import BACKEND_REGISTRY, register_backend
from repro.data import paper_dgp, sine_dgp
from repro.exceptions import BackendError, SelectionError, ValidationError


class TestGridSearchSelector:
    def test_selects_grid_minimum(self, paper_sample_medium):
        s = paper_sample_medium
        sel = GridSearchSelector(n_bandwidths=30)
        res = sel.select(s.x, s.y)
        j = int(np.argmin(res.scores))
        assert res.bandwidth == pytest.approx(res.bandwidths[j])
        assert res.score == pytest.approx(res.scores[j])
        assert res.n_evaluations == 30
        assert res.converged

    def test_explicit_grid_respected(self, paper_sample_medium):
        s = paper_sample_medium
        grid = BandwidthGrid(np.array([0.05, 0.1, 0.2]))
        res = GridSearchSelector(grid=grid).select(s.x, s.y)
        assert res.bandwidth in grid.values

    def test_result_metadata(self, paper_sample_medium):
        s = paper_sample_medium
        res = GridSearchSelector(kernel="biweight", n_bandwidths=10).select(s.x, s.y)
        assert res.method == "grid-search"
        assert res.backend == "numpy"
        assert res.kernel == "biweight"
        assert res.n_observations == s.n
        assert res.wall_seconds > 0.0

    def test_python_backend_same_choice(self, paper_sample_small):
        s = paper_sample_small
        a = GridSearchSelector(n_bandwidths=10, backend="numpy").select(s.x, s.y)
        b = GridSearchSelector(n_bandwidths=10, backend="python").select(s.x, s.y)
        assert a.bandwidth == pytest.approx(b.bandwidth)
        np.testing.assert_allclose(a.scores, b.scores, rtol=1e-8)

    def test_multicore_backend_same_scores(self, paper_sample_medium):
        # blocked-shm is the multi-core grid backend.
        s = paper_sample_medium
        a = GridSearchSelector(n_bandwidths=15, backend="numpy").select(s.x, s.y)
        b = GridSearchSelector(
            n_bandwidths=15, backend="blocked-shm", workers=2
        ).select(s.x, s.y)
        assert a.scores.tobytes() == b.scores.tobytes()

    def test_gaussian_kernel_falls_back_to_dense(self, paper_sample_small):
        s = paper_sample_small
        res = GridSearchSelector(kernel="gaussian", n_bandwidths=6).select(s.x, s.y)
        assert res.kernel == "gaussian"
        assert np.isfinite(res.scores).all()

    def test_refinement_improves_or_keeps_score(self):
        s = sine_dgp(500, seed=3)
        coarse = GridSearchSelector(n_bandwidths=20).select(s.x, s.y)
        fine = GridSearchSelector(n_bandwidths=20, refine_rounds=2).select(s.x, s.y)
        assert fine.score <= coarse.score + 1e-15
        assert fine.n_evaluations == 60
        assert "refinements" in fine.diagnostics

    def test_negative_refine_rounds_rejected(self):
        with pytest.raises(ValidationError):
            GridSearchSelector(refine_rounds=-1)

    def test_too_small_sample_rejected(self):
        with pytest.raises(Exception):
            GridSearchSelector().select(np.array([1.0, 2.0]), np.array([1.0, 2.0]))


class TestBackendNameResolution:
    """Unknown names are refused up front; resilience only degrades
    around faults of backends that exist."""

    @pytest.mark.parametrize("resilience", [None, True])
    @pytest.mark.parametrize("method", ["grid", "bagged"])
    @pytest.mark.parametrize(
        "name", ["nope", "compiled", "blocked-compiled", "multicore", "blocked"]
    )
    def test_unknown_name_raises_typed_error(
        self, paper_sample_small, name, method, resilience
    ):
        s = paper_sample_small
        options = {"subsamples": 3, "subsample_size": 30} if method == "bagged" else {}
        with pytest.raises(BackendError, match="unknown backend") as info:
            select_bandwidth(
                s.x, s.y, method=method, backend=name, n_bandwidths=10,
                resilience=resilience, **options,
            )
        assert info.value.code == "REPRO_BACKEND"

    def test_registered_names_still_work_and_still_degrade(
        self, paper_sample_small
    ):
        s = paper_sample_small
        numpy_backend = BACKEND_REGISTRY["numpy"]

        def unavailable(*args, **kwargs):
            raise BackendError("device went away")

        register_backend("custom-ok", numpy_backend)
        register_backend("custom-gone", unavailable)
        try:
            ok = select_bandwidth(
                s.x, s.y, backend="custom-ok", n_bandwidths=10, resilience=True
            )
            assert ok.backend == "custom-ok"
            gone = select_bandwidth(
                s.x, s.y, backend="custom-gone", n_bandwidths=10,
                resilience=True,
            )
            assert gone.backend == "numpy"
            assert gone.resilience.degraded
            assert gone.scores.tobytes() == ok.scores.tobytes()
        finally:
            BACKEND_REGISTRY.pop("custom-ok", None)
            BACKEND_REGISTRY.pop("custom-gone", None)


class TestDegenerateBandwidthGuards:
    """h -> 0 empties every LOO window and CV_lc collapses to 0; both
    selector families must refuse that spurious optimum."""

    def test_optimiser_does_not_run_to_zero_bandwidth(self, paper_sample_medium):
        s = paper_sample_medium
        res = NumericalOptimizationSelector(
            n_restarts=3, seed=0, maxiter=120
        ).select(s.x, s.y)
        # Degenerate solutions sit at the lower bound (domain/1000) with
        # score exactly 0; a real optimum has a positive score.
        assert res.score > 0.0
        assert res.bandwidth > 2.0 * res.diagnostics["bounds"][0]

    def test_grid_skips_leading_empty_window_zeros(self):
        # Grid reaching far below the first-neighbour distance: the small
        # bandwidths score exactly 0 (all windows empty) and must lose.
        x = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        y = np.array([0.0, 1.0, 0.5, 1.5, 1.0])
        grid = BandwidthGrid(np.array([1e-6, 1e-5, 0.3, 0.6, 1.0]))
        res = GridSearchSelector(grid=grid).select(x, y)
        assert res.bandwidth >= 0.3
        assert res.score > 0.0

    def test_all_zero_scores_pick_largest_bandwidth(self):
        # Every grid point below the minimal pairwise distance: all
        # windows empty, all scores exactly 0 — the guard falls back to
        # maximal smoothing instead of crowning a spurious minimum.
        x = np.linspace(0, 1, 20)
        y = x + 1.0
        grid = BandwidthGrid(np.array([1e-6, 1e-5, 1e-4]))
        res = GridSearchSelector(grid=grid).select(x, y)
        np.testing.assert_array_equal(res.scores, 0.0)
        assert res.bandwidth == pytest.approx(1e-4)

    def test_constant_y_fits_perfectly_at_any_bandwidth(self):
        # Constant Y: scores are numerically ~0 everywhere; selection
        # still returns a positive bandwidth with (near-)zero score.
        x = np.linspace(0, 1, 20)
        y = np.full(20, 3.0)
        res = GridSearchSelector(n_bandwidths=10).select(x, y)
        assert res.bandwidth > 0.0
        assert res.score == pytest.approx(0.0, abs=1e-20)


class TestNumericalOptimizationSelector:
    def test_finds_near_grid_optimum(self, paper_sample_medium):
        s = paper_sample_medium
        grid_res = GridSearchSelector(n_bandwidths=200).select(s.x, s.y)
        num_res = NumericalOptimizationSelector(
            n_restarts=3, seed=0, maxiter=150
        ).select(s.x, s.y)
        # The optimiser should do at least as well as a dense grid up to
        # grid resolution (it can also do slightly better).
        assert num_res.score <= grid_res.score * 1.02

    def test_brent_method(self, paper_sample_small):
        s = paper_sample_small
        res = NumericalOptimizationSelector(
            method="brent", n_restarts=1, seed=0
        ).select(s.x, s.y)
        assert res.diagnostics["optimizer"] == "brent"
        assert res.bandwidth > 0.0

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError):
            NumericalOptimizationSelector(method="newton")

    def test_evaluation_trace_recorded(self, paper_sample_small):
        s = paper_sample_small
        res = NumericalOptimizationSelector(n_restarts=2, seed=1).select(s.x, s.y)
        assert res.n_evaluations == len(res.bandwidths) == len(res.scores)
        assert res.n_evaluations > 10  # optimisation is evaluation-hungry

    def test_restart_dispersion_possible(self):
        # §III: the objective is not concave; different restarts may land
        # on different local optima.  We only require the machinery to
        # track each restart separately.
        s = sine_dgp(300, seed=5)
        res = NumericalOptimizationSelector(n_restarts=4, seed=2).select(s.x, s.y)
        assert len(res.diagnostics["restarts"]) == 4
        hs = [r["h"] for r in res.diagnostics["restarts"]]
        assert min(hs) > 0.0

    def test_explicit_bounds_respected(self, paper_sample_small):
        s = paper_sample_small
        res = NumericalOptimizationSelector(
            method="brent", bounds=(0.05, 0.3), n_restarts=1
        ).select(s.x, s.y)
        assert 0.05 <= res.bandwidth <= 0.3

    def test_invalid_bounds_rejected(self, paper_sample_small):
        s = paper_sample_small
        sel = NumericalOptimizationSelector(bounds=(0.5, 0.1))
        with pytest.raises(ValidationError):
            sel.select(s.x, s.y)

    def test_parallel_objective_matches_serial(self, paper_sample_small):
        s = paper_sample_small
        serial = NumericalOptimizationSelector(
            n_restarts=1, seed=3, workers=1, maxiter=40
        ).select(s.x, s.y)
        parallel = NumericalOptimizationSelector(
            n_restarts=1, seed=3, workers=2, maxiter=40
        ).select(s.x, s.y)
        assert serial.bandwidth == pytest.approx(parallel.bandwidth, rel=1e-6)
        assert parallel.backend == "multicore"


class TestRuleOfThumb:
    def test_bandwidth_formula_gaussian(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 2.0, 1000)
        h = rule_of_thumb_bandwidth(x, "gaussian")
        sd = np.std(x, ddof=1)
        q75, q25 = np.percentile(x, [75, 25])
        spread = min(sd, (q75 - q25) / 1.349)
        assert h == pytest.approx(1.06 * spread * 1000 ** (-0.2))

    def test_kernel_rescaling_enlarges_compact_kernels(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=500)
        h_gauss = rule_of_thumb_bandwidth(x, "gaussian")
        h_epa = rule_of_thumb_bandwidth(x, "epanechnikov")
        # Epanechnikov canonical bandwidth is ~2.3x the Gaussian's.
        assert h_epa > 2.0 * h_gauss

    def test_zero_spread_rejected(self):
        with pytest.raises(SelectionError):
            rule_of_thumb_bandwidth(np.ones(10))

    def test_selector_reports_cv_score(self, paper_sample_medium):
        s = paper_sample_medium
        res = RuleOfThumbSelector().select(s.x, s.y)
        assert res.method == "rule-of-thumb"
        assert res.score == pytest.approx(cv_score(s.x, s.y, res.bandwidth))
        assert res.n_evaluations == 1

    def test_rot_worse_than_cv_optimum_on_curved_data(self, paper_sample_medium):
        s = paper_sample_medium
        rot = RuleOfThumbSelector().select(s.x, s.y)
        grid = GridSearchSelector(n_bandwidths=50).select(s.x, s.y)
        assert rot.score >= grid.score
