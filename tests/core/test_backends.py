"""Tests for the grid-backend registry and dispatch."""

import numpy as np
import pytest

from repro.core.backends import (
    BACKEND_REGISTRY,
    get_backend,
    list_backends,
    register_backend,
)
from repro.exceptions import BackendError


class TestRegistry:
    def test_builtin_backends_present(self):
        names = set(list_backends())
        assert {"python", "numpy", "blocked-shm"} <= names

    @pytest.mark.parametrize("name", ["multicore", "blocked"])
    def test_deleted_names_are_unknown(self, name):
        with pytest.raises(BackendError, match="unknown backend") as info:
            get_backend(name)
        assert info.value.code == "REPRO_BACKEND"

    def test_unknown_backend_rejected(self):
        with pytest.raises(BackendError, match="unknown backend"):
            get_backend("fortran")

    def test_gpusim_lazily_registered(self):
        backend = get_backend("gpusim")
        assert callable(backend)
        assert "gpusim" in list_backends()

    def test_duplicate_registration_rejected(self):
        with pytest.raises(BackendError, match="already registered"):
            register_backend("numpy", lambda *a, **k: None)

    def test_register_and_overwrite_custom(self):
        sentinel = lambda *a, **k: np.zeros(1)  # noqa: E731
        try:
            register_backend("custom-test", sentinel)
            assert get_backend("custom-test") is sentinel
            replacement = lambda *a, **k: np.ones(1)  # noqa: E731
            register_backend("custom-test", replacement, overwrite=True)
            assert get_backend("custom-test") is replacement
        finally:
            BACKEND_REGISTRY.pop("custom-test", None)


class TestDispatchSemantics:
    def test_all_backends_agree(self, paper_sample_small, small_grid):
        s = paper_sample_small
        reference = None
        for name in ("python", "numpy", "blocked-shm"):
            backend = get_backend(name)
            scores = backend(s.x, s.y, small_grid.values, "epanechnikov")
            if reference is None:
                reference = scores
            else:
                np.testing.assert_allclose(scores, reference, rtol=1e-8)

    def test_numpy_backend_dense_fallback_for_gaussian(
        self, paper_sample_small, small_grid
    ):
        backend = get_backend("numpy")
        s = paper_sample_small
        scores = backend(s.x, s.y, small_grid.values, "gaussian")
        assert np.isfinite(scores).all()

    def test_multicore_backend_dense_fallback_for_cosine(
        self, paper_sample_small, small_grid
    ):
        # blocked-shm, the multi-core backend, evaluates dense kernels
        # serially: they have no row-contribution form to fan out.
        backend = get_backend("blocked-shm")
        s = paper_sample_small
        scores = backend(s.x, s.y, small_grid.values, "cosine", workers=2)
        ref = get_backend("numpy")(s.x, s.y, small_grid.values, "cosine")
        assert np.isfinite(scores).all()
        assert scores.tobytes() == ref.tobytes()

    def test_numpy_memory_budget_too_small_for_one_row_is_typed(
        self, paper_sample_small, small_grid
    ):
        from repro.exceptions import MemoryBudgetError

        s = paper_sample_small
        with pytest.raises(MemoryBudgetError) as info:
            get_backend("numpy")(
                s.x, s.y, small_grid.values, "epanechnikov", memory_budget=64
            )
        assert info.value.code == "REPRO_MEM_BUDGET"
        # The default backend of the public entry point takes it too.
        from repro import select_bandwidth

        with pytest.raises(MemoryBudgetError):
            select_bandwidth(s.x, s.y, n_bandwidths=8, memory_budget=64)

    def test_numpy_rejects_the_old_chunk_rows_name(
        self, paper_sample_small, small_grid
    ):
        s = paper_sample_small
        with pytest.raises(BackendError, match="block_rows") as info:
            get_backend("numpy")(
                s.x, s.y, small_grid.values, "epanechnikov", chunk_rows=7
            )
        assert info.value.code == "REPRO_BACKEND"

    @pytest.mark.parametrize("name", ["gpusim", "gpusim-tiled"])
    def test_device_programs_ignore_the_env_budget(
        self, name, paper_sample_small, small_grid, monkeypatch
    ):
        from repro.utils.membudget import MEMORY_BUDGET_ENV

        s = paper_sample_small
        ref = get_backend(name)(s.x, s.y, small_grid.values, "epanechnikov")
        # Far too small for one host row: the budget is the host sweeps'.
        monkeypatch.setenv(MEMORY_BUDGET_ENV, "4KiB")
        got = get_backend(name)(s.x, s.y, small_grid.values, "epanechnikov")
        assert got.tobytes() == ref.tobytes()
        from repro.resilience.engine import ResilienceConfig, ResilientEngine

        engine = ResilientEngine(ResilienceConfig(fallback=False))
        resilient = engine.cv_scores(
            s.x, s.y, small_grid.values, "epanechnikov", backend=name
        )
        np.testing.assert_allclose(resilient, ref, rtol=1e-5)

    def test_numpy_memory_budget_partition_keeps_the_bits(
        self, paper_sample_small, small_grid
    ):
        from repro.core.fastgrid import plan_fastgrid_blocks

        s = paper_sample_small
        budget = "64KiB"
        plan = plan_fastgrid_blocks(
            s.x.shape[0], small_grid.values, "epanechnikov",
            memory_budget=budget,
        )
        assert plan.n_blocks > 1
        backend = get_backend("numpy")
        ref = backend(s.x, s.y, small_grid.values, "epanechnikov")
        got = backend(
            s.x, s.y, small_grid.values, "epanechnikov", memory_budget=budget
        )
        assert got.tobytes() == ref.tobytes()
