"""Tests for the blocked fast-grid sweep and its one sizing rule.

The headline claim — "the n = 20,000 memory wall is gone" — is proven
two ways: bit-for-bit equality of the blocked CV curve (``numpy`` under
a row cap or a memory budget, and ``blocked-shm``) with the all-at-once
numpy sweep at every partition, and a tracemalloc guard holding the real
allocation peak of a budgeted sweep to within 1.5× of the plan's
``predicted_peak_bytes``, on the binned and on the sorted path.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.blockwise import _balanced, cv_scores_blocked_shm
from repro.core.fastgrid import (
    cv_scores_fastgrid,
    plan_fastgrid_blocks,
    window_sum_path,
)
from repro.exceptions import MemoryBudgetError, ValidationError

GRID16 = np.linspace(0.02, 0.6, 16)


def _sample(n: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, n)
    y = np.sin(2.0 * np.pi * x) + rng.normal(0.0, 0.3, n)
    return x, y


class TestPlanFor:
    def test_kernel_polynomial_terms_drive_the_row_cost(self) -> None:
        # Epanechnikov sweeps two polynomial terms per row, uniform one:
        # the same budget must therefore fit more uniform rows, on the
        # binned path (n = 250) and on the sorted path (n = 4,000).
        for n in (250, 4000):
            epa = plan_fastgrid_blocks(
                n, GRID16, "epanechnikov", memory_budget="64MiB"
            )
            uni = plan_fastgrid_blocks(
                n, GRID16, "uniform", memory_budget="64MiB"
            )
            assert uni.bytes_per_row < epa.bytes_per_row
            assert uni.block_rows >= epa.block_rows

    @pytest.mark.parametrize("n", [400, 4000])
    def test_output_matrix_variant_plans_smaller_blocks(self, n) -> None:
        bare = plan_fastgrid_blocks(
            n, GRID16, "epanechnikov", memory_budget="64MiB"
        )
        shm = plan_fastgrid_blocks(
            n, GRID16, "epanechnikov", memory_budget="64MiB",
            output_matrix=True,
        )
        assert shm.fixed_bytes == bare.fixed_bytes + n * 16 * 8
        assert shm.block_rows <= bare.block_rows

    @pytest.mark.parametrize("budget", [None, "1GiB"])
    def test_block_rows_override_wins(self, budget) -> None:
        plan = plan_fastgrid_blocks(
            4000, GRID16, "epanechnikov", memory_budget=budget, max_rows=17
        )
        assert plan.block_rows == 17

    @pytest.mark.parametrize("n", [400, 20_000])
    def test_impossible_budget_is_typed(self, n) -> None:
        from repro.utils.membudget import MEMORY_BUDGET_ENV

        with pytest.raises(MemoryBudgetError) as info:
            plan_fastgrid_blocks(n, GRID16, "epanechnikov", memory_budget=4096)
        assert info.value.code == "REPRO_MEM_BUDGET"
        assert MEMORY_BUDGET_ENV in str(info.value)

    def test_row_model_follows_the_window_sum_path(self) -> None:
        # Binned rows hold O(n) bytes, sorted rows O(k): tenfold n grows
        # a binned row tenfold and leaves a sorted row unchanged, while
        # the sorted sample's O(n) residency lands in the fixed bytes.
        assert window_sum_path(250, 16, "epanechnikov") == "binned"
        assert window_sum_path(4000, 16, "epanechnikov") == "sorted"
        binned = plan_fastgrid_blocks(250, GRID16, "epanechnikov")
        binned32 = plan_fastgrid_blocks(
            250, GRID16, "epanechnikov", dtype="float32"
        )
        small = plan_fastgrid_blocks(4000, GRID16, "epanechnikov")
        large = plan_fastgrid_blocks(40_000, GRID16, "epanechnikov")
        assert binned32.bytes_per_row < binned.bytes_per_row
        assert large.bytes_per_row == small.bytes_per_row
        assert large.fixed_bytes > 9 * small.fixed_bytes
        assert small.bytes_per_row < binned.bytes_per_row

    @pytest.mark.parametrize(
        ("n", "k", "rows", "blocks"),
        [(8000, 50, 8192, 1), (3163, 50, 4048, 1), (2000, 500, 256, 8)],
        ids=["exact-8k", "bagged-100k", "served-mix"],
    )
    def test_unbudgeted_sorted_rows_at_the_benchmark_shapes(
        self, n, k, rows, blocks, monkeypatch
    ) -> None:
        # exact-8k and a bagged-100k subsample sweep as one block; the
        # served shape's blocks hold 64 output cells per observation
        # (SORTED_BLOCK_CELLS_PER_N), 1 MiB each, not one 2,000-row block.
        from repro.core.fastgrid import SORTED_BLOCK_CELLS_PER_N
        from repro.utils.membudget import MEMORY_BUDGET_ENV

        monkeypatch.delenv(MEMORY_BUDGET_ENV, raising=False)
        grid = np.linspace(0.002, 0.1, k)
        assert window_sum_path(n, k, "epanechnikov") == "sorted"
        plan = plan_fastgrid_blocks(n, grid, "epanechnikov")
        assert plan.block_rows == min(8192, SORTED_BLOCK_CELLS_PER_N * n // k)
        assert plan.block_rows == rows
        assert plan.budget_bytes is None
        assert plan.n_blocks == blocks

    def test_unbudgeted_binned_rows_fit_the_binned_chunk_bytes(
        self, monkeypatch
    ) -> None:
        # float32 sweeps at the served shape (n = 2,000, k = 500) keep the
        # binned path, whose rows are O(n) bytes each.  Sized from the
        # row model against BINNED_CHUNK_BYTES they run in chunks of at
        # most 128 rows, not as one 2,000-row chunk of about 130 MiB;
        # rows too large for that keep BINNED_MIN_ROWS.
        from repro.core.fastgrid import BINNED_CHUNK_BYTES, BINNED_MIN_ROWS
        from repro.utils.membudget import MEMORY_BUDGET_ENV

        monkeypatch.delenv(MEMORY_BUDGET_ENV, raising=False)
        n, k = 2000, 500
        assert window_sum_path(n, k, "epanechnikov", "float32") == "binned"
        plan = plan_fastgrid_blocks(
            n, np.linspace(0.002, 0.1, k), "epanechnikov", "float32"
        )
        assert plan.block_rows == BINNED_CHUNK_BYTES // plan.bytes_per_row
        assert BINNED_MIN_ROWS < plan.block_rows <= 128
        assert plan.budget_bytes is None
        assert plan.n_blocks > 1
        large = plan_fastgrid_blocks(
            25_000, np.linspace(0.002, 0.1, 50), "epanechnikov", "float32"
        )
        assert large.bytes_per_row * BINNED_MIN_ROWS > BINNED_CHUNK_BYTES
        assert large.block_rows == BINNED_MIN_ROWS

    @pytest.mark.parametrize("n", [250, 4000])
    def test_a_budget_only_ever_lowers_the_rows(self, n) -> None:
        free = plan_fastgrid_blocks(n, GRID16, "epanechnikov")
        for budget in ("1GiB", "64MiB", "8MiB"):
            plan = plan_fastgrid_blocks(
                n, GRID16, "epanechnikov", memory_budget=budget
            )
            assert 1 <= plan.block_rows <= free.block_rows
            assert plan.predicted_peak_bytes <= plan.budget_bytes

    def test_env_budget_reaches_the_host_sweeps_not_the_planner(
        self, monkeypatch
    ) -> None:
        from repro.utils.membudget import MEMORY_BUDGET_ENV

        monkeypatch.setenv(MEMORY_BUDGET_ENV, "4KiB")
        # The planner honours only an explicit budget ...
        plan = plan_fastgrid_blocks(4000, GRID16, "epanechnikov")
        assert plan.budget_bytes is None
        # ... the host sweeps resolve the environment and pass it down.
        x, y = _sample(4000)
        with pytest.raises(MemoryBudgetError):
            cv_scores_fastgrid(x, y, GRID16, "epanechnikov")
        with pytest.raises(MemoryBudgetError):
            cv_scores_blocked_shm(x, y, GRID16, "epanechnikov", workers=1)

    @pytest.mark.parametrize("n", [2000, 8000, 20_000])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_blocked_shm_gives_every_worker_the_same_block_count(
        self, n, workers
    ) -> None:
        grid = np.linspace(0.002, 0.1, 50)
        plan = plan_fastgrid_blocks(
            n, grid, "epanechnikov", output_matrix=True
        )
        balanced = _balanced(plan, workers)
        assert balanced.n_blocks % workers == 0
        assert balanced.n_blocks >= plan.n_blocks
        assert balanced.block_rows <= plan.block_rows
        sizes = {stop - start for start, stop in balanced.blocks()}
        assert max(sizes) - min(sizes) <= balanced.block_rows // 2


class TestBlockedEqualsDense:
    def test_blocked_matches_fastgrid_bit_for_bit(self) -> None:
        x, y = _sample(157)
        grid = np.linspace(0.02, 0.6, 9)
        ref = cv_scores_fastgrid(x, y, grid, "epanechnikov")
        for rows in (1, 13, 156, 157, 400):
            got = cv_scores_fastgrid(
                x, y, grid, "epanechnikov", block_rows=rows
            )
            assert got.tobytes() == ref.tobytes(), f"B={rows}"

    @pytest.mark.parametrize(("path", "n"), [("sorted", 600), ("binned", 157)])
    @pytest.mark.parametrize("block_rows", [32, 100])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_blocked_shm_matches_fastgrid_bit_for_bit(
        self, workers, block_rows, path, n
    ) -> None:
        # Every partition of the rows over blocks and workers folds to the
        # all-at-once numpy bits, on both window-sum paths.
        x, y = _sample(n, seed=5)
        grid = np.linspace(0.02, 0.6, 7)
        assert window_sum_path(n, grid.size, "epanechnikov") == path
        ref = cv_scores_fastgrid(x, y, grid, "epanechnikov")
        got = cv_scores_blocked_shm(
            x, y, grid, "epanechnikov", block_rows=block_rows, workers=workers
        )
        assert got.tobytes() == ref.tobytes()

    def test_blocked_shm_odd_partitions_match_fastgrid(self) -> None:
        x, y = _sample(157, seed=5)
        grid = np.linspace(0.02, 0.6, 7)
        ref = cv_scores_fastgrid(x, y, grid, "epanechnikov")
        for rows, workers in ((13, 3), (1, 2), (157, 4), (50, 1)):
            got = cv_scores_blocked_shm(
                x, y, grid, "epanechnikov", block_rows=rows, workers=workers
            )
            assert got.tobytes() == ref.tobytes(), f"B={rows}, w={workers}"

    def test_budget_string_accepted_end_to_end(self) -> None:
        x, y = _sample(300, seed=2)
        grid = np.linspace(0.05, 0.5, 5)
        ref = cv_scores_fastgrid(x, y, grid, "uniform")
        got = cv_scores_fastgrid(
            x, y, grid, "uniform", memory_budget="16MiB"
        )
        assert got.tobytes() == ref.tobytes()

    def test_validation_still_applies(self) -> None:
        with pytest.raises(ValidationError):
            cv_scores_fastgrid(
                np.arange(5.0), np.arange(4.0), np.array([0.1]),
                "epanechnikov", memory_budget="16MiB",
            )
        x, y = _sample(50)
        with pytest.raises(ValidationError):
            cv_scores_fastgrid(x, y, np.array([0.1]), block_rows=0)


class TestMemoryWall:
    """tracemalloc-verified: the planner's peak model is honest."""

    def _measured_peak(
        self, n: int, budget: str, k: int = 8, path: str = "binned"
    ) -> tuple[int, int]:
        x, y = _sample(n, seed=11)
        grid = np.linspace(0.02, 0.6, k)
        assert window_sum_path(n, k, "epanechnikov") == path
        plan = plan_fastgrid_blocks(
            n, grid, "epanechnikov", memory_budget=budget
        )
        assert plan.n_blocks > 1, "the wall test needs an actual partition"
        tracemalloc.start()
        try:
            scores = cv_scores_fastgrid(
                x, y, grid, "epanechnikov", memory_budget=budget
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite(scores).all()
        return peak, plan.predicted_peak_bytes

    def test_small_sweep_peak_within_prediction(self) -> None:
        # Fast guard for every run, binned path: n = 250, k = 50 under a
        # 4 MiB budget.
        peak, predicted = self._measured_peak(250, "4MiB", k=50)
        assert peak <= 1.5 * predicted, (peak, predicted)

    def test_small_sorted_sweep_peak_within_prediction(self) -> None:
        # The sorted path's rows are O(k), so a partition needs a budget
        # just above the sorted sample's residency: n = 2,000 in 4 MiB.
        peak, predicted = self._measured_peak(
            2_000, "4MiB", k=50, path="sorted"
        )
        assert peak <= 1.5 * predicted, (peak, predicted)

    @staticmethod
    def _unbudgeted_peak(n: int, grid: np.ndarray, monkeypatch) -> int:
        from repro.utils.membudget import MEMORY_BUDGET_ENV

        monkeypatch.delenv(MEMORY_BUDGET_ENV, raising=False)
        x, y = _sample(n, seed=3)
        tracemalloc.start()
        try:
            scores = cv_scores_fastgrid(x, y, grid, "epanechnikov")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite(scores).all()
        return peak

    def test_unbudgeted_binned_sweep_at_the_served_size(self, monkeypatch):
        # n = 2,000 on a grid the binned path keeps, with no budget:
        # chunks sized against BINNED_CHUNK_BYTES keep the real peak
        # small; one 2,000-row chunk at k = 500 peaked at about 260 MiB.
        grid = np.linspace(0.002, 0.1, 1500)
        assert window_sum_path(2000, grid.size, "epanechnikov") == "binned"
        peak = self._unbudgeted_peak(2000, grid, monkeypatch)
        assert peak <= 32 * 1024**2, peak

    def test_unbudgeted_sorted_sweep_at_the_served_shape(self, monkeypatch):
        # served-mix's cold sweep shape (n = 2,000, k = 500, sorted path)
        # on the paper grid it serves, with no budget: cell-sized tiles
        # and 256-row blocks.  1,024-row tiles held about 50 MiB of the
        # widest octave's temporaries here.
        x, _ = _sample(2000, seed=3)
        grid = np.linspace((x.max() - x.min()) / 500, x.max() - x.min(), 500)
        assert window_sum_path(2000, grid.size, "epanechnikov") == "sorted"
        peak = self._unbudgeted_peak(2000, grid, monkeypatch)
        assert peak <= 16 * 1024**2, peak

    @pytest.mark.perf
    def test_n20000_sweep_breaks_the_paper_wall(self) -> None:
        # n = 20,000 is where the paper's CUDA program dies of OOM
        # (Section IV-A).  Here the whole sorted-path sweep runs inside a
        # 64 MiB working set, and the planner's prediction bounds the
        # real tracemalloc peak to within 1.5x.
        peak, predicted = self._measured_peak(
            20_000, "64MiB", k=50, path="sorted"
        )
        assert peak <= 1.5 * predicted, (peak, predicted)
        assert peak < 128 * 1024**2


class TestDenseRowsOnTheExecutor:
    """Kernels without fast rows fold partition-invariant dense rows."""

    GRID = np.linspace(0.01, 0.2, 20)

    @pytest.mark.parametrize("kernel", ["gaussian", "cosine"])
    def test_dense_curve_bytes_ignore_the_partition(self, kernel) -> None:
        from repro.core.loocv import cv_scores_dense_grid

        x, y = _sample(157, seed=4)
        ref = cv_scores_dense_grid(x, y, self.GRID, kernel)
        for rows in (1, 7, 23, 157):
            got = cv_scores_dense_grid(x, y, self.GRID, kernel, chunk_rows=rows)
            assert got.tobytes() == ref.tobytes(), f"B={rows}"
        for workers in (2, 3):
            for rows in (None, 7):
                got = cv_scores_blocked_shm(
                    x, y, self.GRID, kernel, workers=workers, block_rows=rows
                )
                assert got.tobytes() == ref.tobytes(), f"w={workers}, B={rows}"

    def test_dense_blocks_are_balanced_over_the_workers(self) -> None:
        from repro.core.blockwise import plan_dense_blocks

        plan = plan_dense_blocks(1000, 5, 3, max_rows=64)
        assert plan.n_blocks % 3 == 0
        assert plan.block_rows <= 64
        assert plan.blocks()[-1][1] == 1000

    def test_cache_serves_the_default_curve_after_a_row_capped_sweep(
        self,
    ) -> None:
        # The curve key leaves block_rows out, so a capped sweep's curve
        # must be the default sweep's bytes.
        from repro.core.selectors import GridSearchSelector
        from repro.data import paper_dgp
        from repro.serving.cache import ArtifactCache

        s = paper_dgp(400, seed=5)
        grid = np.linspace(0.01, 0.2, 30)
        fresh = GridSearchSelector("gaussian", grid=grid).select(s.x, s.y)
        cache = ArtifactCache()
        GridSearchSelector(
            "gaussian", grid=grid, cache=cache, block_rows=7
        ).select(s.x, s.y)
        served = GridSearchSelector(
            "gaussian", grid=grid, cache=cache
        ).select(s.x, s.y)
        assert cache.stats.hits_by_kind.get("curve", 0) >= 1
        assert served.scores.tobytes() == fresh.scores.tobytes()
