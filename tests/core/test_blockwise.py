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
        # binned path (n = 400) and on the sorted path (n = 4,000).
        for n in (400, 4000):
            epa = plan_fastgrid_blocks(
                n, GRID16, "epanechnikov", memory_budget="64MiB"
            )
            uni = plan_fastgrid_blocks(
                n, GRID16, "uniform", memory_budget="64MiB"
            )
            assert uni.bytes_per_row < epa.bytes_per_row
            assert uni.block_rows >= epa.block_rows

    def test_output_matrix_variant_plans_smaller_blocks(self) -> None:
        bare = plan_fastgrid_blocks(
            4000, GRID16, "epanechnikov", memory_budget="64MiB"
        )
        shm = plan_fastgrid_blocks(
            4000, GRID16, "epanechnikov", memory_budget="64MiB",
            output_matrix=True,
        )
        assert shm.fixed_bytes == bare.fixed_bytes + 4000 * 16 * 8
        assert shm.block_rows <= bare.block_rows

    def test_block_rows_override_wins(self) -> None:
        plan = plan_fastgrid_blocks(4000, GRID16, "epanechnikov", max_rows=17)
        assert plan.block_rows == 17

    def test_impossible_budget_is_typed(self) -> None:
        with pytest.raises(MemoryBudgetError) as info:
            plan_fastgrid_blocks(
                20_000, GRID16, "epanechnikov", memory_budget=4096
            )
        assert info.value.code == "REPRO_MEM_BUDGET"

    def test_row_model_follows_the_window_sum_path(self) -> None:
        # Binned rows hold O(n) bytes, sorted rows O(k): tenfold n grows
        # a binned row tenfold and leaves a sorted row unchanged, while
        # the sorted sample's O(n) residency lands in the fixed bytes.
        assert window_sum_path(400, 16, "epanechnikov") == "binned"
        assert window_sum_path(4000, 16, "epanechnikov") == "sorted"
        binned = plan_fastgrid_blocks(400, GRID16, "epanechnikov")
        binned32 = plan_fastgrid_blocks(
            400, GRID16, "epanechnikov", dtype="float32"
        )
        small = plan_fastgrid_blocks(4000, GRID16, "epanechnikov")
        large = plan_fastgrid_blocks(40_000, GRID16, "epanechnikov")
        assert binned32.bytes_per_row < binned.bytes_per_row
        assert large.bytes_per_row == small.bytes_per_row
        assert large.fixed_bytes > 9 * small.fixed_bytes
        assert small.bytes_per_row < binned.bytes_per_row

    @pytest.mark.parametrize(
        ("n", "k", "path"),
        [(8000, 50, "sorted"), (3163, 50, "sorted"), (2000, 500, "binned")],
    )
    def test_unbudgeted_rows_are_one_chunk_at_the_benchmark_shapes(
        self, n, k, path, monkeypatch
    ) -> None:
        from repro.utils.chunking import suggest_chunk_rows
        from repro.utils.membudget import MEMORY_BUDGET_ENV

        monkeypatch.delenv(MEMORY_BUDGET_ENV, raising=False)
        grid = np.linspace(0.002, 0.1, k)
        assert window_sum_path(n, k, "epanechnikov") == path
        plan = plan_fastgrid_blocks(n, grid, "epanechnikov")
        if path == "sorted":
            expected = suggest_chunk_rows(k, working_arrays=8 * 3 + 4 * 2 + 16)
        else:
            expected = suggest_chunk_rows(n, working_arrays=4 + 2)
        assert plan.block_rows == expected
        assert plan.budget_bytes is None
        assert plan.n_blocks == 1

    @pytest.mark.parametrize("n", [400, 4000])
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

    def test_blocked_shm_matches_fastgrid_bit_for_bit(self) -> None:
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
        # Fast guard for every run, binned path: n = 400, k = 50 under a
        # 4 MiB budget.
        peak, predicted = self._measured_peak(400, "4MiB", k=50)
        assert peak <= 1.5 * predicted, (peak, predicted)

    def test_small_sorted_sweep_peak_within_prediction(self) -> None:
        # The sorted path's rows are O(k), so a partition needs a budget
        # just above the sorted sample's residency: n = 2,000 in 4 MiB.
        peak, predicted = self._measured_peak(
            2_000, "4MiB", k=50, path="sorted"
        )
        assert peak <= 1.5 * predicted, (peak, predicted)

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
