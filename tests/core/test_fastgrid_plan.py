"""The fast-grid block planner: pinned plans and the budget fit.

``fastgrid_plans.json`` pins :func:`plan_fastgrid_blocks` ``to_dict()``
over both window-sum paths, float64 and float32, three kernels, no
budget / 64 MiB / 4 GiB, ``output_matrix`` on and off and a ``max_rows``
cap (``REPRO_MEM_BUDGET`` where the budget refuses), plus
:func:`default_tile_rows` on both simulated devices.  Any change to the
working-set model shows up as a changed entry.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fastgrid import plan_fastgrid_blocks, window_sum_path
from repro.cuda_port.tiled import default_tile_rows
from repro.exceptions import MemoryBudgetError, ValidationError
from repro.utils.membudget import (
    MEMORY_BUDGET_ENV,
    parse_byte_budget,
    requested_budget,
)

TABLE = json.loads((Path(__file__).parent / "fastgrid_plans.json").read_text())

#: An explicit budget for the cases that only test the plan's shape logic.
GIB = 1024**3

KERNELS = ("epanechnikov", "uniform", "tricube")


def _grid(name: str) -> np.ndarray:
    spacing, lo, hi, k = TABLE["grids"][name]
    return getattr(np, spacing)(lo, hi, k)


class TestPinnedPlans:
    def test_every_case_reproduces_its_plan(self) -> None:
        mismatches = []
        for case in TABLE["plans"]:
            n, grid, kernel, dtype, budget, output_matrix, max_rows, path, want = case
            values = _grid(grid)
            assert window_sum_path(n, values.shape[0], kernel, dtype) == path
            try:
                plan = plan_fastgrid_blocks(
                    n, values, kernel, dtype, memory_budget=budget,
                    max_rows=max_rows, output_matrix=output_matrix,
                ).to_dict()
                got = [plan[key] for key in TABLE["plan_keys"]]
            except MemoryBudgetError as exc:
                got = exc.code
            if got != want:
                mismatches.append((case[:-1], want, got))
        assert not mismatches, mismatches[:5]

    def test_the_table_covers_both_paths_and_refusals(self) -> None:
        paths = {case[7] for case in TABLE["plans"]}
        refusals = {
            case[7] for case in TABLE["plans"] if case[-1] == "REPRO_MEM_BUDGET"
        }
        assert paths == refusals == {"binned", "sorted"}

    def test_default_tile_rows_are_pinned(self) -> None:
        for n, device, rows in TABLE["tile_rows"]:
            assert default_tile_rows(n, device) == rows


plans = st.tuples(
    st.integers(1, 5000),        # n
    st.integers(1, 64),          # k
    st.sampled_from(KERNELS),
    st.sampled_from(["float64", "float32"]),
)


def _plan(draw, **options):
    n, k, kernel, dtype = draw
    return plan_fastgrid_blocks(
        n, np.linspace(0.002, 0.5, k), kernel, dtype, **options
    )


class TestBudgetFit:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(draw=plans)
    def test_blocks_partition_range_n(self, draw) -> None:
        n = draw[0]
        plan = _plan(draw, memory_budget=GIB)
        spans = plan.blocks()
        assert spans[0][0] == 0 and spans[-1][1] == n
        assert len(spans) == plan.n_blocks
        for (_, stop), (nxt, _) in zip(spans, spans[1:]):
            assert stop == nxt  # contiguous, no gap, no overlap
        assert all(0 < hi - lo <= plan.block_rows for lo, hi in spans)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(draw=plans)
    def test_predicted_peak_respects_budget(self, draw) -> None:
        budget = 256 * 1024**2
        plan = _plan(draw, memory_budget=budget)
        assert plan.predicted_peak_bytes <= budget
        assert plan.budget_bytes == budget

    def test_budget_error_is_a_caller_bug_not_a_fault(self) -> None:
        # An impossible budget must propagate, not trigger degradation:
        # the numpy fallback would blow the very limit the user set.
        from repro.resilience.degrade import is_degradable, is_retryable

        exc = MemoryBudgetError("too small")
        assert isinstance(exc, ValidationError)
        assert not is_degradable(exc)
        assert not is_retryable(exc)

    def test_budgeted_block_rows_never_exceed_n(self) -> None:
        plan = plan_fastgrid_blocks(
            10, np.linspace(0.02, 0.6, 4), "epanechnikov", memory_budget=10**12
        )
        assert plan.block_rows == 10
        assert plan.n_blocks == 1

    def test_env_budget_drives_the_plan(self, monkeypatch) -> None:
        monkeypatch.setenv(MEMORY_BUDGET_ENV, "32MiB")
        plan = plan_fastgrid_blocks(
            20_000, np.linspace(0.02, 0.6, 8), "epanechnikov",
            memory_budget=requested_budget(),
        )
        assert plan.budget_bytes == 32 * 1024**2
        assert plan.n_blocks > 1

    @pytest.mark.parametrize(("n", "k"), [(0, 4), (10, 0)])
    def test_degenerate_shapes_rejected(self, n, k) -> None:
        with pytest.raises(ValidationError):
            plan_fastgrid_blocks(
                n, np.linspace(0.02, 0.6, k), "epanechnikov", memory_budget=GIB
            )

    def test_to_dict_round_trips_the_properties(self) -> None:
        plan = plan_fastgrid_blocks(
            5000, np.linspace(0.02, 0.6, 12), "epanechnikov",
            memory_budget=parse_byte_budget("64MiB"),
        )
        snap = plan.to_dict()
        assert snap["n_blocks"] == plan.n_blocks
        assert snap["predicted_peak_bytes"] == plan.predicted_peak_bytes
        assert all(
            isinstance(value, (int, np.integer)) for value in snap.values()
        )


class TestDefaultTileRows:
    # Half the Tesla's 4 GiB over two float32 n-long tile buffers.
    HALF = 4 * 1024**3 // 2

    def test_clamped_to_one_row(self) -> None:
        # One row of two float32 buffers larger than half the device.
        assert default_tile_rows(self.HALF // 8 + 1) == 1

    def test_nonpositive_n_rejected(self) -> None:
        with pytest.raises(ValidationError):
            default_tile_rows(0)
