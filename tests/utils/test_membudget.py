"""Unit and property tests for the blockwise memory-budget planner."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import MemoryBudgetError, ValidationError
from repro.utils.membudget import (
    MEMORY_BUDGET_ENV,
    parse_byte_budget,
    plan_blocks,
    requested_budget,
    rows_for_budget,
)

#: An explicit budget for the planner cases that only test its shape logic.
GIB = 1024**3


class TestParseByteBudget:
    @pytest.mark.parametrize(
        ("raw", "expected"),
        [
            (4096, 4096),
            (4096.9, 4096),  # fractional bytes truncate
            ("123", 123),
            ("2GB", 2 * 1024**3),
            ("2GiB", 2 * 1024**3),
            ("512MiB", 512 * 1024**2),
            ("64mb", 64 * 1024**2),
            ("1.5kb", 1536),
            (" 8 KiB ", 8192),
            ("3tb", 3 * 1024**4),
        ],
    )
    def test_accepted_spellings(self, raw, expected) -> None:
        assert parse_byte_budget(raw) == expected

    def test_bare_gb_is_binary(self) -> None:
        # "2GB" means 2 GiB here: a decimal reading would silently
        # under-provision the plan by 7%.
        assert parse_byte_budget("2GB") == parse_byte_budget("2GiB")

    @pytest.mark.parametrize("raw", ["", "GB", "2 light-years", "1e9", "-2GB"])
    def test_unparseable_strings_are_typed_errors(self, raw) -> None:
        with pytest.raises(ValidationError):
            parse_byte_budget(raw)

    @pytest.mark.parametrize("raw", [0, -1, 0.2, "0", "0.0001b"])
    def test_nonpositive_budgets_rejected(self, raw) -> None:
        with pytest.raises(ValidationError, match="positive"):
            parse_byte_budget(raw)

    def test_bool_is_not_a_byte_count(self) -> None:
        # bool subclasses int; accepting True as "1 byte" would hide a
        # caller bug forever.
        with pytest.raises(ValidationError):
            parse_byte_budget(True)

    @pytest.mark.parametrize(
        ("raw", "expected"),
        [
            ("1.5GiB", int(1.5 * 1024**3)),
            ("1.5GB", int(1.5 * 1024**3)),  # bare GB is binary too
            ("0.5tb", 1024**4 // 2),
            ("2.75MiB", int(2.75 * 1024**2)),
            ("1.5gIb", int(1.5 * 1024**3)),  # unit case-insensitive
            ("2.9b", 2),  # fractional bytes truncate toward zero
        ],
    )
    def test_fractional_binary_units(self, raw, expected) -> None:
        assert parse_byte_budget(raw) == expected

    @pytest.mark.parametrize(
        "raw",
        [
            "1.5.5GB",   # two decimal points
            "GB2",       # unit before the number
            "two GB",    # spelled-out magnitude
            "1,000",     # thousands separator
            "1_000",     # underscore separator (int() would take it)
            "+2GB",      # explicit sign
            "2 giga",    # unknown unit
            "0x400",     # hex
            "nan",
            "infGiB",
        ],
    )
    def test_more_unparseable_spellings(self, raw) -> None:
        with pytest.raises(ValidationError) as info:
            parse_byte_budget(raw)
        # Typed, self-describing error — not a bare ValueError from int().
        assert info.value.code == "REPRO_VALIDATION"
        assert repr(raw) in str(info.value)


class TestResolveBudget:
    def test_explicit_beats_environment(self, monkeypatch) -> None:
        monkeypatch.setenv(MEMORY_BUDGET_ENV, "64MiB")
        assert requested_budget("2GiB") == 2 * 1024**3

    def test_environment_beats_default(self, monkeypatch) -> None:
        monkeypatch.setenv(MEMORY_BUDGET_ENV, "64MiB")
        assert requested_budget() == 64 * 1024**2

    def test_default_when_nothing_set(self, monkeypatch) -> None:
        monkeypatch.delenv(MEMORY_BUDGET_ENV, raising=False)
        assert requested_budget() is None  # unbudgeted

    def test_blank_environment_is_ignored(self, monkeypatch) -> None:
        monkeypatch.setenv(MEMORY_BUDGET_ENV, "   ")
        assert requested_budget() is None

    def test_bad_environment_value_is_loud(self, monkeypatch) -> None:
        monkeypatch.setenv(MEMORY_BUDGET_ENV, "lots")
        with pytest.raises(ValidationError):
            requested_budget()

    def test_explicit_budget_never_consults_environment(self, monkeypatch) -> None:
        # A broken env var must not poison calls that pass their own
        # budget: the argument short-circuits before the env is read.
        monkeypatch.setenv(MEMORY_BUDGET_ENV, "not-a-budget")
        assert requested_budget("64MiB") == 64 * 1024**2

    def test_invalid_explicit_budget_raises_despite_valid_env(
        self, monkeypatch
    ) -> None:
        # Precedence is strict: an invalid argument is the caller's bug
        # and must not silently fall back to the (valid) environment.
        monkeypatch.setenv(MEMORY_BUDGET_ENV, "64MiB")
        with pytest.raises(ValidationError):
            requested_budget("lots")

    def test_fractional_env_budget(self, monkeypatch) -> None:
        monkeypatch.setenv(MEMORY_BUDGET_ENV, "1.5GiB")
        assert requested_budget() == int(1.5 * 1024**3)

    def test_tab_newline_environment_is_ignored(self, monkeypatch) -> None:
        monkeypatch.setenv(MEMORY_BUDGET_ENV, "\t\n")
        assert requested_budget() is None


class TestRowsForBudget:
    def test_floor_division(self) -> None:
        assert rows_for_budget(1000, 300) == 3

    def test_clamped_to_maximum(self) -> None:
        assert rows_for_budget(10**9, 8, maximum=500) == 500

    def test_clamped_to_minimum(self) -> None:
        assert rows_for_budget(10, 300, minimum=1) == 1

    def test_nonpositive_per_row_rejected(self) -> None:
        with pytest.raises(ValidationError):
            rows_for_budget(1000, 0)


plans = st.tuples(
    st.integers(1, 5000),        # n
    st.integers(1, 64),          # k
    st.integers(1, 4),           # n_terms
    st.sampled_from([4, 8]),     # itemsize
)


class TestPlanBlocks:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(draw=plans)
    def test_blocks_partition_range_n(self, draw) -> None:
        n, k, n_terms, itemsize = draw
        plan = plan_blocks(n, k, n_terms=n_terms, itemsize=itemsize, budget=GIB)
        spans = plan.blocks()
        assert spans[0][0] == 0 and spans[-1][1] == n
        assert len(spans) == plan.n_blocks
        for (_, stop), (nxt, _) in zip(spans, spans[1:]):
            assert stop == nxt  # contiguous, no gap, no overlap
        assert all(0 < hi - lo <= plan.block_rows for lo, hi in spans)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(draw=plans)
    def test_predicted_peak_respects_budget(self, draw) -> None:
        n, k, n_terms, itemsize = draw
        budget = 256 * 1024**2
        plan = plan_blocks(
            n, k, n_terms=n_terms, itemsize=itemsize, budget=budget
        )
        assert plan.predicted_peak_bytes <= budget
        assert plan.budget_bytes == budget

    def test_tiny_budget_raises_typed_error(self) -> None:
        with pytest.raises(MemoryBudgetError) as info:
            plan_blocks(20_000, 32, budget=1000)
        assert info.value.code == "REPRO_MEM_BUDGET"
        assert MEMORY_BUDGET_ENV in str(info.value)

    def test_budget_error_is_a_caller_bug_not_a_fault(self) -> None:
        # An impossible budget must propagate, not trigger degradation:
        # the numpy fallback would blow the very limit the user set.
        from repro.resilience.degrade import is_degradable, is_retryable

        exc = MemoryBudgetError("too small")
        assert isinstance(exc, ValidationError)
        assert not is_degradable(exc)
        assert not is_retryable(exc)

    def test_output_matrix_charges_fixed_bytes(self) -> None:
        bare = plan_blocks(1000, 16, budget=GIB)
        shm = plan_blocks(1000, 16, output_matrix=True, budget=GIB)
        assert shm.fixed_bytes == bare.fixed_bytes + 1000 * 16 * 8
        assert shm.block_rows <= bare.block_rows

    def test_max_rows_caps_the_block(self) -> None:
        plan = plan_blocks(10_000, 8, max_rows=64, budget=GIB)
        assert plan.block_rows <= 64

    def test_block_rows_never_exceed_n(self) -> None:
        plan = plan_blocks(10, 4, budget=10**12)
        assert plan.block_rows == 10
        assert plan.n_blocks == 1

    def test_env_budget_drives_the_plan(self, monkeypatch) -> None:
        monkeypatch.setenv(MEMORY_BUDGET_ENV, "32MiB")
        plan = plan_blocks(20_000, 8, budget=requested_budget())
        assert plan.budget_bytes == 32 * 1024**2
        assert plan.n_blocks > 1

    @pytest.mark.parametrize(
        ("n", "k", "n_terms"), [(0, 4, 2), (10, 0, 2), (10, 4, 0)]
    )
    def test_degenerate_shapes_rejected(self, n, k, n_terms) -> None:
        with pytest.raises(ValidationError):
            plan_blocks(n, k, n_terms=n_terms, budget=GIB)

    def test_to_dict_round_trips_the_properties(self) -> None:
        plan = plan_blocks(5000, 12, budget=parse_byte_budget("64MiB"))
        snap = plan.to_dict()
        assert snap["n_blocks"] == plan.n_blocks
        assert snap["predicted_peak_bytes"] == plan.predicted_peak_bytes
        assert all(
            isinstance(value, (int, np.integer)) for value in snap.values()
        )
