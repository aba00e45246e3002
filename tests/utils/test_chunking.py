"""Unit and property tests for repro.utils.chunking."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.exceptions import ValidationError
from repro.utils.chunking import chunk_slices, suggest_chunk_rows


class TestChunkSlices:
    def test_even_division(self):
        assert chunk_slices(10, 5) == [slice(0, 5), slice(5, 10)]

    def test_ragged_tail(self):
        assert chunk_slices(7, 3) == [slice(0, 3), slice(3, 6), slice(6, 7)]

    def test_chunk_larger_than_total(self):
        assert chunk_slices(3, 100) == [slice(0, 3)]

    def test_zero_total_gives_no_slices(self):
        assert chunk_slices(0, 4) == []

    def test_negative_total_rejected(self):
        with pytest.raises(ValidationError):
            chunk_slices(-1, 4)

    def test_nonpositive_chunk_rejected(self):
        with pytest.raises(ValidationError):
            chunk_slices(4, 0)

    @given(total=st.integers(0, 500), chunk=st.integers(1, 50))
    def test_slices_partition_range_exactly(self, total, chunk):
        covered = []
        for sl in chunk_slices(total, chunk):
            covered.extend(range(sl.start, sl.stop))
        assert covered == list(range(total))


class TestSuggestChunkRows:
    def test_within_clamp_bounds(self):
        rows = suggest_chunk_rows(1000)
        assert 16 <= rows <= 8192

    def test_large_n_shrinks_chunk(self):
        small = suggest_chunk_rows(1_000_000)
        large = suggest_chunk_rows(1_000)
        assert small <= large

    def test_budget_scales_rows(self):
        lo = suggest_chunk_rows(10_000, budget_bytes=1 << 20, minimum=1)
        hi = suggest_chunk_rows(10_000, budget_bytes=1 << 30, minimum=1)
        assert hi > lo

    def test_floor_protects_tiny_budgets(self):
        assert suggest_chunk_rows(10**9, minimum=16) == 16

    def test_nonpositive_cols_rejected(self):
        with pytest.raises(ValidationError):
            suggest_chunk_rows(0)

    def test_itemsize_and_working_arrays_matter(self):
        f32 = suggest_chunk_rows(50_000, itemsize=4, minimum=1)
        f64 = suggest_chunk_rows(50_000, itemsize=8, minimum=1)
        assert f32 >= f64
