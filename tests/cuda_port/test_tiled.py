"""Tests for the tiled (out-of-core) program — the paper's future work."""

import numpy as np
import pytest

from repro.core.grid import BandwidthGrid
from repro.cuda_port import (
    CudaBandwidthProgram,
    TiledCudaBandwidthProgram,
    default_tile_rows,
    estimate_program_runtime,
    estimate_tiled_runtime,
)
from repro.data import paper_dgp
from repro.exceptions import DeviceMemoryError, ValidationError


@pytest.fixture(scope="module")
def sample():
    return paper_dgp(250, seed=4)


@pytest.fixture(scope="module")
def grid(sample):
    return BandwidthGrid.for_sample(sample.x, 12)


class TestCorrectness:
    def test_matches_monolithic_program(self, sample, grid):
        mono = CudaBandwidthProgram(mode="fast").run(sample.x, sample.y, grid.values)
        tiled = TiledCudaBandwidthProgram(tile_rows=64).run(
            sample.x, sample.y, grid.values
        )
        assert tiled.scores.tobytes() == mono.scores.tobytes()
        assert (tiled.bandwidth, tiled.score) == (mono.bandwidth, mono.score)

    @pytest.mark.parametrize("tile_rows", [1, 7, 32, 250])
    def test_tile_size_does_not_change_result(self, sample, grid, tile_rows):
        # Every row joins one row-order fold carried across tiles, so even
        # one-row tiles give the monolithic program's bytes.
        mono = CudaBandwidthProgram(mode="fast").run(sample.x, sample.y, grid.values)
        tiled = TiledCudaBandwidthProgram(tile_rows=tile_rows).run(
            sample.x, sample.y, grid.values
        )
        assert tiled.scores.tobytes() == mono.scores.tobytes()
        assert tiled.memory_report["tiles"] == -(-250 // tile_rows)

    def test_tile_count_reported(self, sample, grid):
        res = TiledCudaBandwidthProgram(tile_rows=100).run(
            sample.x, sample.y, grid.values
        )
        assert res.memory_report["tiles"] == 3  # ceil(250/100)
        assert res.mode == "fast-tiled"

    def test_invalid_tile_rows_rejected(self):
        with pytest.raises(ValidationError):
            TiledCudaBandwidthProgram(tile_rows=0)


class TestMemoryCeilingLifted:
    """The headline of the future-work fix: no more n = 20,000 wall."""

    def test_monolithic_ooms_but_tiled_runs_at_25000(self):
        rng = np.random.default_rng(2)
        n = 25_000
        x = rng.uniform(size=n)
        y = x + rng.normal(size=n) * 0.1
        grid = BandwidthGrid.for_sample(x, 10)
        with pytest.raises(DeviceMemoryError):
            CudaBandwidthProgram(mode="fast").run(x, y, grid.values)
        res = TiledCudaBandwidthProgram().run(x, y, grid.values)
        assert res.scores.shape == (10,)
        assert res.memory_report["peak_gb"] < 4.0

    def test_default_tile_rows_fit_half_device(self):
        n = 100_000
        t = default_tile_rows(n)
        # Two t x n float32 buffers within half of 4 GB.
        assert 2 * t * n * 4 <= 2 * 1024**3
        assert t >= 1

    def test_tile_rows_capped_at_n(self):
        assert default_tile_rows(100) == 100


class TestTiledTimingModel:
    def test_nearly_matches_monolithic_at_equal_n(self):
        mono = estimate_program_runtime(20_000, 50).total_seconds
        tiled = estimate_tiled_runtime(20_000, 50).total_seconds
        # Tiling adds launch + restream overhead only: within 5%.
        assert mono <= tiled <= mono * 1.05

    def test_scales_beyond_the_wall(self):
        t20 = estimate_tiled_runtime(20_000, 50).total_seconds
        t40 = estimate_tiled_runtime(40_000, 50).total_seconds
        # ~n^2 log n growth: a bit over 4x.
        assert 3.5 * t20 < t40 < 6.0 * t20

    def test_smaller_tiles_cost_more_overhead(self):
        coarse = estimate_tiled_runtime(20_000, 50, tile_rows=10_000)
        fine = estimate_tiled_runtime(20_000, 50, tile_rows=100)
        assert fine.total_seconds > coarse.total_seconds
