"""Tests for the CUDA program host driver (the paper's program 4)."""

import numpy as np
import pytest

from repro.core.fastgrid import cv_scores_fastgrid_python
from repro.core.grid import BandwidthGrid
from repro.cuda_port import (
    CudaBandwidthProgram,
    MultiGpuBandwidthProgram,
    TiledCudaBandwidthProgram,
    host,
)
from repro.data import paper_dgp
from repro.exceptions import (
    ConstantMemoryError,
    DeviceMemoryError,
    ValidationError,
)
from repro.gpusim.reduction import device_argmin


@pytest.fixture(scope="module")
def sample():
    return paper_dgp(100, seed=77)


@pytest.fixture(scope="module")
def grid(sample):
    return BandwidthGrid.for_sample(sample.x, 10)


class TestCorrectness:
    """§IV-C testing design: CUDA vs sequential equality."""

    def test_functional_matches_sequential_reference(self, sample, grid):
        result = CudaBandwidthProgram(mode="functional").run(
            sample.x, sample.y, grid.values
        )
        reference = cv_scores_fastgrid_python(sample.x, sample.y, grid.values)
        np.testing.assert_allclose(result.scores, reference, rtol=5e-4)

    def test_fast_matches_functional(self, sample, grid):
        fast = CudaBandwidthProgram(mode="fast").run(sample.x, sample.y, grid.values)
        func = CudaBandwidthProgram(mode="functional").run(
            sample.x, sample.y, grid.values
        )
        np.testing.assert_allclose(fast.scores, func.scores, rtol=5e-4)
        assert fast.bandwidth == pytest.approx(func.bandwidth)

    def test_selected_bandwidth_is_score_argmin(self, sample, grid):
        result = CudaBandwidthProgram(mode="fast").run(sample.x, sample.y, grid.values)
        assert result.bandwidth == pytest.approx(
            float(grid.values[int(np.argmin(result.scores))])
        )

    def test_auto_mode_switches_on_size(self, sample, grid):
        prog = CudaBandwidthProgram(mode="auto", functional_limit=150)
        small = prog.run(sample.x, sample.y, grid.values)
        assert small.mode == "functional"
        big_sample = paper_dgp(300, seed=1)
        big_grid = BandwidthGrid.for_sample(big_sample.x, 10)
        big = prog.run(big_sample.x, big_sample.y, big_grid.values)
        assert big.mode == "fast"

    @pytest.mark.parametrize("kernel", ["uniform", "triangular", "biweight"])
    def test_other_polynomial_kernels(self, sample, grid, kernel):
        result = CudaBandwidthProgram(mode="functional", kernel=kernel).run(
            sample.x, sample.y, grid.values
        )
        reference = cv_scores_fastgrid_python(
            sample.x, sample.y, grid.values, kernel
        )
        np.testing.assert_allclose(result.scores, reference, rtol=1e-3)

    def test_gaussian_kernel_rejected(self):
        with pytest.raises(ValidationError):
            CudaBandwidthProgram(kernel="gaussian")

    def test_multi_block_launch(self):
        # n > threads_per_block forces several blocks with an idle tail.
        s = paper_dgp(70, seed=3)
        g = BandwidthGrid.for_sample(s.x, 5)
        result = CudaBandwidthProgram(mode="functional", threads_per_block=32).run(
            s.x, s.y, g.values
        )
        reference = cv_scores_fastgrid_python(s.x, s.y, g.values)
        np.testing.assert_allclose(result.scores, reference, rtol=5e-4)
        assert result.launch_stats[0].grid_dim == 3  # ceil(70/32)


class TestResourceLimits:
    def test_constant_memory_cap(self, sample):
        grid = BandwidthGrid.evenly_spaced(1e-4, 1.0, 2049)
        with pytest.raises(ConstantMemoryError):
            CudaBandwidthProgram(mode="fast").run(sample.x, sample.y, grid.values)

    def test_2048_bandwidths_allowed(self):
        s = paper_dgp(2100, seed=2)
        grid = BandwidthGrid.for_sample(s.x, 2048)
        result = CudaBandwidthProgram(mode="fast").run(s.x, s.y, grid.values)
        assert result.scores.shape == (2048,)

    def test_oom_above_paper_ceiling(self):
        rng = np.random.default_rng(0)
        n = 25_000
        x = rng.uniform(size=n)
        y = x + rng.normal(size=n) * 0.1
        grid = BandwidthGrid.for_sample(x, 50)
        with pytest.raises(DeviceMemoryError):
            CudaBandwidthProgram(mode="fast").run(x, y, grid.values)

    def test_modern_device_lifts_ceiling(self):
        rng = np.random.default_rng(1)
        n = 25_000
        x = rng.uniform(size=n)
        y = x + rng.normal(size=n) * 0.1
        grid = BandwidthGrid.for_sample(x, 10)
        result = CudaBandwidthProgram(mode="fast", device="modern-gpu").run(
            x, y, grid.values
        )
        assert result.device == "modern-gpu"

    def test_memory_freed_after_run(self, sample, grid):
        prog = CudaBandwidthProgram(mode="fast")
        result = prog.run(sample.x, sample.y, grid.values)
        assert result.memory_report["live_buffers"] > 0  # snapshot pre-free
        # A second run must succeed (nothing leaked across runs).
        prog.run(sample.x, sample.y, grid.values)


class TestDeviceArgminCheck:
    """Every program checks the device's argmin against the host's."""

    @pytest.mark.parametrize(
        "program",
        [
            CudaBandwidthProgram(mode="fast"),
            TiledCudaBandwidthProgram(tile_rows=30),
            MultiGpuBandwidthProgram(devices=["tesla-s1070"] * 3),
        ],
        ids=["monolithic", "tiled", "multi-gpu"],
    )
    def test_disagreeing_device_argmin_raises(
        self, sample, grid, program, monkeypatch
    ):
        def wrong_argmin(scores, values, **kwargs):
            best, _, stats = device_argmin(scores, values, **kwargs)
            return best, float(values[np.argmax(scores)]), stats

        monkeypatch.setattr(host, "device_argmin", wrong_argmin)
        with pytest.raises(ValidationError, match="disagrees"):
            program.run(sample.x, sample.y, grid.values)


class TestConfiguration:
    def test_bad_mode_rejected(self):
        with pytest.raises(ValidationError):
            CudaBandwidthProgram(mode="warp")

    def test_non_power_of_two_block_rejected(self):
        with pytest.raises(ValidationError):
            CudaBandwidthProgram(threads_per_block=100)

    def test_result_carries_simulated_breakdown(self, sample, grid):
        result = CudaBandwidthProgram(mode="fast").run(sample.x, sample.y, grid.values)
        assert result.simulated_seconds > 0
        assert result.simulated.phase("sort").seconds >= 0
        assert result.wall_seconds > 0

    def test_launch_stats_sequence(self, sample, grid):
        result = CudaBandwidthProgram(mode="functional").run(
            sample.x, sample.y, grid.values
        )
        # 1 main kernel + k sum reductions + 1 argmin.
        assert len(result.launch_stats) == 1 + len(grid) + 1
        assert result.launch_stats[0].kernel_name == "bandwidth_main_kernel"
        assert result.launch_stats[-1].kernel_name == "argmin_reduction_kernel"
