"""Tests for the dual-GPU split (the machine's two Tesla S10 modules)."""

import pytest

from repro.core.grid import BandwidthGrid
from repro.cuda_port import (
    CudaBandwidthProgram,
    MultiGpuBandwidthProgram,
    estimate_multi_gpu_runtime,
    estimate_program_runtime,
)
from repro.data import paper_dgp
from repro.exceptions import ValidationError
from repro.obs import Tracer, span_tree, use_tracer


@pytest.fixture(scope="module")
def sample():
    return paper_dgp(220, seed=9)


@pytest.fixture(scope="module")
def grid(sample):
    return BandwidthGrid.for_sample(sample.x, 10)


class TestCorrectness:
    @pytest.mark.parametrize("n_devices", [2, 3])
    def test_matches_single_gpu_program(self, sample, grid, n_devices):
        single = CudaBandwidthProgram(mode="fast").run(
            sample.x, sample.y, grid.values
        )
        multi = MultiGpuBandwidthProgram(
            devices=["tesla-s1070"] * n_devices
        ).run(sample.x, sample.y, grid.values)
        assert multi.scores.tobytes() == single.scores.tobytes()
        assert (multi.bandwidth, multi.score) == (single.bandwidth, single.score)

    def test_row_split_recorded(self, sample, grid):
        res = MultiGpuBandwidthProgram().run(sample.x, sample.y, grid.values)
        blocks = res.memory_report["row_split"]
        assert blocks == [(0, 110), (110, 220)]
        assert res.mode == "fast-multi-gpu-2"
        assert res.device == "tesla-s1070+tesla-s1070"

    def test_three_devices(self, sample, grid):
        res = MultiGpuBandwidthProgram(
            devices=["tesla-s1070"] * 3
        ).run(sample.x, sample.y, grid.values)
        assert res.memory_report["row_split"] == [(0, 74), (74, 147), (147, 220)]
        assert res.memory_report["tiles"] == 3

    def test_heterogeneous_devices(self, sample, grid):
        res = MultiGpuBandwidthProgram(
            devices=["tesla-s1070", "modern-gpu"]
        ).run(sample.x, sample.y, grid.values)
        assert res.memory_report["devices"] == ["tesla-s1070", "modern-gpu"]

    def test_spans_one_upload_and_launch_per_device(self, sample, grid):
        tracer = Tracer()
        with use_tracer(tracer):
            MultiGpuBandwidthProgram().run(sample.x, sample.y, grid.values)
        tree = [
            (depth, rec.name)
            for rec, depth in span_tree(tracer)
            if rec.name not in ("block", "sort", "sweep", "reduction")
        ]
        assert tree == [
            (0, "cuda-program-multi-gpu"),
            (1, "upload"),
            (1, "main-kernel"),
            (1, "upload"),
            (1, "main-kernel"),
            (1, "device-argmin"),
        ]

    def test_empty_device_list_rejected(self):
        with pytest.raises(ValidationError):
            MultiGpuBandwidthProgram(devices=[])


class TestScaling:
    def test_speedup_just_under_device_count(self):
        t1 = estimate_program_runtime(20_000, 50).total_seconds
        t2 = estimate_multi_gpu_runtime(20_000, 50, n_devices=2).total_seconds
        speedup = t1 / t2
        assert 1.8 < speedup < 2.0  # Amdahl: reductions/overheads don't split

    def test_per_device_memory_halves(self):
        # n = 28,000 rows split over two devices: each holds an
        # (n/2) x n share — under 4 GB each, though one device OOMs.
        n = 28_000
        per_device_bytes = 2 * (n // 2) * n * 4
        assert per_device_bytes < 4 * 1024**3
        single_bytes = 2 * n * n * 4
        assert single_bytes > 4 * 1024**3

    def test_single_device_degenerates_to_base(self):
        t1 = estimate_multi_gpu_runtime(10_000, 50, n_devices=1).total_seconds
        base = estimate_program_runtime(10_000, 50).total_seconds
        assert t1 == pytest.approx(base)

    def test_invalid_device_count_rejected(self):
        with pytest.raises(ValidationError):
            estimate_multi_gpu_runtime(1000, 50, n_devices=0)
