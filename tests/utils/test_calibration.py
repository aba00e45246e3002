"""Calibration resolution: one bytes/s source, strict precedence.

The repo root may contain a real ``BENCH_roofline.json`` (committed by
the roofline bench), so every test here pins the working directory to a
``tmp_path`` — otherwise "no artifact anywhere" cells would silently
resolve the committed one through the cwd fallback.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.gpusim.timing import TimingModel
from repro.utils import calibration
from repro.utils.calibration import (
    DEFAULT_HOST_BYTES_PER_SECOND,
    ROOFLINE_ARTIFACT,
    calibration_source,
    host_bytes_per_second,
    load_roofline,
    roofline_path,
)
from repro.utils.membudget import estimate_sweep_seconds, plan_blocks

#: Plans here test the traffic model, which does not depend on the budget.
GIB = 1024**3


@pytest.fixture(autouse=True)
def isolated_cwd(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(calibration.ROOFLINE_ENV, raising=False)
    return tmp_path


def _write_artifact(directory, peak=20.0e9, streams=None, name=ROOFLINE_ARTIFACT):
    payload = {"host": {}}
    if peak is not None:
        payload["host"]["peak_bytes_per_second"] = peak
    if streams is not None:
        payload["host"]["streams"] = streams
    target = directory / name
    target.write_text(json.dumps(payload))
    return target


class TestPrecedence:
    def test_default_when_nothing_is_configured(self):
        assert host_bytes_per_second() == DEFAULT_HOST_BYTES_PER_SECOND
        assert calibration_source() == "default"

    def test_artifact_in_cwd_beats_default(self, isolated_cwd):
        _write_artifact(isolated_cwd, peak=21.5e9)
        assert host_bytes_per_second() == 21.5e9
        assert calibration_source() == "roofline"

    def test_env_var_beats_cwd(self, isolated_cwd, tmp_path_factory, monkeypatch):
        _write_artifact(isolated_cwd, peak=1.0e9)
        elsewhere = tmp_path_factory.mktemp("roofline-env")
        _write_artifact(elsewhere, peak=33.0e9)
        monkeypatch.setenv(calibration.ROOFLINE_ENV, str(elsewhere))
        assert host_bytes_per_second() == 33.0e9

    def test_explicit_path_beats_env_and_cwd(
        self, isolated_cwd, tmp_path_factory, monkeypatch
    ):
        _write_artifact(isolated_cwd, peak=1.0e9)
        env_dir = tmp_path_factory.mktemp("roofline-env2")
        _write_artifact(env_dir, peak=2.0e9)
        monkeypatch.setenv(calibration.ROOFLINE_ENV, str(env_dir))
        explicit = tmp_path_factory.mktemp("roofline-arg")
        path = _write_artifact(explicit, peak=44.0e9)
        assert host_bytes_per_second(roofline=path) == 44.0e9

    def test_explicit_argument_beats_everything(self, isolated_cwd):
        _write_artifact(isolated_cwd, peak=99.0e9)
        assert host_bytes_per_second(5.0e9) == 5.0e9
        assert calibration_source(5.0e9) == "explicit"

    def test_non_positive_explicit_argument_rejected(self):
        with pytest.raises(ValidationError, match="positive"):
            host_bytes_per_second(0.0)
        with pytest.raises(ValidationError):
            host_bytes_per_second(-3.0)


class TestArtifactTolerance:
    def test_missing_file_falls_through(self, isolated_cwd):
        assert load_roofline() is None
        assert host_bytes_per_second() == DEFAULT_HOST_BYTES_PER_SECOND

    def test_malformed_json_falls_through(self, isolated_cwd):
        (isolated_cwd / ROOFLINE_ARTIFACT).write_text("{not json")
        assert load_roofline() is None
        assert calibration_source() == "default"

    def test_non_dict_payload_falls_through(self, isolated_cwd):
        (isolated_cwd / ROOFLINE_ARTIFACT).write_text("[1, 2, 3]")
        assert load_roofline() is None

    def test_schema_skew_falls_through_to_default(self, isolated_cwd):
        (isolated_cwd / ROOFLINE_ARTIFACT).write_text(
            json.dumps({"host": {"peak_bytes_per_second": "fast"}})
        )
        assert host_bytes_per_second() == DEFAULT_HOST_BYTES_PER_SECOND
        assert calibration_source() == "default"

    def test_streams_max_backfills_missing_peak(self, isolated_cwd):
        _write_artifact(
            isolated_cwd,
            peak=None,
            streams={"copy": 17.0e9, "scale": 20.0e9, "add": 5.0e9},
        )
        assert host_bytes_per_second() == 20.0e9
        assert calibration_source() == "roofline"

    def test_directory_argument_resolves_canonical_name(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("roofline-dir")
        target = _write_artifact(directory, peak=12.0e9)
        assert roofline_path(directory) == target
        assert host_bytes_per_second(roofline=directory) == 12.0e9


class TestConsumers:
    """membudget and gpusim timing must take the same calibrated figure."""

    def test_estimate_sweep_seconds_uses_explicit_rate(self):
        plan = plan_blocks(10_000, 64, budget=GIB)
        seconds = estimate_sweep_seconds(plan, bytes_per_second=1.0e9)
        assert seconds == plan.predicted_traffic_bytes / 1.0e9

    def test_estimate_sweep_seconds_reads_artifact(self, isolated_cwd):
        _write_artifact(isolated_cwd, peak=2.0e9)
        plan = plan_blocks(10_000, 64, budget=GIB)
        assert (
            estimate_sweep_seconds(plan)
            == plan.predicted_traffic_bytes / 2.0e9
        )

    def test_predicted_traffic_bytes_is_rows_times_row_cost(self):
        plan = plan_blocks(1_000, 32, budget=GIB)
        assert plan.predicted_traffic_bytes == plan.n * plan.bytes_per_row
        # Each row streams the whole sample, so traffic grows superlinearly.
        larger = plan_blocks(2_000, 32, budget=GIB)
        assert larger.predicted_traffic_bytes > 2 * plan.predicted_traffic_bytes

    def test_timing_model_shares_the_source(self, isolated_cwd):
        _write_artifact(isolated_cwd, peak=4.0e9)
        model = TimingModel()
        assert model.host_bytes_per_second == 4.0e9
        assert model.host_transfer_seconds(8.0e9) == 2.0
        explicit = TimingModel(host_bytes_per_second=1.0e9)
        assert explicit.host_transfer_seconds(1.0e9) == 1.0

    def test_timing_model_rejects_negative_nbytes(self):
        with pytest.raises(ValidationError, match="non-negative"):
            TimingModel().host_transfer_seconds(-1.0)

    def test_membudget_and_timing_agree(self, isolated_cwd):
        """The drift guard: both consumers resolve one figure."""
        _write_artifact(isolated_cwd, peak=7.0e9)
        plan = plan_blocks(50_000, 40, budget=GIB)
        model = TimingModel()
        assert np.isclose(
            estimate_sweep_seconds(plan),
            model.host_transfer_seconds(plan.predicted_traffic_bytes),
            rtol=0.0,
            atol=0.0,
        )
