"""The healthy-fleet coordinator: equality, accounting, wiring."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.api import select_bandwidth
from repro.core.backends import get_backend, list_backends
from repro.core.fastgrid import cv_scores_fastgrid
from repro.core.grid import BandwidthGrid
from repro.distributed import (
    CoordinatorConfig,
    Fleet,
    FleetCoordinator,
    InProcessFleet,
    WorkerApp,
    fleet_metrics,
    last_fleet_report,
    resolve_fleet,
    select_distributed,
)
from repro.exceptions import ValidationError, WorkerUnavailableError

from tests.distributed.conftest import make_chaos_fleet


def _fleet(n_workers: int) -> InProcessFleet:
    return InProcessFleet([WorkerApp(worker_id=f"w{i}") for i in range(n_workers)])


class TestEquality:
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    @pytest.mark.parametrize("block_rows", [32, 100])
    def test_bit_for_bit_vs_blocked_and_fastgrid(
        self, fleet_sample, fleet_grid, fast_config, n_workers, block_rows
    ) -> None:
        x, y = fleet_sample
        coord = FleetCoordinator(_fleet(n_workers), fast_config)
        scores = coord.cv_scores(
            x, y, fleet_grid, "epanechnikov", block_rows=block_rows
        )
        assert np.array_equal(
            scores,
            cv_scores_fastgrid(
                x, y, fleet_grid, "epanechnikov", block_rows=block_rows
            ),
        )
        assert np.array_equal(
            scores, cv_scores_fastgrid(x, y, fleet_grid, kernel="epanechnikov")
        )

    def test_worker_count_does_not_change_the_curve(
        self, fleet_sample, fleet_grid, fast_config
    ) -> None:
        x, y = fleet_sample
        curves = [
            FleetCoordinator(_fleet(n), fast_config).cv_scores(
                x, y, fleet_grid, "epanechnikov", block_rows=48
            )
            for n in (1, 3)
        ]
        assert np.array_equal(curves[0], curves[1])


class TestAccounting:
    def test_healthy_sweep_report(self, fleet_sample, fleet_grid, fast_config):
        x, y = fleet_sample
        coord = FleetCoordinator(_fleet(2), fast_config)
        coord.cv_scores(x, y, fleet_grid, "epanechnikov", block_rows=48)
        report = coord.report
        assert report.blocks_total == 5
        assert report.blocks_remote == 5
        assert report.blocks_local == 0
        assert report.dispatches == 5
        assert report.retries == 0
        assert not report.degraded
        assert report.fault_codes == []
        assert len(report.workers) == 2
        assert all(w["alive"] for w in report.workers)

    def test_report_round_trips_to_json_dict(
        self, fleet_sample, fleet_grid, fast_config
    ):
        import json

        x, y = fleet_sample
        coord = FleetCoordinator(_fleet(2), fast_config)
        coord.cv_scores(x, y, fleet_grid, "epanechnikov", block_rows=48)
        payload = json.loads(json.dumps(coord.report.to_dict()))
        assert payload["blocks_remote"] == 5
        assert payload["degraded"] is False

    def test_health_gauges_published(self, fleet_sample, fleet_grid, fast_config):
        x, y = fleet_sample
        coord = FleetCoordinator(_fleet(2), fast_config)
        coord.cv_scores(x, y, fleet_grid, "epanechnikov", block_rows=48)
        text = fleet_metrics().render_text()
        assert "dist_worker_up_w0" in text
        assert "dist_worker_up_w1" in text


class TestStagingFailures:
    def test_worker_that_cannot_stage_is_out_but_sweep_succeeds(
        self, fleet_sample, fleet_grid, fast_config
    ) -> None:
        x, y = fleet_sample

        class BrokenStaging:
            endpoint = "broken"

            def request(self, method, path, body=None, *, timeout=None):
                if path == "/dataset":
                    raise WorkerUnavailableError("staging always fails")
                return {"status": "ok", "worker_id": "broken"}

            def drain_duplicates(self):
                return []

        healthy = WorkerApp(worker_id="w0")
        fleet = InProcessFleet([healthy, BrokenStaging()])
        coord = FleetCoordinator(fleet, fast_config)
        scores = coord.cv_scores(x, y, fleet_grid, "epanechnikov", block_rows=48)
        assert np.array_equal(
            scores,
            cv_scores_fastgrid(x, y, fleet_grid, "epanechnikov", block_rows=48),
        )
        stage_faults = [f for f in coord.report.faults if f["stage"] == "stage"]
        assert stage_faults, coord.report.faults
        assert stage_faults[0]["code"] == "REPRO_RETRY_EXHAUSTED"
        assert "REPRO_DIST_UNREACHABLE" in stage_faults[0]["error"]
        assert coord.report.blocks_remote == coord.report.blocks_total


class TestAtMostOnce:
    """Unit coverage of the fold-accounting discard paths in ``_absorb``."""

    def _coordinator(self, fast_config) -> FleetCoordinator:
        return FleetCoordinator(_fleet(1), fast_config)

    def _delivery(self, coord, *, block_id=0, epoch=0, payload=None, error=None):
        from repro.distributed.coordinator import _Delivery

        return _Delivery(
            block_id=block_id,
            epoch=epoch,
            handle=coord.fleet.handles[0],
            payload=payload,
            error=error,
        )

    def test_already_folded_block_discards_duplicate(self, fast_config):
        coord = self._coordinator(fast_config)
        rows = {0: np.zeros((4, 3))}
        coord._absorb(
            self._delivery(coord),
            rows,
            leases={},
            epochs={0: 0},
            k=3,
            fail_block=lambda *_: pytest.fail("must not touch the block"),
        )
        assert coord.report.duplicates_discarded == 1
        assert np.array_equal(rows[0], np.zeros((4, 3)))

    def test_superseded_epoch_discards_stale(self, fast_config):
        coord = self._coordinator(fast_config)
        rows: dict = {}
        coord._absorb(
            self._delivery(coord, epoch=0),
            rows,
            leases={},
            epochs={0: 2},
            k=3,
            fail_block=lambda *_: pytest.fail("stale is not a failure"),
        )
        assert coord.report.stale_discarded == 1
        assert rows == {}

    def test_current_epoch_folds_exactly_once(self, fast_config):
        from repro.distributed.coordinator import _Lease
        from repro.distributed.protocol import (
            encode_compute_request,
            encode_compute_response,
        )

        coord = self._coordinator(fast_config)
        block = np.arange(12.0).reshape(4, 3)
        request = encode_compute_request("ds", 0, 1, 0, 4)
        payload = encode_compute_response(request, block, "w0")
        handle = coord.fleet.handles[0]
        rows: dict = {}
        leases = {0: _Lease(handle=handle, epoch=1, deadline=99.0)}
        delivery = self._delivery(coord, epoch=1, payload=payload)
        coord._absorb(
            rows=rows,
            leases=leases,
            epochs={0: 1},
            k=3,
            delivery=delivery,
            fail_block=lambda *_: pytest.fail("valid delivery"),
        )
        assert np.array_equal(rows[0], block)
        assert leases == {}
        assert coord.report.blocks_remote == 1
        # The duplicate of the very same delivery is now discarded.
        coord._absorb(
            rows=rows,
            leases=leases,
            epochs={0: 1},
            k=3,
            delivery=delivery,
            fail_block=lambda *_: pytest.fail("valid delivery"),
        )
        assert coord.report.duplicates_discarded == 1
        assert coord.report.blocks_remote == 1


class TestBackendWiring:
    def test_lazy_registration(self) -> None:
        backend = get_backend("distributed")
        assert callable(backend)
        assert "distributed" in list_backends()

    def test_select_distributed_attaches_fleet_diagnostics(
        self, fleet_sample, fast_config
    ) -> None:
        x, y = fleet_sample
        grid = BandwidthGrid(np.linspace(0.2, 3.0, 8))
        result = select_distributed(
            x,
            y,
            grid=grid,
            kernel="epanechnikov",
            fleet=_fleet(2),
            coordinator_config=fast_config,
        )
        reference = select_bandwidth(
            x, y, grid=grid, kernel="epanechnikov", backend="numpy"
        )
        assert result.bandwidth == reference.bandwidth
        assert np.array_equal(result.scores, reference.scores)
        fleet_diag = result.diagnostics["fleet"]
        assert fleet_diag["degraded"] is False
        assert fleet_diag["blocks_remote"] == fleet_diag["blocks_total"]

    def test_no_workers_degrades_losslessly(self, fleet_sample, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        x, y = fleet_sample
        grid = BandwidthGrid(np.linspace(0.2, 3.0, 8))
        result = select_bandwidth(
            x, y, grid=grid, kernel="epanechnikov", backend="distributed"
        )
        reference = select_bandwidth(
            x, y, grid=grid, kernel="epanechnikov", backend="numpy"
        )
        assert result.bandwidth == reference.bandwidth
        assert np.array_equal(result.scores, reference.scores)
        report = last_fleet_report()
        assert report is not None
        assert report.fleet_lost
        assert report.fault_codes == ["REPRO_DIST_FLEET_LOST"]

    def test_dense_kernel_evaluates_locally(self, fleet_sample):
        x, y = fleet_sample
        grid = BandwidthGrid(np.linspace(0.2, 3.0, 6))
        result = select_bandwidth(
            x, y, grid=grid, kernel="gaussian", backend="distributed"
        )
        reference = select_bandwidth(
            x, y, grid=grid, kernel="gaussian", backend="numpy"
        )
        assert np.array_equal(result.scores, reference.scores)


class TestFleetResolution:
    def test_none_without_env_is_no_fleet(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_fleet(None) == (None, False)

    def test_fleet_passthrough_is_not_owned(self):
        fleet = _fleet(1)
        resolved, owned = resolve_fleet(fleet)
        assert resolved is fleet
        assert not owned

    def test_bool_rejected(self):
        with pytest.raises(ValidationError):
            resolve_fleet(True)

    def test_garbage_rejected(self):
        with pytest.raises(ValidationError):
            resolve_fleet(object())

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValidationError):
            Fleet([])


def test_chaos_free_chaos_fleet_matches(fleet_sample, fleet_grid, fast_config):
    """The chaos harness itself is transparent when no faults fire."""
    x, y = fleet_sample
    fleet = make_chaos_fleet(2, lambda worker_id: ())
    coord = FleetCoordinator(fleet, fast_config)
    scores = coord.cv_scores(x, y, fleet_grid, "epanechnikov", block_rows=48)
    assert np.array_equal(
        scores,
        cv_scores_fastgrid(x, y, fleet_grid, "epanechnikov", block_rows=48),
    )
    assert coord.report.fault_codes == []
