"""Real worker processes over real sockets (spawn, serve, die).

Slower than the in-process suite — these tests cover the pieces the
:class:`InProcessTransport` skips: the worker's ``__main__`` banner,
the HTTP framing, typed error payloads over the wire, and a worker
SIGKILLed mid-sweep.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.fastgrid import cv_scores_fastgrid
from repro.distributed import (
    CoordinatorConfig,
    FleetCoordinator,
    HttpWorkerTransport,
    LocalProcessFleet,
)
from repro.exceptions import DistributedProtocolError, ReproError
from repro.resilience.policy import RetryPolicy

pytestmark = pytest.mark.chaos


@pytest.fixture(scope="module")
def fleet():
    fleet = LocalProcessFleet(2)
    yield fleet
    fleet.close()


@pytest.fixture(scope="module")
def process_config() -> CoordinatorConfig:
    return CoordinatorConfig(
        policy=RetryPolicy(max_retries=3, base_delay=0.0, max_delay=0.0),
        lease_timeout=10.0,
        request_timeout=10.0,
        stage_timeout=10.0,
        heartbeat_interval=0.2,
        heartbeat_timeout=2.0,
    )


def test_worker_answers_healthz_and_metrics(fleet):
    handle = fleet.handles[0]
    health = handle.transport.request("GET", "/healthz", timeout=5.0)
    assert health["status"] == "ok"
    assert health["worker_id"] == handle.worker_id
    metrics = handle.transport.request("GET", "/metrics", timeout=5.0)
    assert "dist_worker_blocks_total" in metrics["text"]


def test_unknown_dataset_is_a_typed_wire_error(fleet):
    from repro.distributed.protocol import encode_compute_request

    handle = fleet.handles[0]
    request = encode_compute_request("no-such-dataset", 0, 0, 0, 8)
    with pytest.raises(DistributedProtocolError):
        handle.transport.request("POST", "/compute", request, timeout=5.0)


def test_http_sweep_matches_local_blocked(fleet, process_config):
    rng = np.random.default_rng(3)
    x = np.sort(rng.uniform(0, 10, 300))
    y = np.sin(x) + rng.normal(0, 0.2, 300)
    grid = np.linspace(0.2, 3.0, 12)
    coord = FleetCoordinator(fleet, process_config)
    scores = coord.cv_scores(x, y, grid, "epanechnikov", block_rows=64)
    assert np.array_equal(
        scores, cv_scores_fastgrid(x, y, grid, "epanechnikov", block_rows=64)
    )
    assert coord.report.blocks_remote == coord.report.blocks_total


def test_worker_killed_mid_sweep_never_changes_the_curve():
    """SIGKILL one of two workers while the sweep runs.

    Whenever the kill lands — before, during, or between blocks — the
    curve must stay bit-for-bit; only the accounting may differ.
    """
    fleet = LocalProcessFleet(2)
    try:
        rng = np.random.default_rng(5)
        x = np.sort(rng.uniform(0, 10, 400))
        y = np.sin(x) + rng.normal(0, 0.2, 400)
        grid = np.linspace(0.2, 3.0, 12)
        config = CoordinatorConfig(
            policy=RetryPolicy(max_retries=3, base_delay=0.0, max_delay=0.0),
            lease_timeout=5.0,
            request_timeout=5.0,
            stage_timeout=10.0,
            heartbeat_interval=0.1,
            heartbeat_timeout=1.0,
        )
        coord = FleetCoordinator(fleet, config)
        killer = threading.Timer(0.05, fleet.kill_worker, args=(0,))
        killer.start()
        try:
            scores = coord.cv_scores(
                x, y, grid, "epanechnikov", block_rows=32
            )
        finally:
            killer.cancel()
        assert np.array_equal(
            scores,
            cv_scores_fastgrid(x, y, grid, "epanechnikov", block_rows=32),
        )
        report = coord.report
        assert report.blocks_remote + report.blocks_local == report.blocks_total
    finally:
        fleet.close()


def test_transport_timeout_is_typed(fleet):
    # Port 9 (discard) on localhost is almost never listening; a refused
    # connection must surface as the typed unreachable error, fast.
    transport = HttpWorkerTransport("127.0.0.1", 9, timeout=0.5)
    with pytest.raises(ReproError) as excinfo:
        transport.request("GET", "/healthz", timeout=0.5)
    from repro.exceptions import error_code

    assert error_code(excinfo.value) in {
        "REPRO_DIST_UNREACHABLE",
        "REPRO_SERVE_TIMEOUT",
    }
