"""Chaos: the distributed sweep under injected network faults.

Every test asserts the headline invariant — the CV curve (and hence
``h_opt``) stays **bit-for-bit identical** to the local ``numpy``
backend, blocked or not, no matter which faults fire — plus the accounting
that proves the fault actually happened and was absorbed the intended
way (retry, epoch discard, checksum reject, local fallback).

Seeds sweep a CI matrix via ``REPRO_CHAOS_SEED`` (see conftest).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.api import select_bandwidth
from repro.core.fastgrid import cv_scores_fastgrid
from repro.core.grid import BandwidthGrid
from repro.distributed import (
    CoordinatorConfig,
    FleetCoordinator,
    NetFaultSpec,
    select_distributed,
)
from repro.distributed.chaos import FAULT_KINDS, seeded_compute_faults
from repro.resilience.policy import RetryPolicy

from tests.distributed.conftest import make_chaos_fleet

pytestmark = pytest.mark.chaos

BLOCK_ROWS = 48  # 240 rows -> 5 blocks


def _reference(x, y, grid):
    ref = cv_scores_fastgrid(x, y, grid, "epanechnikov", block_rows=BLOCK_ROWS)
    assert np.array_equal(
        ref, cv_scores_fastgrid(x, y, grid, kernel="epanechnikov")
    ), "local backends disagree; the distributed assertion would be vacuous"
    return ref


def _run(fleet, config, fleet_sample, fleet_grid):
    x, y = fleet_sample
    coord = FleetCoordinator(fleet, config)
    scores = coord.cv_scores(
        x, y, fleet_grid, "epanechnikov", block_rows=BLOCK_ROWS
    )
    assert np.array_equal(scores, _reference(x, y, fleet_grid))
    return coord.report


class TestSingleFaultClasses:
    def test_drop_is_retried(self, fleet_sample, fleet_grid, fast_config):
        fleet = make_chaos_fleet(
            2,
            lambda wid: (NetFaultSpec("drop", at=(1,)),) if wid == "w0" else (),
        )
        report = _run(fleet, fast_config, fleet_sample, fleet_grid)
        assert report.retries >= 1
        assert "REPRO_DIST_UNREACHABLE" in report.fault_codes
        assert report.blocks_local == 0

    def test_hang_times_out_and_retries(self, fleet_sample, fleet_grid, fast_config):
        fleet = make_chaos_fleet(
            2,
            lambda wid: (NetFaultSpec("hang", at=(1,)),) if wid == "w0" else (),
        )
        report = _run(fleet, fast_config, fleet_sample, fleet_grid)
        assert report.retries >= 1
        assert "REPRO_SERVE_TIMEOUT" in report.fault_codes

    def test_worker_death_mid_sweep(self, fleet_sample, fleet_grid, fast_config):
        fleet = make_chaos_fleet(
            3,
            lambda wid: (NetFaultSpec("die", at=(1,)),) if wid == "w1" else (),
        )
        report = _run(fleet, fast_config, fleet_sample, fleet_grid)
        assert "REPRO_DIST_UNREACHABLE" in report.fault_codes
        dead = [w for w in report.workers if not w["alive"]]
        assert len(dead) == 1 and dead[0]["worker_id"] == "w1"

    def test_duplicate_delivery_folds_once(
        self, fleet_sample, fleet_grid, fast_config
    ):
        fleet = make_chaos_fleet(
            2,
            lambda wid: (
                (NetFaultSpec("duplicate", at=(1, 2)),) if wid == "w0" else ()
            ),
        )
        report = _run(fleet, fast_config, fleet_sample, fleet_grid)
        assert report.duplicates_discarded >= 1
        assert report.blocks_remote == report.blocks_total

    def test_corrupt_payload_is_checksum_rejected(
        self, fleet_sample, fleet_grid, fast_config
    ):
        fleet = make_chaos_fleet(
            2,
            lambda wid: (NetFaultSpec("corrupt", at=(1,)),) if wid == "w0" else (),
        )
        report = _run(fleet, fast_config, fleet_sample, fleet_grid)
        assert report.checksum_rejects >= 1
        assert "REPRO_DIST_CHECKSUM" in report.fault_codes
        assert report.blocks_remote == report.blocks_total

    def test_straggler_is_redispatched_and_stale_discarded(
        self, fleet_sample, fleet_grid
    ):
        config = CoordinatorConfig(
            policy=RetryPolicy(max_retries=4, base_delay=0.0, max_delay=0.0),
            lease_timeout=0.05,
            heartbeat_interval=60.0,
            tick=0.005,
            sleep=lambda _s: None,
        )
        fleet = make_chaos_fleet(
            2,
            lambda wid: (
                (NetFaultSpec("delay", at=(1,), delay_s=0.4),)
                if wid == "w0"
                else ()
            ),
        )
        report = _run(fleet, config, fleet_sample, fleet_grid)
        assert report.stragglers >= 1
        assert "REPRO_DIST_LEASE_EXPIRED" in report.fault_codes
        # The late epoch-0 answer either landed mid-sweep (discarded by
        # epoch) or after the fold completed (dropped with the executor)
        # — the bit-for-bit equality above proves it was never folded
        # twice; the discard paths themselves are unit-tested in
        # test_coordinator.py::TestAtMostOnce.
        assert report.blocks_remote + report.blocks_local == report.blocks_total


class TestFleetLoss:
    def test_every_worker_dead_degrades_to_local(
        self, fleet_sample, fleet_grid, fast_config
    ):
        fleet = make_chaos_fleet(
            2, lambda wid: (NetFaultSpec("die", at=(1,)),)
        )
        report = _run(fleet, fast_config, fleet_sample, fleet_grid)
        assert report.fleet_lost
        assert report.degraded
        assert "REPRO_DIST_FLEET_LOST" in report.fault_codes
        assert report.blocks_local + report.blocks_remote == report.blocks_total
        assert report.blocks_local >= 1

    def test_block_that_exhausts_retries_goes_local(
        self, fleet_sample, fleet_grid
    ):
        # One worker, always dropping: every block burns its budget and
        # falls back to the in-process row function.
        config = CoordinatorConfig(
            policy=RetryPolicy(max_retries=1, base_delay=0.0, max_delay=0.0),
            heartbeat_interval=60.0,
            tick=0.005,
            sleep=lambda _s: None,
        )
        fleet = make_chaos_fleet(
            1, lambda wid: (NetFaultSpec("drop", at=tuple(range(1, 40))),)
        )
        report = _run(fleet, config, fleet_sample, fleet_grid)
        assert report.blocks_local == report.blocks_total
        assert report.degraded


class TestSeededMatrix:
    """The CI matrix entry: a seeded storm of every fault kind at once."""

    def test_seeded_fault_storm_is_bit_exact(
        self, fleet_sample, fleet_grid, fast_config, chaos_seed
    ):
        fleet = make_chaos_fleet(
            3,
            lambda wid: seeded_compute_faults(
                chaos_seed,
                wid,
                n_blocks=10,
                kinds=("drop", "hang", "duplicate", "corrupt"),
                rate=0.4,
            ),
        )
        report = _run(fleet, fast_config, fleet_sample, fleet_grid)
        assert report.blocks_remote + report.blocks_local == report.blocks_total

    def test_schedule_is_a_pure_function_of_seed(self, chaos_seed):
        first = seeded_compute_faults(chaos_seed, "w0", n_blocks=20)
        again = seeded_compute_faults(chaos_seed, "w0", n_blocks=20)
        other = seeded_compute_faults(chaos_seed + 1, "w0", n_blocks=20)
        assert first == again
        # Distinct seeds should (for these parameters) differ somewhere;
        # equality would make the CI matrix vacuous.
        assert first != other or chaos_seed < 0

    def test_unknown_fault_kind_rejected(self):
        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError):
            NetFaultSpec("gremlin", at=(1,))

    def test_fault_kind_table_is_closed(self):
        assert set(FAULT_KINDS) == {
            "drop", "hang", "delay", "duplicate", "corrupt", "die",
        }


class TestSelectionUnderChaos:
    def test_h_opt_identical_and_report_names_faults(
        self, fleet_sample, fast_config, chaos_seed
    ):
        x, y = fleet_sample
        grid = BandwidthGrid(np.linspace(0.2, 3.0, 10))
        # Both workers fault identically so the schedule is independent
        # of which worker wins which block: with five pending blocks,
        # every worker is leased at least twice, so call 1 (drop) and
        # call 2 (corrupt) are both guaranteed to fire.
        fleet = make_chaos_fleet(
            2,
            lambda wid: (
                NetFaultSpec("drop", at=(1,)),
                NetFaultSpec("corrupt", at=(2,)),
            ),
        )
        result = select_distributed(
            x,
            y,
            grid=grid,
            kernel="epanechnikov",
            fleet=fleet,
            coordinator_config=fast_config,
            block_rows=BLOCK_ROWS,
        )
        reference = select_bandwidth(
            x, y, grid=grid, kernel="epanechnikov", backend="numpy"
        )
        assert result.bandwidth == reference.bandwidth
        assert np.array_equal(result.scores, reference.scores)
        fleet_diag = result.diagnostics["fleet"]
        assert set(fleet_diag["fault_codes"]) >= {
            "REPRO_DIST_UNREACHABLE",
            "REPRO_DIST_CHECKSUM",
        }
