"""Chaos: bagged selection over ``blocked-shm`` under a seeded fault storm.

Every subsample sweep runs on the shared-memory pool while the injector
crashes and stalls pool workers and times out whole subsamples, on a
schedule drawn from ``REPRO_CHAOS_SEED``.  A retried subsample re-derives
the same draw and recomputes the same curve, and a subsample that
exhausts its retries degrades to the serial ``numpy`` sweep, whose bits
are the same.  So the bagged ``h_opt`` must be bit-identical to the
plain serial ``numpy`` bagged selection.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pytest

from repro.core.api import select_bandwidth
from repro.resilience import FaultInjector, FaultSpec, inject_faults
from repro.resilience.engine import ResilienceConfig
from repro.resilience.policy import RetryPolicy

pytestmark = pytest.mark.chaos

PLAN = dict(subsamples=4, subsample_size=120, root_seed=5, n_bandwidths=15)
SHM = dict(backend="blocked-shm", workers=2, block_rows=30)


@pytest.fixture(autouse=True)
def no_shm_litter():
    yield
    if os.path.isdir("/dev/shm"):
        assert glob.glob("/dev/shm/repro-shm-*") == []


@pytest.fixture(scope="module")
def reference(chaos_sample):
    x, y = chaos_sample
    return select_bandwidth(x, y, method="bagged", **PLAN)


def _config() -> ResilienceConfig:
    return ResilienceConfig(
        policy=RetryPolicy(max_retries=4, base_delay=0.0, max_delay=0.0),
        sleep=lambda _seconds: None,
    )


def _run(chaos_sample, injector: FaultInjector):
    x, y = chaos_sample
    with inject_faults(injector):
        return select_bandwidth(
            x, y, method="bagged", resilience=_config(), **SHM, **PLAN
        )


def _assert_same_selection(res, reference) -> None:
    assert res.bandwidth == reference.bandwidth
    assert np.array_equal(res.scores, reference.scores)
    for got, want in zip(
        res.diagnostics["bagged"]["subsamples"],
        reference.diagnostics["bagged"]["subsamples"],
    ):
        got, want = dict(got), dict(want)
        got.pop("attempts")
        want.pop("attempts")
        assert got == want


class TestBaggedOverBlockedShmChaos:
    def test_healthy_pool_matches_serial(self, chaos_sample, reference):
        res = _run(chaos_sample, FaultInjector())
        _assert_same_selection(res, reference)
        assert res.resilience.clean

    def test_seeded_fault_storm_is_bit_exact(
        self, chaos_sample, chaos_seed, reference
    ):
        injector = FaultInjector(
            [
                FaultSpec(site="pool.worker", kind="crash", rate=0.15),
                FaultSpec(site="pool.worker", kind="timeout", rate=0.1),
                FaultSpec(site="bagged.subsample", kind="timeout", rate=0.25),
            ],
            seed=chaos_seed,
        )
        res = _run(chaos_sample, injector)
        _assert_same_selection(res, reference)
        assert injector.log, "the storm must fire at least one fault"
        assert res.resilience.retries >= 1

    def test_dead_pool_degrades_losslessly(self, chaos_sample, reference):
        # Every pool work unit crashes: each subsample exhausts its
        # retries on blocked-shm and is recomputed by serial numpy.
        injector = FaultInjector(
            [FaultSpec(site="pool.worker", kind="crash", rate=1.0)],
            seed=0,
        )
        res = _run(chaos_sample, injector)
        _assert_same_selection(res, reference)
        assert res.resilience.backend_attempts == [
            {"backend": "blocked-shm", "outcome": "degraded"}
        ] * PLAN["subsamples"]
