"""Chaos: bagged selection over ``blocked-shm`` under a seeded fault storm.

Every subsample sweep runs on the resilient engine over the shared-memory
pool while the injector crashes and stalls pool workers and corrupts
whole subsample curves, on a schedule drawn from ``REPRO_CHAOS_SEED``.
A retried subsample sweep recomputes the same curve from the same draw,
and a sweep that exhausts its retries degrades to the serial ``numpy``
sweep, whose bits are the same.  So the bagged ``h_opt`` must be
bit-identical to the plain serial ``numpy`` bagged selection.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pytest

from repro.core.api import select_bandwidth
from repro.resilience import FaultInjector, FaultSpec, inject_faults
from repro.resilience.engine import ResilienceConfig

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


def _config(**overrides) -> ResilienceConfig:
    settings = dict(max_retries=4, sleep=lambda _seconds: None)
    settings.update(overrides)
    return ResilienceConfig(**settings)


def _run(chaos_sample, injector: FaultInjector, config=None):
    x, y = chaos_sample
    with inject_faults(injector):
        return select_bandwidth(
            x, y, method="bagged", resilience=config or _config(),
            **SHM, **PLAN,
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
                FaultSpec(site="data.block", kind="nan", rate=0.25),
            ],
            seed=chaos_seed,
        )
        res = _run(chaos_sample, injector)
        _assert_same_selection(res, reference)
        assert injector.log, "the storm must fire at least one fault"
        assert res.resilience.retries >= 1

    def test_dead_pool_degrades_losslessly(self, chaos_sample, reference):
        # Every pool work unit crashes: subsample 0 exhausts its retries
        # on blocked-shm and is recomputed by serial numpy, where the
        # later subsamples then start.
        injector = FaultInjector(
            [FaultSpec(site="pool.worker", kind="crash", rate=1.0)],
            seed=0,
        )
        res = _run(chaos_sample, injector)
        _assert_same_selection(res, reference)
        assert res.resilience.backend_attempts == [
            {"backend": "blocked-shm", "outcome": "REPRO_RETRY_EXHAUSTED"}
        ] + [{"backend": "numpy", "outcome": "ok"}] * PLAN["subsamples"]
        assert res.resilience.backend_used == "numpy"


class TestBaggedSweepsRunOnTheEngine:
    """A bagged selection takes the grid selection's resilient path."""

    def test_segment_unlink_degrades_to_the_numpy_selection(
        self, chaos_sample, reference
    ):
        injector = FaultInjector(
            [FaultSpec(site="shm.segment", kind="unlink", at=(0,))], seed=0
        )
        res = _run(chaos_sample, injector)
        _assert_same_selection(res, reference)
        assert res.resilience.backend_attempts == [
            {"backend": "blocked-shm", "outcome": "REPRO_SHM_SEGMENT"},
        ] + [{"backend": "numpy", "outcome": "ok"}] * PLAN["subsamples"]
        assert res.resilience.backend_used == "numpy"

    def test_degraded_selection_reports_the_backend_that_finished(
        self, chaos_sample
    ):
        injector = FaultInjector(
            [FaultSpec(site="shm.segment", kind="unlink", at=(0,))], seed=0
        )
        res = _run(chaos_sample, injector)
        assert res.backend == "numpy" == res.resilience.backend_used

    def test_corrupt_curve_is_retried_once(self, chaos_sample, reference):
        injector = FaultInjector(
            [FaultSpec(site="data.block", kind="nan", at=(1,))], seed=0
        )
        res = _run(chaos_sample, injector)
        _assert_same_selection(res, reference)
        assert res.resilience.retries == 1
        assert len(injector.log) == 1
        attempts = [
            rec["attempts"] for rec in res.diagnostics["bagged"]["subsamples"]
        ]
        assert attempts == [1, 2, 1, 1]

    def test_backoff_sleeps_are_reported(self, chaos_sample, reference):
        slept: list[float] = []
        injector = FaultInjector(
            [FaultSpec(site="data.block", kind="nan", at=(0, 1))], seed=0
        )
        res = _run(chaos_sample, injector, _config(sleep=slept.append))
        _assert_same_selection(res, reference)
        assert slept == pytest.approx([0.05, 0.1])
        assert res.resilience.sleeps == slept
