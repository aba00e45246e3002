"""Chaos suite: inject every fault class into every backend and demand
bit-for-bit identical bandwidth selection.

The resilient engine calls each registered backend whole, so a retried
sweep is the same sweep run again: absorbing a transient fault must not
change a single bit of the scores.  Fault indices count whole-call
events: ``data.block`` is one backend's curve, ``pool.worker`` one row
block of a ``blocked-shm`` call.  Degrading to a *different* backend
legitimately changes floating-point ordering, so those cases assert the
selected bandwidth (the argmin) instead of the raw scores; the
``blocked-shm → numpy`` spur stays byte-exact.

Seeds sweep a CI matrix via ``REPRO_CHAOS_SEED`` (see conftest).
"""

from __future__ import annotations

import dataclasses
import glob
import os

import numpy as np
import pytest

from repro.resilience import FaultInjector, FaultSpec, inject_faults
from repro.resilience.engine import resilient_cv_scores

pytestmark = pytest.mark.chaos


@pytest.fixture(autouse=True)
def no_shm_litter():
    """Every chaos run — worker crashes, segment unlinks, retry storms —
    must leave ``/dev/shm`` free of ``repro-shm-*`` segments."""
    yield
    if os.path.isdir("/dev/shm"):
        assert glob.glob("/dev/shm/repro-shm-*") == []

#: A budget that splits the chaos sample's sweep into several row
#: blocks: the budgeted numpy sweep, the old ``blocked`` backend.
BUDGET = {"memory_budget": "256KiB"}

#: (backend, options, fault spec) cells where the fault is absorbed *in
#: place* (retry on the same backend) — scores must match bit for bit.
#: The ``multicore-*`` cells fault the 2-worker pool of blocked-shm, the
#: multi-core backend; the ``blocked-*`` cells run the budgeted numpy
#: sweep.  A ``data.block`` event is one whole curve, so index 0 faults
#: the first call and index 1 its retry.
RETRY_CELLS = [
    pytest.param(
        "numpy",
        {},
        FaultSpec(site="data.block", kind="nan", at=(0,)),
        id="numpy-nan-block",
    ),
    pytest.param(
        "numpy",
        {},
        FaultSpec(site="data.block", kind="inf", at=(0, 1)),
        id="numpy-inf-blocks",
    ),
    pytest.param(
        "blocked-shm",
        {"workers": 2},
        FaultSpec(site="pool.worker", kind="crash", at=(1,)),
        id="multicore-worker-crash",
    ),
    pytest.param(
        "blocked-shm",
        {"workers": 2},
        FaultSpec(site="pool.worker", kind="timeout", at=(0, 3)),
        id="multicore-block-timeout",
    ),
    pytest.param(
        "blocked-shm",
        {"workers": 2},
        FaultSpec(site="data.block", kind="nan", at=(0,)),
        id="multicore-nan-block",
    ),
    pytest.param(
        "gpusim",
        {},
        FaultSpec(site="gpusim.launch", kind="launch", at=(0,)),
        id="gpusim-launch-failure",
    ),
    pytest.param(
        "gpusim-tiled",
        {},
        FaultSpec(site="data.block", kind="nan", at=(0,)),
        id="gpusim-tiled-nan-block",
    ),
    pytest.param(
        "gpusim-tiled",
        {},
        FaultSpec(site="data.block", kind="inf", at=(0, 1)),
        id="gpusim-tiled-inf-block",
    ),
    pytest.param(
        "numpy",
        BUDGET,
        FaultSpec(site="data.block", kind="nan", at=(0,)),
        id="blocked-nan-block",
    ),
    pytest.param(
        "numpy",
        BUDGET,
        FaultSpec(site="data.block", kind="inf", at=(0, 1)),
        id="blocked-inf-blocks",
    ),
    pytest.param(
        "blocked-shm",
        {},
        FaultSpec(site="pool.worker", kind="crash", at=(0,)),
        id="blocked-shm-worker-crash",
    ),
    pytest.param(
        "blocked-shm",
        {},
        FaultSpec(site="pool.worker", kind="timeout", at=(0,)),
        id="blocked-shm-worker-timeout",
    ),
    pytest.param(
        "blocked-shm",
        {},
        FaultSpec(site="data.block", kind="nan", at=(0,)),
        id="blocked-shm-nan-block",
    ),
]

#: Cells where the fault is structural and the engine must *degrade* —
#: the selected bandwidth must survive, the raw bits legitimately change.
DEGRADE_CELLS = [
    pytest.param(
        "gpusim",
        FaultSpec(site="gpusim.malloc", kind="oom", at=(0,)),
        "gpusim-tiled",
        id="gpusim-oom-to-tiled",
    ),
    pytest.param(
        "gpusim-tiled",
        FaultSpec(site="gpusim.malloc", kind="oom", rate=1.0),
        "numpy",
        id="tiled-oom-to-numpy",
    ),
    pytest.param(
        "blocked-shm",
        FaultSpec(site="shm.segment", kind="unlink", at=(0,)),
        "numpy",
        id="shm-unlink-to-numpy",
    ),
]


def _clean_scores(sample, grid, backend, config, options=None):
    x, y = sample
    scores, report = resilient_cv_scores(
        x, y, grid, backend=backend, config=config, backend_options=options
    )
    assert report.clean, f"fault-free {backend} run must be clean"
    return scores


class TestRetryBitForBit:
    @pytest.mark.parametrize(("backend", "options", "spec"), RETRY_CELLS)
    def test_faulted_run_matches_clean_run(
        self, backend, options, spec, chaos_sample, chaos_grid, chaos_seed,
        fast_config,
    ) -> None:
        clean = _clean_scores(
            chaos_sample, chaos_grid, backend, fast_config, options
        )
        x, y = chaos_sample
        injector = FaultInjector([spec], seed=chaos_seed)
        with inject_faults(injector):
            scores, report = resilient_cv_scores(
                x, y, chaos_grid, backend=backend, config=fast_config,
                backend_options=options,
            )
        np.testing.assert_array_equal(scores, clean)
        assert report.backend_used == backend
        assert not report.degraded
        assert report.retries >= 1
        assert report.faults, "the absorbed fault must be reported"

    @pytest.mark.parametrize(
        "backend",
        # blocked-shm keeps the id of the multi-core cell it replaced.
        ["numpy", pytest.param("blocked-shm", id="multicore"), "gpusim-tiled"],
    )
    def test_random_rate_faults_still_bit_for_bit(
        self, backend, chaos_sample, chaos_grid, chaos_seed, fast_config
    ) -> None:
        """Seeded Bernoulli faults (the CI seed matrix) instead of fixed indices."""
        clean = _clean_scores(chaos_sample, chaos_grid, backend, fast_config)
        x, y = chaos_sample
        injector = FaultInjector(
            [
                FaultSpec(site="data.block", kind="nan", rate=0.3, max_triggers=4),
            ],
            seed=chaos_seed,
        )
        with inject_faults(injector):
            scores, report = resilient_cv_scores(
                x, y, chaos_grid, backend=backend, config=fast_config
            )
        np.testing.assert_array_equal(scores, clean)
        assert report.retries == len(injector.log)


class TestDegradation:
    @pytest.mark.parametrize(("backend", "spec", "expected"), DEGRADE_CELLS)
    def test_structural_fault_degrades_and_preserves_bandwidth(
        self, backend, spec, expected, chaos_sample, chaos_grid, chaos_seed, fast_config
    ) -> None:
        clean = _clean_scores(chaos_sample, chaos_grid, backend, fast_config)
        x, y = chaos_sample
        with inject_faults(FaultInjector([spec], seed=chaos_seed)):
            scores, report = resilient_cv_scores(
                x, y, chaos_grid, backend=backend, config=fast_config
            )
        assert report.degraded
        assert report.backend_used == expected
        assert chaos_grid[np.argmin(scores)] == chaos_grid[np.argmin(clean)]
        np.testing.assert_allclose(scores, clean, rtol=1e-4)
        codes = [a["outcome"] for a in report.backend_attempts]
        assert codes[-1] == "ok" and any(c != "ok" for c in codes[:-1])

    def test_fallback_disabled_propagates(
        self, chaos_sample, chaos_grid, chaos_seed, fast_config
    ) -> None:
        x, y = chaos_sample
        config = dataclasses.replace(fast_config, fallback=False)
        spec = FaultSpec(site="gpusim.malloc", kind="oom", at=(0,))
        from repro.exceptions import DeviceMemoryError

        with inject_faults(FaultInjector([spec], seed=chaos_seed)):
            with pytest.raises(DeviceMemoryError):
                resilient_cv_scores(
                    x, y, chaos_grid, backend="gpusim", config=config
                )


class TestSharedMemoryChaos:
    """The shm spur is special: its fallback (the serial numpy sweep)
    computes the *same* partition with the same arithmetic, so
    degradation is lossless — stronger than the allclose contract of the
    generic degrade cells."""

    def test_unlink_degradation_is_bit_identical(
        self, chaos_sample, chaos_grid, chaos_seed, fast_config
    ) -> None:
        clean = _clean_scores(chaos_sample, chaos_grid, "numpy", fast_config)
        x, y = chaos_sample
        spec = FaultSpec(site="shm.segment", kind="unlink", at=(0,))
        with inject_faults(FaultInjector([spec], seed=chaos_seed)):
            scores, report = resilient_cv_scores(
                x, y, chaos_grid, backend="blocked-shm", config=fast_config
            )
        np.testing.assert_array_equal(scores, clean)
        assert report.degraded
        assert report.backend_used == "numpy"

    def test_worker_death_storm_is_bit_for_bit_and_leak_free(
        self, chaos_sample, chaos_grid, chaos_seed, fast_config
    ) -> None:
        clean = _clean_scores(
            chaos_sample, chaos_grid, "blocked-shm", fast_config
        )
        x, y = chaos_sample
        storm = FaultInjector(
            [
                FaultSpec(
                    site="pool.worker", kind="crash", rate=0.4, max_triggers=3
                ),
            ],
            seed=chaos_seed,
        )
        with inject_faults(storm):
            scores, report = resilient_cv_scores(
                x, y, chaos_grid, backend="blocked-shm", config=fast_config
            )
        np.testing.assert_array_equal(scores, clean)
        assert report.backend_used == "blocked-shm"
        assert not report.degraded
        # Every crashed call is retried once, whichever of its blocks died.
        assert report.retries <= len(storm.log)
        assert (report.retries > 0) == bool(storm.log)
        # The autouse fixture re-checks this, but the point of the test
        # deserves its own assertion: crashes must not leak segments.
        if os.path.isdir("/dev/shm"):
            assert glob.glob("/dev/shm/repro-shm-*") == []

    def test_blocked_and_blocked_shm_agree_bit_for_bit_when_clean(
        self, chaos_sample, chaos_grid, fast_config
    ) -> None:
        a = _clean_scores(
            chaos_sample, chaos_grid, "numpy", fast_config, BUDGET
        )
        b = _clean_scores(
            chaos_sample, chaos_grid, "blocked-shm", fast_config, BUDGET
        )
        np.testing.assert_array_equal(a, b)


class TestBudgetedDegradationAtLargerN:
    """n = 4,000 under a 64 MiB budget: the budgeted shm sweep and its
    numpy fallback partition the rows differently, and the strict row
    fold still gives them the same bits."""

    N = 4000
    OPTIONS = {"memory_budget": "64MiB"}

    @pytest.fixture(scope="class")
    def sample(self):
        rng = np.random.default_rng(4000)
        x = rng.uniform(0.0, 10.0, self.N)
        y = np.sin(x) + rng.normal(0.0, 0.3, self.N)
        return x, y, np.linspace(0.05, 3.0, 50)

    def test_resilient_blocked_shm_equals_resilient_numpy(
        self, sample, fast_config
    ) -> None:
        x, y, grid = sample
        a = _clean_scores((x, y), grid, "numpy", fast_config, self.OPTIONS)
        b = _clean_scores(
            (x, y), grid, "blocked-shm", fast_config, self.OPTIONS
        )
        assert a.tobytes() == b.tobytes()

    def test_segment_unlink_degrades_to_numpy_with_the_clean_curve(
        self, sample, chaos_seed, fast_config
    ) -> None:
        x, y, grid = sample
        clean = _clean_scores(
            (x, y), grid, "numpy", fast_config, self.OPTIONS
        )
        spec = FaultSpec(site="shm.segment", kind="unlink", at=(0,))
        with inject_faults(FaultInjector([spec], seed=chaos_seed)):
            scores, report = resilient_cv_scores(
                x, y, grid, backend="blocked-shm", config=fast_config,
                backend_options=self.OPTIONS,
            )
        assert report.backend_used == "numpy"
        assert [a["backend"] for a in report.backend_attempts] == [
            "blocked-shm", "numpy",
        ]
        assert scores.tobytes() == clean.tobytes()


class TestSelectorEndToEnd:
    def test_grid_selector_bandwidth_survives_chaos(
        self, chaos_sample, chaos_seed, fast_config
    ) -> None:
        from repro import select_bandwidth

        x, y = chaos_sample
        baseline = select_bandwidth(
            x, y, method="grid", backend="blocked-shm", resilience=fast_config
        )
        assert baseline.resilience is not None and baseline.resilience.clean

        # A pool block of the first call crashes, then the first curve
        # to come back whole is corrupt: two fresh calls, the same bits.
        storm = FaultInjector(
            [
                FaultSpec(site="pool.worker", kind="crash", at=(1,)),
                FaultSpec(site="data.block", kind="nan", at=(0,)),
            ],
            seed=chaos_seed,
        )
        with inject_faults(storm):
            chaotic = select_bandwidth(
                x, y, method="grid", backend="blocked-shm", resilience=fast_config
            )
        assert chaotic.bandwidth == baseline.bandwidth
        np.testing.assert_array_equal(chaotic.scores, baseline.scores)
        assert chaotic.resilience.retries >= 1

    def test_numeric_selector_survives_worker_crashes(
        self, chaos_sample, chaos_seed, fast_config
    ) -> None:
        from repro import select_bandwidth

        x, y = chaos_sample
        baseline = select_bandwidth(
            x, y, method="numeric", workers=2, resilience=fast_config
        )
        storm = FaultInjector(
            [FaultSpec(site="pool.worker", kind="crash", at=(1, 4))],
            seed=chaos_seed,
        )
        with inject_faults(storm):
            chaotic = select_bandwidth(
                x, y, method="numeric", workers=2, resilience=fast_config
            )
        assert chaotic.bandwidth == baseline.bandwidth
        assert chaotic.score == baseline.score
        assert chaotic.scores.tobytes() == baseline.scores.tobytes()
        assert chaotic.resilience.retries >= 1
        assert chaotic.resilience.pool_rebuilds == chaotic.resilience.retries
        assert len(chaotic.resilience.sleeps) == chaotic.resilience.retries

    def test_spent_retry_budget_runs_the_same_rows_serially(
        self, chaos_sample, chaos_seed
    ) -> None:
        from repro import select_bandwidth
        from repro.resilience.engine import ResilienceConfig

        x, y = chaos_sample
        serial = select_bandwidth(x, y, method="numeric", workers=1)
        no_retries = ResilienceConfig(max_retries=0, sleep=lambda _s: None)
        storm = FaultInjector(
            [FaultSpec(site="pool.worker", kind="crash", at=(0,))],
            seed=chaos_seed,
        )
        with inject_faults(storm):
            chaotic = select_bandwidth(
                x, y, method="numeric", workers=2, resilience=no_retries
            )
        stages = [fault["stage"] for fault in chaotic.resilience.faults]
        assert stages == ["objective:serial-fallback"]
        assert chaotic.resilience.retries == 0
        assert chaotic.bandwidth == serial.bandwidth
        assert chaotic.score == serial.score
        assert chaotic.bandwidths.tobytes() == serial.bandwidths.tobytes()
        assert chaotic.scores.tobytes() == serial.scores.tobytes()

