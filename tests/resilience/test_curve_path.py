"""Every grid and bagged CV curve takes one path: cache, engine, store.

A grid selection and a bagged selection of one full-size subsample
sweep the same curve, so under the same fault schedule they must record
the same resilience report and return the same bits.  The other tests
pin what that one path promises: ``max_retries`` is honoured the same
way by both selectors, later sweeps start from the backend the first
one settled on, a degraded curve is cached under the backend that
finished it, and every bagged subsample sweep runs on the engine.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pytest

from repro.core.api import select_bandwidth
from repro.obs import Tracer, use_tracer
from repro.resilience import FaultInjector, FaultSpec, inject_faults
from repro.resilience.engine import ResilienceConfig
from repro.resilience.policy import RetryBudgetExceeded, backoff_delay

pytestmark = pytest.mark.chaos

K = 15
SHM = dict(backend="blocked-shm", workers=2, block_rows=30)


@pytest.fixture(autouse=True)
def no_shm_litter():
    yield
    if os.path.isdir("/dev/shm"):
        assert glob.glob("/dev/shm/repro-shm-*") == []


def _config(**overrides) -> ResilienceConfig:
    settings = dict(max_retries=4, sleep=lambda _seconds: None)
    settings.update(overrides)
    return ResilienceConfig(**settings)


def _select(sample, method: str, injector=None, **options):
    """One selection; ``bagged`` is one full-size subsample (m = n)."""
    x, y = sample
    if method == "bagged":
        options = dict(subsamples=1, subsample_size=x.shape[0], **options)
    options.setdefault("n_bandwidths", K)
    if injector is None:
        return select_bandwidth(x, y, method=method, **options)
    with inject_faults(injector):
        return select_bandwidth(x, y, method=method, **options)


def _curve(result) -> np.ndarray:
    if result.method == "bagged-cv":
        record = result.diagnostics["bagged"]["subsamples"][0]
        return np.asarray(record["curve"]["scores"], dtype=np.float64)
    return result.scores


FAULTS = {
    "nan": [FaultSpec(site="data.block", kind="nan", at=(0,))],
    "inf-twice": [FaultSpec(site="data.block", kind="inf", at=(0, 1))],
    "worker-crash": [FaultSpec(site="pool.worker", kind="crash", at=(0,))],
    "worker-timeout": [FaultSpec(site="pool.worker", kind="timeout", at=(0,))],
    "segment-unlink": [FaultSpec(site="shm.segment", kind="unlink", at=(0,))],
    "dead-pool": [FaultSpec(site="pool.worker", kind="crash", rate=1.0)],
}


@pytest.mark.parametrize("faults", list(FAULTS.values()), ids=list(FAULTS))
def test_grid_and_bagged_absorb_a_fault_identically(chaos_sample, faults):
    grid = _select(
        chaos_sample, "grid", FaultInjector(faults, seed=0),
        resilience=_config(), **SHM,
    )
    bagged = _select(
        chaos_sample, "bagged", FaultInjector(faults, seed=0),
        resilience=_config(), **SHM,
    )
    assert not grid.resilience.clean
    assert bagged.resilience.to_dict() == grid.resilience.to_dict()
    assert _curve(bagged).tobytes() == _curve(grid).tobytes()
    assert bagged.bandwidth == grid.bandwidth


@pytest.mark.parametrize("method", ["grid", "bagged"])
@pytest.mark.parametrize(
    ("max_retries", "nans"), [(0, 0), (0, 1), (2, 2), (2, 3)]
)
def test_max_retries_counts_retries_per_sweep(
    chaos_sample, method, max_retries, nans
):
    clean = _select(chaos_sample, method)
    injector = FaultInjector(
        [FaultSpec(site="data.block", kind="nan", at=tuple(range(nans)))],
        seed=0,
    )
    config = _config(max_retries=max_retries)
    if nans > max_retries:
        # numpy is the chain's terminal: a spent budget has nowhere to go.
        with pytest.raises(RetryBudgetExceeded):
            _select(chaos_sample, method, injector, resilience=config)
        return
    res = _select(chaos_sample, method, injector, resilience=config)
    assert res.resilience.retries == nans
    assert res.resilience.sleeps == [backoff_delay(a) for a in range(1, nans + 1)]
    assert _curve(res).tobytes() == _curve(clean).tobytes()


def test_refinement_rounds_start_from_the_settled_backend(chaos_sample):
    x, y = chaos_sample
    clean = select_bandwidth(x, y, n_bandwidths=K, refine_rounds=2)
    injector = FaultInjector(FAULTS["segment-unlink"], seed=0)
    with inject_faults(injector):
        res = select_bandwidth(
            x, y, n_bandwidths=K, refine_rounds=2, resilience=_config(), **SHM
        )
    assert res.resilience.backend_attempts == [
        {"backend": "blocked-shm", "outcome": "REPRO_SHM_SEGMENT"},
    ] + [{"backend": "numpy", "outcome": "ok"}] * 3
    assert res.backend == "numpy"
    assert res.bandwidth == clean.bandwidth
    assert res.scores.tobytes() == clean.scores.tobytes()


@pytest.mark.parametrize("method", ["grid", "bagged"])
def test_degraded_curve_is_cached_under_the_backend_that_finished_it(
    chaos_sample, method, tmp_path
):
    from repro.serving import ArtifactCache

    cache = ArtifactCache(tmp_path)
    degraded = _select(
        chaos_sample, method, FaultInjector(FAULTS["segment-unlink"], seed=0),
        resilience=_config(), cache=cache, **SHM,
    )
    tracer = Tracer()
    with use_tracer(tracer):
        plain = _select(chaos_sample, method, cache=cache)
    counters = tracer.counters()
    assert counters.get("curve_cache.hit") == 1
    assert "curve_cache.miss" not in counters
    assert _curve(plain).tobytes() == _curve(degraded).tobytes()


def test_resilient_bagged_runs_subsamples_serially_on_the_engine(chaos_sample):
    x, y = chaos_sample
    plan = dict(subsamples=4, subsample_size=120, n_bandwidths=K)
    serial = select_bandwidth(x, y, method="bagged", **plan)
    tracer = Tracer()
    with use_tracer(tracer):
        res = select_bandwidth(
            x, y, method="bagged", resilience=_config(), **plan
        )
    subsamples = [
        s for s in tracer.spans() if s.name.startswith("bagged.subsample[")
    ]
    assert [s.name for s in subsamples] == [
        f"bagged.subsample[{i}]" for i in range(4)
    ]
    assert res.resilience.blocks_total == 4
    assert res.resilience.backend_attempts == [
        {"backend": "numpy", "outcome": "ok"}
    ] * 4
    assert res.bandwidth == serial.bandwidth
    assert res.scores.tobytes() == serial.scores.tobytes()
