"""End-to-end behaviour of BaggedCVSelector and the select_bandwidth wiring.

The load-bearing property is the bit-for-bit contract: identical
``(root_seed, r, m, grid)`` must produce the identical bagged ``h_opt``
across every strict-fold backend, across serial vs. pooled dispatch,
across fault/retry schedules, and from a warm cache.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import BaggedCVSelector, select_bandwidth
from repro.bagged.plan import plan_subsamples
from repro.bagged.rescale import scale_factor
from repro.core.selectors import GridSearchSelector
from repro.data import paper_dgp
from repro.exceptions import ValidationError
from repro.obs import Tracer, use_tracer
from repro.resilience.faults import FaultInjector, FaultSpec, inject_faults
from repro.resilience.engine import ResilienceConfig
from repro.resilience.policy import RetryPolicy

N = 1200
PLAN = dict(subsamples=5, subsample_size=300, root_seed=7)


@pytest.fixture(scope="module")
def sample():
    return paper_dgp(N, seed=0)


@pytest.fixture(scope="module")
def reference(sample):
    return select_bandwidth(sample.x, sample.y, method="bagged", **PLAN)


class TestSelection:
    def test_result_shape(self, sample, reference) -> None:
        res = reference
        assert res.method == "bagged-cv"
        assert res.converged
        assert res.n_evaluations == 5 * 50
        assert res.bandwidths.shape == (5,)  # per-subsample votes
        assert res.scores.shape == (5,)
        bag = res.diagnostics["bagged"]
        assert bag["n"] == N
        assert bag["subsample_size"] == 300
        assert bag["n_subsamples"] == 5
        assert bag["root_seed"] == 7
        assert bag["scale_factor"] == pytest.approx(
            scale_factor(300, N), rel=0, abs=0
        )
        assert len(bag["subsamples"]) == 5
        for record in bag["subsamples"]:
            assert record["attempts"] == 1
            assert len(record["curve"]["scores"]) == 50

    def test_votes_are_exact_full_grid_points(self, sample, reference) -> None:
        # Grid-matched rescaling: every subsample votes for an exact
        # point of the full-sample grid, not a float round-trip.
        from repro.core.grid import BandwidthGrid

        grid = BandwidthGrid.for_sample(sample.x, 50)
        for h in reference.bandwidths:
            assert h in grid.values

    def test_same_plan_same_answer(self, sample, reference) -> None:
        again = select_bandwidth(sample.x, sample.y, method="bagged", **PLAN)
        assert again.bandwidth == reference.bandwidth
        assert np.array_equal(again.scores, reference.scores)

    def test_different_root_seed_changes_draws(self, sample, reference) -> None:
        other = select_bandwidth(
            sample.x, sample.y, method="bagged",
            subsamples=5, subsample_size=300, root_seed=8,
        )
        # h_opt may coincide (coarse grid) but the CV scores cannot.
        assert not np.array_equal(other.scores, reference.scores)

    def test_aliases_share_the_canonical_method(self, sample, reference) -> None:
        for alias in ("bagged-cv", "bagging"):
            res = select_bandwidth(sample.x, sample.y, method=alias, **PLAN)
            assert res.bandwidth == reference.bandwidth

    def test_m_equals_n_reduces_to_exact_grid_search(self, sample) -> None:
        # A full-size draw without replacement is the identity sample and
        # the scale factor is 1 — bagging degenerates to the exact sweep.
        bagged = BaggedCVSelector(
            subsamples=1, subsample_size=N, root_seed=0
        ).select(sample.x, sample.y)
        exact = GridSearchSelector().select(sample.x, sample.y)
        assert bagged.bandwidth == exact.bandwidth

    def test_median_log_aggregate(self, sample) -> None:
        res = select_bandwidth(
            sample.x, sample.y, method="bagged", aggregate="median-log", **PLAN
        )
        votes = np.sort(res.bandwidths)
        assert res.bandwidth == pytest.approx(votes[2])  # r=5 → middle vote

    def test_unknown_aggregate_rejected(self) -> None:
        with pytest.raises(ValidationError):
            BaggedCVSelector(aggregate="mode")

    def test_resume_rejected_for_bagged(self, sample) -> None:
        with pytest.raises(ValidationError, match="resume"):
            select_bandwidth(
                sample.x, sample.y, method="bagged", resume="ckpt.json", **PLAN
            )

    def test_nested_pool_rejected(self) -> None:
        for backend in ("blocked-shm", "distributed"):
            with pytest.raises(ValidationError, match="nest"):
                BaggedCVSelector(backend=backend, subsample_workers=2)


class TestCrossBackendBitForBit:
    @pytest.mark.parametrize(
        ("backend", "options"),
        [
            ("blocked-shm", {"workers": 2, "block_rows": 7}),
            ("numpy", {"block_rows": 7}),
            ("numpy", {"memory_budget": "64MiB"}),
            ("blocked-shm", {"workers": 2}),
        ],
    )
    def test_backends_match_numpy(self, sample, reference, backend, options) -> None:
        res = select_bandwidth(
            sample.x, sample.y, method="bagged", backend=backend, **PLAN, **options
        )
        assert res.bandwidth == reference.bandwidth
        assert np.array_equal(res.scores, reference.scores)

    def test_pooled_dispatch_matches_serial(self, sample, reference) -> None:
        res = select_bandwidth(
            sample.x, sample.y, method="bagged", subsample_workers=2, **PLAN
        )
        assert res.bandwidth == reference.bandwidth
        assert np.array_equal(res.scores, reference.scores)


class TestTracing:
    def test_span_tree(self, sample, reference) -> None:
        tracer = Tracer()
        with use_tracer(tracer):
            res = select_bandwidth(sample.x, sample.y, method="bagged", **PLAN)
        names = [s.name for s in tracer.spans()]
        assert "bagged.plan" in names
        assert "bagged.aggregate" in names
        for i in range(5):
            assert f"bagged.subsample[{i}]" in names
        assert res.bandwidth == reference.bandwidth  # tracing changes nothing

    def test_pooled_dispatch_ships_spans_home(self, sample) -> None:
        tracer = Tracer()
        with use_tracer(tracer):
            select_bandwidth(
                sample.x, sample.y, method="bagged", subsample_workers=2, **PLAN
            )
        names = [s.name for s in tracer.spans()]
        assert "bagged.dispatch" in names
        assert sum(1 for n in names if n.startswith("bagged.subsample[")) == 5


class TestResilience:
    def _config(self) -> ResilienceConfig:
        return ResilienceConfig(
            policy=RetryPolicy(max_retries=3, base_delay=0.0, max_delay=0.0),
            sleep=lambda s: None,
        )

    def test_transient_faults_do_not_change_the_answer(
        self, sample, reference
    ) -> None:
        injector = FaultInjector(
            [FaultSpec(site="bagged.subsample", kind="timeout", at=(1, 3))],
            seed=0,
        )
        with inject_faults(injector):
            res = select_bandwidth(
                sample.x, sample.y, method="bagged",
                resilience=self._config(), **PLAN,
            )
        assert res.bandwidth == reference.bandwidth
        assert np.array_equal(res.scores, reference.scores)
        assert res.resilience is not None
        assert res.resilience.retries == 2
        assert len(injector.log) == 2
        attempts = [
            rec["attempts"]
            for rec in res.diagnostics["bagged"]["subsamples"]
        ]
        assert sum(attempts) == 5 + 2

    def test_retry_budget_exhaustion_degrades_losslessly(
        self, sample, reference
    ) -> None:
        # Subsample 0 faults on every attempt; with fallback enabled the
        # sweep degrades to the serial numpy terminal — byte-identical.
        # Events 0..2 are the three attempts of subsample 0 (budget
        # max_retries=2); event 3 is the fallback's own sweep, which the
        # schedule leaves healthy.
        injector = FaultInjector(
            [
                FaultSpec(
                    site="bagged.subsample", kind="timeout",
                    at=(0, 1, 2),
                )
            ],
            seed=0,
        )
        config = ResilienceConfig(
            policy=RetryPolicy(max_retries=2, base_delay=0.0, max_delay=0.0),
            sleep=lambda s: None,
        )
        with inject_faults(injector):
            res = select_bandwidth(
                sample.x, sample.y, method="bagged", backend="blocked-shm",
                resilience=config, **PLAN,
            )
        assert res.bandwidth == reference.bandwidth
        assert np.array_equal(res.scores, reference.scores)

    def test_fallback_disabled_raises(self, sample) -> None:
        from repro.exceptions import BlockTimeoutError
        from repro.resilience.policy import RetryBudgetExceeded

        injector = FaultInjector(
            [FaultSpec(site="bagged.subsample", kind="timeout", rate=1.0)],
            seed=0,
        )
        config = ResilienceConfig(
            policy=RetryPolicy(max_retries=1, base_delay=0.0, max_delay=0.0),
            fallback=False,
            sleep=lambda s: None,
        )
        with inject_faults(injector):
            with pytest.raises((RetryBudgetExceeded, BlockTimeoutError)):
                select_bandwidth(
                    sample.x, sample.y, method="bagged", backend="blocked-shm",
                    resilience=config, **PLAN,
                )


class TestSelectionCache:
    def test_warm_hit_skips_every_sweep(self, sample, reference, tmp_path) -> None:
        from repro.serving import ArtifactCache

        cache = ArtifactCache(tmp_path)
        cold = select_bandwidth(
            sample.x, sample.y, method="bagged", cache=cache, **PLAN
        )
        tracer = Tracer()
        with use_tracer(tracer):
            warm = select_bandwidth(
                sample.x, sample.y, method="bagged", cache=cache, **PLAN
            )
        assert warm.diagnostics.get("cache") == "hit" or tracer.counters().get(
            "selection_cache.hit"
        )
        # No subsample sweep ran on the warm path.
        assert not any(
            s.name.startswith("bagged.subsample") for s in tracer.spans()
        )
        assert warm.bandwidth == cold.bandwidth == reference.bandwidth
        assert np.array_equal(warm.scores, cold.scores)
        assert warm.diagnostics["bagged"] == cold.diagnostics["bagged"]

    def test_explicit_defaults_share_the_fingerprint(self, sample, tmp_path) -> None:
        from repro.serving import ArtifactCache

        cache = ArtifactCache(tmp_path)
        n = sample.x.shape[0]
        plan = plan_subsamples(n)
        select_bandwidth(sample.x, sample.y, method="bagged", cache=cache)
        tracer = Tracer()
        with use_tracer(tracer):
            warm = select_bandwidth(
                sample.x, sample.y, method="bagged", cache=cache,
                subsamples=plan.n_subsamples,
                subsample_size=plan.subsample_size,
                root_seed=0,
            )
        assert tracer.counters().get("selection_cache.hit") == 1
        assert warm.diagnostics["bagged"]["n_subsamples"] == plan.n_subsamples

    def test_different_plan_different_fingerprint(self, sample, tmp_path) -> None:
        from repro.serving import ArtifactCache

        cache = ArtifactCache(tmp_path)
        select_bandwidth(sample.x, sample.y, method="bagged", cache=cache, **PLAN)
        tracer = Tracer()
        with use_tracer(tracer):
            select_bandwidth(
                sample.x, sample.y, method="bagged", cache=cache,
                subsamples=5, subsample_size=300, root_seed=8,
            )
        assert tracer.counters().get("selection_cache.miss") == 1
