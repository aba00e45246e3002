"""Seeded subsample planning: determinism, defaults, validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bagged.plan import (
    DEFAULT_SUBSAMPLES,
    MAX_DEFAULT_SUBSAMPLE_SIZE,
    MIN_SUBSAMPLE_SIZE,
    SubsamplePlan,
    default_subsample_size,
    default_subsamples,
    plan_subsamples,
    resolve_plan_options,
)
from repro.exceptions import ValidationError
from repro.utils.rng import spawn_seed


class TestDefaults:
    def test_polynomial_growth(self) -> None:
        assert default_subsample_size(10_000) == int(np.ceil(10_000**0.7))

    def test_capped(self) -> None:
        assert default_subsample_size(10**6) == MAX_DEFAULT_SUBSAMPLE_SIZE

    def test_floored(self) -> None:
        # ceil(120^0.7) = 29 is below the floor; m snaps up to 100.
        assert default_subsample_size(120) == MIN_SUBSAMPLE_SIZE
        assert default_subsample_size(5000) >= MIN_SUBSAMPLE_SIZE

    def test_never_exceeds_n(self) -> None:
        for n in (3, 50, 99, 100, 101):
            assert default_subsample_size(n) <= n

    def test_single_subsample_when_m_covers_n(self) -> None:
        assert default_subsamples(100, 100) == 1
        assert default_subsamples(100, 99) == DEFAULT_SUBSAMPLES


class TestSubsamplePlan:
    def test_draw_is_pure_function_of_root_and_index(self) -> None:
        plan = SubsamplePlan(n=1000, subsample_size=50, n_subsamples=8, root_seed=3)
        again = SubsamplePlan(n=1000, subsample_size=50, n_subsamples=8, root_seed=3)
        for i in range(8):
            assert np.array_equal(plan.indices(i), again.indices(i))

    def test_draw_is_execution_order_independent(self) -> None:
        plan = SubsamplePlan(n=1000, subsample_size=50, n_subsamples=8, root_seed=3)
        forward = [plan.indices(i) for i in range(8)]
        backward = [plan.indices(i) for i in reversed(range(8))][::-1]
        for a, b in zip(forward, backward):
            assert np.array_equal(a, b)

    def test_draws_differ_across_indices_and_roots(self) -> None:
        plan = SubsamplePlan(n=1000, subsample_size=50, n_subsamples=4, root_seed=0)
        other = SubsamplePlan(n=1000, subsample_size=50, n_subsamples=4, root_seed=1)
        assert not np.array_equal(plan.indices(0), plan.indices(1))
        assert not np.array_equal(plan.indices(0), other.indices(0))

    def test_indices_sorted_without_replacement_in_range(self) -> None:
        plan = SubsamplePlan(n=500, subsample_size=100, n_subsamples=3, root_seed=7)
        for i in range(3):
            idx = plan.indices(i)
            assert idx.shape == (100,)
            assert np.array_equal(idx, np.sort(idx))
            assert len(np.unique(idx)) == 100
            assert idx.min() >= 0 and idx.max() < 500

    def test_indices_pinned_to_spawn_seed_contract(self) -> None:
        # The draw construction is a documented replay contract.
        plan = SubsamplePlan(n=300, subsample_size=40, n_subsamples=2, root_seed=11)
        rng = np.random.default_rng(spawn_seed(11, 1))
        expected = np.sort(rng.choice(300, size=40, replace=False))
        assert np.array_equal(plan.indices(1), expected)

    def test_seeds_match_indices_streams(self) -> None:
        plan = SubsamplePlan(n=300, subsample_size=40, n_subsamples=5, root_seed=2)
        seeds = plan.seeds()
        assert len(seeds) == 5
        rng = np.random.default_rng(seeds[3])
        expected = np.sort(rng.choice(300, size=40, replace=False))
        assert np.array_equal(plan.indices(3), expected)

    def test_take_slices_pairs(self) -> None:
        plan = SubsamplePlan(n=100, subsample_size=10, n_subsamples=1, root_seed=0)
        x = np.arange(100, dtype=np.float64)
        y = x * 2
        xs, ys = plan.take(0, x, y)
        assert np.array_equal(ys, xs * 2)
        assert np.array_equal(xs, plan.indices(0).astype(np.float64))

    def test_take_rejects_mismatched_n(self) -> None:
        plan = SubsamplePlan(n=100, subsample_size=10, n_subsamples=1, root_seed=0)
        with pytest.raises(ValidationError, match="n=100"):
            plan.take(0, np.zeros(50), np.zeros(50))

    def test_index_out_of_range(self) -> None:
        plan = SubsamplePlan(n=100, subsample_size=10, n_subsamples=2, root_seed=0)
        with pytest.raises(ValidationError):
            plan.indices(2)
        with pytest.raises(ValidationError):
            plan.indices(-1)

    @pytest.mark.parametrize(
        ("n", "m", "r"),
        [(2, 2, 1), (100, 2, 1), (100, 101, 1), (100, 10, 0)],
    )
    def test_degenerate_plans_rejected(self, n, m, r) -> None:
        with pytest.raises(ValidationError):
            SubsamplePlan(n=n, subsample_size=m, n_subsamples=r, root_seed=0)

    def test_to_dict_is_the_full_recipe(self) -> None:
        plan = SubsamplePlan(n=100, subsample_size=10, n_subsamples=2, root_seed=9)
        snap = plan.to_dict()
        rebuilt = SubsamplePlan(**snap)
        assert np.array_equal(plan.indices(1), rebuilt.indices(1))


class TestScaleFactor:
    def _plan(self, n: int, m: int) -> SubsamplePlan:
        return SubsamplePlan(n=n, subsample_size=m, n_subsamples=1, root_seed=0)

    def test_known_value(self) -> None:
        # (100000 / 3125)^(1/5) = 32^(0.2) = 2
        assert self._plan(100_000, 3125).scale_factor == pytest.approx(2.0)

    def test_identity_when_m_equals_n(self) -> None:
        assert self._plan(500, 500).scale_factor == 1.0

    def test_inflation_always_at_least_one(self) -> None:
        for m, n in [(10, 10), (10, 100), (999, 1000)]:
            assert self._plan(n, m).scale_factor >= 1.0


class TestPlanSubsamples:
    def test_defaults_resolve(self) -> None:
        plan = plan_subsamples(10_000)
        assert plan.subsample_size == default_subsample_size(10_000)
        assert plan.n_subsamples == DEFAULT_SUBSAMPLES
        assert plan.root_seed == 0

    def test_oversized_subsample_rejected(self) -> None:
        with pytest.raises(ValidationError, match="exceeds"):
            plan_subsamples(100, subsample_size=101)

    def test_resolve_plan_options_makes_plan_explicit(self) -> None:
        resolved = resolve_plan_options(10_000, {})
        assert resolved["subsamples"] == DEFAULT_SUBSAMPLES
        assert resolved["subsample_size"] == default_subsample_size(10_000)
        assert resolved["root_seed"] == 0

    def test_resolve_plan_options_idempotent(self) -> None:
        first = resolve_plan_options(10_000, {"root_seed": 4})
        assert resolve_plan_options(10_000, dict(first)) == first

    def test_resolve_plan_options_preserves_other_keys(self) -> None:
        resolved = resolve_plan_options(1000, {"workers": 2})
        assert resolved["workers"] == 2
