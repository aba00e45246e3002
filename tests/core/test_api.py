"""Tests for the select_bandwidth convenience front-end."""

import numpy as np
import pytest

from repro.core import BandwidthGrid, select_bandwidth
from repro.exceptions import ValidationError


class TestMethodDispatch:
    def test_default_is_grid_search(self, paper_sample_medium):
        s = paper_sample_medium
        res = select_bandwidth(s.x, s.y)
        assert res.method == "grid-search"
        assert res.n_evaluations == 50

    @pytest.mark.parametrize("alias", ["grid", "grid-search", "fast-grid"])
    def test_grid_aliases(self, alias, paper_sample_small):
        s = paper_sample_small
        res = select_bandwidth(s.x, s.y, method=alias, n_bandwidths=5)
        assert res.method == "grid-search"

    @pytest.mark.parametrize("alias", ["numeric", "numerical", "np"])
    def test_numeric_aliases(self, alias, paper_sample_small):
        s = paper_sample_small
        res = select_bandwidth(
            s.x, s.y, method=alias, n_restarts=1, maxiter=30
        )
        assert res.method == "numerical-optimization"

    @pytest.mark.parametrize("alias", ["rot", "rule-of-thumb"])
    def test_rot_aliases(self, alias, paper_sample_small):
        s = paper_sample_small
        res = select_bandwidth(s.x, s.y, method=alias)
        assert res.method == "rule-of-thumb"

    def test_method_case_insensitive(self, paper_sample_small):
        s = paper_sample_small
        res = select_bandwidth(s.x, s.y, method="GRID", n_bandwidths=5)
        assert res.method == "grid-search"

    def test_unknown_method_rejected(self, paper_sample_small):
        s = paper_sample_small
        with pytest.raises(ValidationError, match="unknown method"):
            select_bandwidth(s.x, s.y, method="magic")


class TestMethodAliasTable:
    """Every entry in ``_METHOD_ALIASES`` is a working spelling."""

    def _aliases(self) -> dict[str, str]:
        from repro.core.api import _METHOD_ALIASES

        return dict(_METHOD_ALIASES)

    def test_table_covers_all_four_selectors(self):
        assert set(self._aliases().values()) == {
            "grid",
            "numeric",
            "rule-of-thumb",
            "bagged",
        }

    def test_every_alias_resolves(self, paper_sample_small):
        s = paper_sample_small
        expected_method = {
            "grid": "grid-search",
            "numeric": "numerical-optimization",
            "rule-of-thumb": "rule-of-thumb",
            "bagged": "bagged-cv",
        }
        per_canonical_kwargs = {
            "grid": {"n_bandwidths": 5},
            "numeric": {"n_restarts": 1, "maxiter": 20},
            "rule-of-thumb": {},
            "bagged": {"n_bandwidths": 5, "subsamples": 3},
        }
        for alias, canonical in self._aliases().items():
            res = select_bandwidth(
                s.x, s.y, method=alias, **per_canonical_kwargs[canonical]
            )
            assert res.method == expected_method[canonical], alias

    def test_aliases_are_case_insensitive(self, paper_sample_small):
        s = paper_sample_small
        kwargs_for = {
            "grid": {"n_bandwidths": 4},
            "numeric": {"n_restarts": 1, "maxiter": 20},
            "rule-of-thumb": {},
            "bagged": {"n_bandwidths": 4, "subsamples": 3},
        }
        for alias, canonical in self._aliases().items():
            res = select_bandwidth(
                s.x, s.y, method=alias.upper(), **kwargs_for[canonical]
            )
            assert res.bandwidth > 0, alias

    def test_unknown_method_error_lists_every_alias(self, paper_sample_small):
        s = paper_sample_small
        with pytest.raises(ValidationError) as err:
            select_bandwidth(s.x, s.y, method="nope")
        message = str(err.value)
        for alias in self._aliases():
            assert alias in message

    def test_rot_rejects_resilience(self, paper_sample_small):
        s = paper_sample_small
        with pytest.raises(ValidationError, match="resilience"):
            select_bandwidth(s.x, s.y, method="rot", resilience=True)

    def test_non_grid_rejects_resume(self, paper_sample_small):
        # No selector or backend reads resume=: it is refused as unknown.
        s = paper_sample_small
        with pytest.raises(ValidationError, match="unknown option.*resume") as err:
            select_bandwidth(
                s.x, s.y, method="rot", resume="checkpoint.npz"
            )
        assert err.value.code == "REPRO_VALIDATION"


class TestUnreadOptions:
    """An option that no code on the call reads is refused, not dropped."""

    @pytest.mark.parametrize(
        "method", ["grid", "bagged", "numeric", "rule-of-thumb"]
    )
    @pytest.mark.parametrize(
        "option",
        [
            {"fleet": 1},
            {"memory_bugdet": "64MiB"},
            {"resume": "sweep.ckpt.npz"},
            {"bogus_option": 3},
        ],
        ids=["fleet", "memory_bugdet", "resume", "bogus_option"],
    )
    def test_unread_option_raises_validation(
        self, paper_sample_small, method, option
    ):
        s = paper_sample_small
        plan = {"subsamples": 3, "subsample_size": 30} if method == "bagged" else {}
        with pytest.raises(ValidationError, match="unknown option") as err:
            select_bandwidth(s.x, s.y, method=method, **plan, **option)
        assert err.value.code == "REPRO_VALIDATION"
        assert next(iter(option)) in str(err.value)

    def test_an_option_only_another_backend_reads_is_refused(
        self, paper_sample_small
    ):
        # workers= steers blocked-shm's pool; the numpy sweep never reads it.
        s = paper_sample_small
        with pytest.raises(ValidationError, match="workers"):
            select_bandwidth(s.x, s.y, n_bandwidths=8, workers=2)

    @pytest.mark.parametrize(
        ("backend", "option"),
        [
            ("blocked-shm", {"workers": 1}),
            ("gpusim", {"tile_rows": 64}),
            ("blocked-shm", {"dtype": "float64"}),
            ("python", {"block_rows": 16}),
        ],
        ids=["shm-workers", "gpusim-chain-tile-rows", "shm-dtype", "python-chain-block-rows"],
    )
    def test_options_of_the_fallback_chain_are_accepted(
        self, paper_sample_small, backend, option
    ):
        # gpusim's chain runs through gpusim-tiled (tile_rows=) and every
        # chain ends on numpy (block_rows=), so their options are read.
        s = paper_sample_small
        res = select_bandwidth(
            s.x, s.y, n_bandwidths=8, backend=backend, **option
        )
        assert res.backend == backend


class TestArtifactCacheIntegration:
    def test_warm_call_returns_identical_result_without_sweep(
        self, paper_sample_small
    ):
        from repro.serving import ArtifactCache

        s = paper_sample_small
        cache = ArtifactCache(None)
        cold = select_bandwidth(s.x, s.y, n_bandwidths=6, cache=cache)
        warm = select_bandwidth(s.x, s.y, n_bandwidths=6, cache=cache)
        assert warm.bandwidth == cold.bandwidth
        assert warm.score == cold.score
        np.testing.assert_array_equal(warm.scores, cold.scores)
        assert warm.diagnostics["cache"] == "hit"
        assert "cache" not in cold.diagnostics
        assert cache.stats.hits_by_kind.get("selection") == 1

    def test_cache_key_distinguishes_backend(self, paper_sample_small):
        from repro.serving import ArtifactCache

        s = paper_sample_small
        cache = ArtifactCache(None)
        select_bandwidth(s.x, s.y, n_bandwidths=6, cache=cache)
        other = select_bandwidth(
            s.x, s.y, n_bandwidths=6, cache=cache, backend="python"
        )
        assert "cache" not in other.diagnostics

    def test_typed_resilience_config_accepted(self, paper_sample_small):
        from repro.resilience import ResilienceConfig

        s = paper_sample_small
        res = select_bandwidth(
            s.x,
            s.y,
            n_bandwidths=5,
            resilience=ResilienceConfig(fallback=False),
        )
        assert res.resilience is not None
        assert res.bandwidth > 0


class TestOptionForwarding:
    def test_explicit_grid_used(self, paper_sample_small):
        s = paper_sample_small
        grid = BandwidthGrid(np.array([0.2, 0.4]))
        res = select_bandwidth(s.x, s.y, grid=grid)
        assert res.bandwidth in grid.values

    def test_kernel_forwarded(self, paper_sample_small):
        s = paper_sample_small
        res = select_bandwidth(s.x, s.y, kernel="triangular", n_bandwidths=5)
        assert res.kernel == "triangular"

    def test_backend_forwarded(self, paper_sample_small):
        s = paper_sample_small
        res = select_bandwidth(s.x, s.y, backend="python", n_bandwidths=5)
        assert res.backend == "python"

    def test_refine_rounds_forwarded(self, paper_sample_small):
        s = paper_sample_small
        res = select_bandwidth(s.x, s.y, n_bandwidths=8, refine_rounds=1)
        assert res.n_evaluations == 16

    def test_docstring_example_runs(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, 200)
        y = 0.5 * x + 10 * x**2 + rng.uniform(0, 0.5, 200)
        res = select_bandwidth(x, y, n_bandwidths=50)
        assert 0 < res.bandwidth <= 1.0


class TestArrayLikeGrid:
    """``grid=`` takes any array-like of bandwidths, not only a BandwidthGrid."""

    VALUES = (0.1, 0.2, 0.4)
    BAGGED = dict(subsamples=3, subsample_size=40, root_seed=1)

    def _select(self, sample, method, grid):
        from repro.serving import ArtifactCache

        options = self.BAGGED if method == "bagged" else {}
        return select_bandwidth(
            sample.x, sample.y, method=method, grid=grid,
            cache=ArtifactCache(None), **options,
        )

    @pytest.mark.parametrize("method", ["grid", "bagged"])
    @pytest.mark.parametrize(
        "grid", [list(VALUES), VALUES, np.array(VALUES)],
        ids=["list", "tuple", "ndarray"],
    )
    def test_same_selection_and_cache_key(self, method, grid, paper_sample_small):
        s = paper_sample_small
        ref = self._select(s, method, BandwidthGrid(np.array(self.VALUES)))
        got = self._select(s, method, grid)
        assert got.bandwidth == ref.bandwidth
        assert got.scores.tobytes() == ref.scores.tobytes()
        assert got.diagnostics["fingerprint"] == ref.diagnostics["fingerprint"]

    @pytest.mark.parametrize("method", ["grid", "bagged"])
    @pytest.mark.parametrize(
        "grid, code",
        [
            ([0.4, 0.2, 0.1], "REPRO_BANDWIDTH_GRID"),
            ([-0.1, 0.2], "REPRO_BANDWIDTH_GRID"),
            ([], "REPRO_DATA_SHAPE"),
        ],
        ids=["decreasing", "negative", "empty"],
    )
    def test_invalid_grid_raises_typed_error(
        self, method, grid, code, paper_sample_small
    ):
        s = paper_sample_small
        with pytest.raises(ValidationError) as info:
            self._select(s, method, grid)
        assert info.value.code == code

    def test_selector_constructors_coerce(self):
        from repro.bagged.selector import BaggedCVSelector
        from repro.core.selectors import GridSearchSelector

        for selector in (GridSearchSelector, BaggedCVSelector):
            grid = selector(grid=[0.1, 0.2]).grid
            assert isinstance(grid, BandwidthGrid)
            np.testing.assert_array_equal(grid.values, [0.1, 0.2])
