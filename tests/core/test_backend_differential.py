"""Differential harness: every registered backend computes the same sweep.

Three tiers of agreement, each as strong as float semantics allow:

* **bit-for-bit within a dtype family** — numpy (at any row cap or
  memory budget) and blocked-shm all reduce the same per-row float64
  contributions in strict row order (partition-independent ⇒ identical
  addition order at every block size and worker count), and gpusim
  (fast mode) vs gpusim-tiled share the float32 sum;
* **allclose across families** — python vs numpy (different accumulation
  order), float64 vs float32 curves;
* **identical optimum** — ``select_bandwidth`` lands on the exact same
  ``h_opt`` through all four vectorised backends.

Every comparison is run with tracing off *and* with an active
:class:`repro.obs.Tracer`, byte-comparing the two curves: observability
must never perturb the numbers it observes.

Hypothesis draws randomise n, k, kernel, and the data seed
(``derandomize=True`` keeps CI deterministic); dedicated cases cover the
adversarial grids — duplicate-distance ties, bandwidths beyond the data
range, near-zero bandwidths.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.cuda_port  # noqa: F401 - registers gpusim + gpusim-tiled
from repro.core.api import select_bandwidth
from repro.core.backends import get_backend
from repro.core.fastgrid import (
    cv_scores_fastgrid,
    cv_scores_fastgrid_python,
    plan_fastgrid_blocks,
)
from repro.obs import Tracer, use_tracer

FAST_KERNELS = ("epanechnikov", "uniform")


def _sample(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, n)
    y = np.sin(2.0 * np.pi * x) + rng.normal(0.0, 0.3, n)
    return x, y


def _grid(x: np.ndarray, k: int) -> np.ndarray:
    spread = float(np.max(x) - np.min(x))
    return np.linspace(0.05 * spread, 0.75 * spread, k)


def _traced_and_untraced(fn) -> tuple[np.ndarray, np.ndarray]:
    """Run ``fn`` once with no tracer and once inside an active Tracer."""
    plain = fn()
    with use_tracer(Tracer()):
        traced = fn()
    return np.asarray(plain), np.asarray(traced)


draws = st.tuples(
    st.integers(8, 30).map(lambda m: 2 * m),  # even n in [16, 60]
    st.integers(3, 12),                        # k
    st.sampled_from(FAST_KERNELS),
    st.integers(0, 2**16),                     # data seed
)


class TestBitForBitWithinFamilies:
    """Same-precision backends must agree to the last bit."""

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(draw=draws)
    def test_numpy_multicore_identical_float64(self, draw):
        n, k, kernel, seed = draw
        x, y = _sample(n, seed)
        grid = _grid(x, k)
        numpy_backend = get_backend("numpy")
        # The multi-core executor: row blocks over a two-worker pool.
        multicore = get_backend("blocked-shm")

        # Different partitions on purpose (two serial blocks against
        # default-sized blocks over two workers): both fold the same rows
        # in global row order, so agreement is exact, not approximate.
        a_plain, a_traced = _traced_and_untraced(
            lambda: numpy_backend(x, y, grid, kernel, block_rows=n // 2)
        )
        b_plain, b_traced = _traced_and_untraced(
            lambda: multicore(x, y, grid, kernel, workers=2)
        )
        assert a_plain.tobytes() == a_traced.tobytes()
        assert b_plain.tobytes() == b_traced.tobytes()
        assert a_plain.tobytes() == b_plain.tobytes()

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(draw=draws)
    def test_gpusim_and_tiled_identical_float32(self, draw):
        n, k, kernel, seed = draw
        x, y = _sample(n, seed)
        grid = _grid(x, k)
        gpusim = get_backend("gpusim")
        tiled = get_backend("gpusim-tiled")

        # mode="fast" and tile_rows >= n both reduce to one float32 block
        # sum over [0, n): the same arithmetic, so the same bits.
        a_plain, a_traced = _traced_and_untraced(
            lambda: gpusim(x, y, grid, kernel, mode="fast")
        )
        b_plain, b_traced = _traced_and_untraced(
            lambda: tiled(x, y, grid, kernel, tile_rows=n)
        )
        assert a_plain.tobytes() == a_traced.tobytes()
        assert b_plain.tobytes() == b_traced.tobytes()
        assert a_plain.tobytes() == b_plain.tobytes()


def _adversarial_block_sizes(n: int) -> tuple[int, ...]:
    """Degenerate partitions: single rows, one fat + one sliver (B = n-1),
    a size that does not divide n, exactly one block, and B > n."""
    return (1, n - 1, n // 3 + 1, n, 2 * n)


class TestBlockwiseOutOfCore:
    """The out-of-core sweeps must reproduce numpy to the last bit at
    EVERY partition — the strict row-order fold is the whole contract."""

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(draw=draws)
    def test_blocked_matches_numpy_at_adversarial_block_sizes(self, draw):
        n, k, kernel, seed = draw
        x, y = _sample(n, seed)
        grid = _grid(x, k)
        ref = np.asarray(get_backend("numpy")(x, y, grid, kernel))
        blocked = get_backend("numpy")
        for rows in _adversarial_block_sizes(n):
            got_plain, got_traced = _traced_and_untraced(
                lambda rows=rows: blocked(x, y, grid, kernel, block_rows=rows)
            )
            assert got_plain.tobytes() == got_traced.tobytes(), f"B={rows}"
            assert got_plain.tobytes() == ref.tobytes(), f"B={rows}"

    @settings(max_examples=3, deadline=None, derandomize=True)
    @given(draw=draws)
    def test_blocked_shm_matches_numpy_at_adversarial_partitions(self, draw):
        n, k, kernel, seed = draw
        x, y = _sample(n, seed)
        grid = _grid(x, k)
        ref = np.asarray(get_backend("numpy")(x, y, grid, kernel))
        shm = get_backend("blocked-shm")
        for rows, workers in (
            (1, 2),            # one row per block, striped over two workers
            (n - 1, 2),        # a fat block and a one-row sliver
            (n // 3 + 1, 3),   # B does not divide n
            (n, 1),            # single block on the serial in-parent path
        ):
            got_plain, got_traced = _traced_and_untraced(
                lambda rows=rows, workers=workers: shm(
                    x, y, grid, kernel, block_rows=rows, workers=workers
                )
            )
            tag = f"B={rows}, workers={workers}"
            assert got_plain.tobytes() == got_traced.tobytes(), tag
            assert got_plain.tobytes() == ref.tobytes(), tag

    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(draw=draws)
    def test_budget_planned_partition_is_still_bit_identical(self, draw):
        # Let the *planner* pick the partition from a byte budget — the
        # curve must not depend on where the budget happened to land.
        n, k, kernel, seed = draw
        x, y = _sample(n, seed)
        grid = _grid(x, k)
        ref = np.asarray(get_backend("numpy")(x, y, grid, kernel))
        budget = "32KiB"
        plan = plan_fastgrid_blocks(n, grid, kernel, memory_budget=budget)
        assert plan.block_rows >= 1
        for backend in ("numpy", "blocked-shm"):
            got = np.asarray(
                get_backend(backend)(x, y, grid, kernel, memory_budget=budget)
            )
            assert got.tobytes() == ref.tobytes(), backend


class TestCrossFamilyAgreement:
    """Different accumulation orders / precisions agree to tolerance."""

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(draw=draws)
    def test_python_matches_numpy(self, draw):
        n, k, kernel, seed = draw
        x, y = _sample(n, seed)
        grid = _grid(x, k)
        ref = cv_scores_fastgrid(x, y, grid, kernel)
        alt_plain, alt_traced = _traced_and_untraced(
            lambda: cv_scores_fastgrid_python(x, y, grid, kernel)
        )
        assert alt_plain.tobytes() == alt_traced.tobytes()
        np.testing.assert_allclose(alt_plain, ref, rtol=1e-9)

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(draw=draws)
    def test_float32_family_tracks_float64_curve(self, draw):
        n, k, kernel, seed = draw
        x, y = _sample(n, seed)
        grid = _grid(x, k)
        ref = cv_scores_fastgrid(x, y, grid, kernel)
        f32 = get_backend("gpusim")(x, y, grid, kernel, mode="fast")
        np.testing.assert_allclose(f32, ref, rtol=1e-4, atol=1e-6)

    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(draw=draws)
    def test_all_backends_agree_on_h_opt(self, draw):
        n, k, kernel, seed = draw
        x, y = _sample(n, seed)
        chosen = {}
        for backend, options in (
            ("numpy", {}),
            ("python", {}),
            ("numpy", {"block_rows": 7}),
            ("numpy", {"memory_budget": "32KiB"}),
            ("blocked-shm", {"workers": 2}),
            ("blocked-shm", {"block_rows": 7, "workers": 2}),
            ("gpusim", {"mode": "fast"}),
            ("gpusim-tiled", {}),
        ):
            result = select_bandwidth(
                x, y, backend=backend, n_bandwidths=k, kernel=kernel,
                **options,
            )
            chosen[f"{backend} {options}"] = result.bandwidth
        assert len(set(chosen.values())) == 1, chosen


class TestAdversarialGrids:
    """Degenerate inputs where the sweeps could plausibly diverge."""

    def _compare_all(self, x, y, grid, kernel="epanechnikov"):
        ref = cv_scores_fastgrid(x, y, grid, kernel)
        alt = cv_scores_fastgrid_python(x, y, grid, kernel)
        f32 = get_backend("gpusim")(x, y, grid, kernel, mode="fast")
        # The out-of-core sweep hits the same degenerate windows through
        # an awkward partition (B = 5 never divides these samples evenly)
        # and must still agree to the last bit, non-finite lanes included.
        blk = np.asarray(
            get_backend("numpy")(x, y, grid, kernel, block_rows=5)
        )
        assert blk.tobytes() == ref.tobytes()
        finite = np.isfinite(ref)
        assert (np.isfinite(alt) == finite).all()
        assert (np.isfinite(f32) == finite).all()
        np.testing.assert_allclose(alt[finite], ref[finite], rtol=1e-9)
        np.testing.assert_allclose(
            f32[finite], ref[finite], rtol=1e-4, atol=1e-6
        )
        with use_tracer(Tracer()):
            traced = cv_scores_fastgrid(x, y, grid, kernel)
        assert traced.tobytes() == ref.tobytes()
        return ref

    def test_duplicate_distance_ties(self):
        # Repeated x values put many observations at distance exactly 0
        # and equal positive distances — searchsorted tie-breaking
        # territory for the sorted sweep.
        x = np.repeat(np.linspace(0.0, 1.0, 8), 4)
        rng = np.random.default_rng(7)
        y = x**2 + rng.normal(0.0, 0.1, x.shape[0])
        grid = np.array([0.1, 0.125, 0.25, 0.5])
        self._compare_all(x, y, grid)

    def test_bandwidth_larger_than_data_range(self):
        # Every window spans the whole sample: the sweep degenerates to
        # the global (leave-one-out) mean for the uniform kernel.
        x, y = _sample(32, seed=3)
        spread = float(np.max(x) - np.min(x))
        grid = np.array([2.0 * spread, 10.0 * spread, 100.0 * spread])
        self._compare_all(x, y, grid, kernel="uniform")

    def test_near_zero_bandwidth_empty_windows(self):
        # Bandwidths far below the minimum spacing leave every window
        # empty after the LOO correction: the guarded CV values must be
        # non-finite in the same positions for every backend.
        x = np.linspace(0.0, 1.0, 24)
        rng = np.random.default_rng(11)
        y = np.cos(x) + rng.normal(0.0, 0.05, 24)
        grid = np.array([1e-12, 1e-9, 0.2])
        ref = self._compare_all(x, y, grid)
        assert np.isfinite(ref[2])

    def test_empty_window_counter_increments(self):
        x = np.linspace(0.0, 1.0, 24)
        y = x.copy()
        grid = np.array([1e-12, 0.3])
        tracer = Tracer()
        with use_tracer(tracer):
            cv_scores_fastgrid(x, y, grid, "epanechnikov")
        assert tracer.counters().get("numeric.empty_windows", 0.0) > 0


class TestFloat32:
    """The float32 sweep, like the float64 one, is untouched by tracing.

    The out-of-core float32 sweep folds the same per-row contributions in
    strict row order, so it matches numpy's float32 curve to the last bit
    at any partition.  The gpusim float32 kernel accumulates in a
    different order, so its contract is weaker: ``h_opt`` lands on the
    same grid index and the curves agree to ``rtol=1e-5``.
    """

    SEEDS = (0, 1, 7, 42, 1234)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kernel", FAST_KERNELS)
    def test_float32_h_opt_same_grid_index(self, seed, kernel):
        x, y = _sample(48, seed)
        grid = _grid(x, 10)
        ref32 = cv_scores_fastgrid(x, y, grid, kernel, dtype="float32")
        blocked32 = np.asarray(
            get_backend("numpy")(
                x, y, grid, kernel, block_rows=7, dtype="float32"
            )
        )
        assert blocked32.tobytes() == ref32.tobytes()
        gpu32 = np.asarray(get_backend("gpusim")(x, y, grid, kernel, mode="fast"))
        assert int(np.argmin(gpu32)) == int(np.argmin(ref32))
        np.testing.assert_allclose(gpu32, ref32, rtol=1e-5)

    @pytest.mark.parametrize("seed", (0, 1))
    def test_float32_traced_equals_untraced(self, seed):
        x, y = _sample(40, seed)
        grid = _grid(x, 8)
        plain, traced = _traced_and_untraced(
            lambda: cv_scores_fastgrid(
                x, y, grid, "epanechnikov", dtype="float32"
            )
        )
        assert plain.tobytes() == traced.tobytes()
