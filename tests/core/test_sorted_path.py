"""Differential and robustness wall for the sort-once window-sum path.

The sorted path (:class:`repro.core.fastgrid._SortedSample`) computes the
same window sums as the binned O(n²) path from prefix sums over the
sample sorted once, so its curves differ from the binned bits by
rounding only.  The contract (DESIGN.md, "Sort-once path"):

* curves within a per-kernel relative tolerance of the binned path, at
  x offsets 0 and 1e6;
* each path's ``h_opt`` in the ``math.fsum`` oracle's near-minimal set:
  the grid points within that tolerance of the oracle's minimum (where
  the set is one point, both paths pick that point);
* window membership decided by the binned predicate ``|x_i − x_l| <=
  grid[j]·R`` exactly — checked against a brute-force count;
* windows that leave their cell's neighbourhood through rounding of the
  cell edges are summed by the checked fallback — against brute-force
  counts and the ``math.fsum`` oracle;
* bit-for-bit agreement among the row-block executors (numpy and
  blocked-shm) at any block size, because every row (a position in the
  sorted sample) is computed independently of its block — down to the
  raw window sums;
* float32 sweeps keep the binned bits;
* pinned curve bytes: a change that moves any bit of a sorted-path curve
  must re-pin here on purpose (and bump the cache ``_FORMAT_VERSION``).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.core import fastgrid
from repro.core.backends import get_backend
from repro.core.blockwise import cv_scores_blocked_shm
from repro.core.fastgrid import (
    cv_scores_fastgrid,
    fastgrid_row_contributions,
    window_sum_path,
)
from repro.core.grid import BandwidthGrid
from repro.core.loocv import cv_scores_dense_grid
from repro.data.generators import paper_dgp
from repro.kde.convolution import ConvolutionKernel, self_convolution
from repro.kernels import fast_grid_kernels, get_kernel

#: Curve rtol against the binned path, per kernel (largest power p), as
#: recorded in DESIGN.md.  Tricube's is the loosest: a window holding one
#: neighbour at u ≈ 0.9998 has a weight of ~1e-10 that both paths obtain
#: by cancelling O(1) polynomial terms, so each path is off the exact
#: value by ~1e-8 there and the two differ by up to 4.3e-8.
RTOL = {
    "uniform": 1e-10,
    "epanechnikov": 1e-10,
    "triangular": 1e-10,
    "biweight": 1e-9,
    "triweight": 1e-9,
    "tricube": 1e-7,
}
KERNELS = tuple(fast_grid_kernels())
OFFSETS = (0.0, 1e6)
N = 600


def test_every_fast_grid_kernel_has_a_tolerance():
    assert set(KERNELS) == set(RTOL)


@pytest.fixture
def binned(monkeypatch):
    """Run a callable with the path rule forced to the binned path."""

    def run(fn):
        with monkeypatch.context() as patch:
            patch.setattr(fastgrid, "SORTED_MIN_N", 10**18)
            return fn()

    return run


def _sample(n: int, seed: int, offset: float = 0.0):
    rng = np.random.default_rng(seed)
    x = offset + rng.uniform(0.0, 1.0, n)
    y = np.sin(6.0 * (x - offset)) + rng.normal(0.0, 0.3, n)
    return x, y


def _fsum_curve(x, y, grid, kernel):
    """``CV_lc(h)`` with every window sum and the outer sum by ``math.fsum``.

    The same values as ``tests.core.test_loocv_oracle._oracle`` (checked
    below), computed from the sorted sample: each row's window is a run
    of neighbouring ranks (widened by one rank each side), so only that
    run is summed.  ``fsum`` is exact, so the order of the terms and the
    zero weights padding the runs change nothing.  About 5× faster than
    ``_oracle`` at n = 600, which is what lets every ``_assert_contract``
    call consult it.
    """
    kern = get_kernel(kernel)
    n = x.shape[0]
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    rows = np.arange(n)[:, None]
    curve = []
    for h in grid:
        reach = kern.support_radius * h
        lo = np.maximum(np.searchsorted(xs, xs - reach, side="left") - 1, 0)
        hi = np.minimum(np.searchsorted(xs, xs + reach, side="right") + 1, n)
        cols = lo[:, None] + np.arange(int(np.max(hi - lo)))[None, :]
        inside = (cols < hi[:, None]) & (cols != rows)
        cols = np.minimum(cols, n - 1)
        weights = np.where(inside, kern((xs[:, None] - xs[cols]) / h), 0.0)
        dens = map(math.fsum, weights.tolist())
        nums = map(math.fsum, (weights * ys[cols]).tolist())
        squares = [
            (yi - num / den) ** 2
            for yi, num, den in zip(ys.tolist(), nums, dens)
            if den > 0.0
        ]
        curve.append(math.fsum(squares) / n)
    return np.array(curve)


def _assert_contract(sorted_curve, binned_curve, kernel, x, y, grid):
    """Curves within ``RTOL`` of each other; both argmins near-minimal.

    A grid point is near-minimal when the fsum oracle puts it within
    ``RTOL[kernel]`` of the oracle's minimum: closer than that, the
    rounding of either path may order the two points either way.
    """
    np.testing.assert_allclose(
        sorted_curve, binned_curve, rtol=RTOL[kernel], atol=0.0
    )
    exact = _fsum_curve(x, y, grid, kernel)
    best = float(np.min(exact))
    near = set(np.flatnonzero(exact - best <= RTOL[kernel] * best).tolist())
    assert int(np.argmin(sorted_curve)) in near, (sorted_curve, exact)
    assert int(np.argmin(binned_curve)) in near, (binned_curve, exact)


@pytest.mark.parametrize("kernel", ("epanechnikov", "tricube"))
def test_fsum_curve_is_the_loocv_oracle(kernel):
    from tests.core.test_loocv_oracle import _oracle

    x, y = _sample(150, 9)
    x[::10] = x[1::10]  # ties
    grid = np.linspace(0.001, 0.4, 9)
    assert _fsum_curve(x, y, grid, kernel).tobytes() == (
        _oracle(x, y, grid, kernel).tobytes()
    )


def _brute_counts(x, grid, radius):
    dist = np.abs(x[:, None] - x[None, :])
    cut = grid * radius
    return (dist[:, :, None] <= cut[None, None, :]).sum(axis=1)


class TestPathRule:
    def test_benchmark_shapes(self):
        assert window_sum_path(8000, 50, "epanechnikov") == "sorted"
        assert window_sum_path(3163, 50, "epanechnikov") == "sorted"
        # The served workload's shape (n = 2,000, k = 500) sorts, tricube
        # too, though not at k = 1,000; the bagged answers' m = 300
        # subsamples stay binned.
        assert window_sum_path(2000, 500, "epanechnikov") == "sorted"
        assert window_sum_path(2000, 500, "tricube") == "sorted"
        assert window_sum_path(2000, 1000, "tricube") == "binned"
        assert window_sum_path(2000, 1500, "epanechnikov") == "binned"
        assert window_sum_path(300, 50, "epanechnikov") == "binned"

    def test_the_crossover_is_a_line_in_k(self):
        # n >= SORTED_MIN_N + ratio·k, the ratio keyed on the polynomial
        # terms: Epanechnikov (power 2) and its self-convolution K̄
        # (power 5) share a name, not necessarily a row.
        conv = self_convolution(get_kernel("epanechnikov"))
        assert conv.name == "epanechnikov"
        for kernel in (*KERNELS, conv):
            kern = get_kernel(kernel) if isinstance(kernel, str) else kernel
            top = max(t.power for t in kern.poly_terms)
            ratio = next(r for limit, r in fastgrid.SORTED_MIN_N_PER_K if top <= limit)
            for k in (2, 50, 500):
                n = math.ceil(fastgrid.SORTED_MIN_N + ratio * k)
                assert window_sum_path(n, k, kern) == "sorted"
                assert window_sum_path(n - 1, k, kern) == "binned"

    def test_float32_and_dense_kernels_stay_binned(self):
        assert window_sum_path(8000, 50, "epanechnikov", "float32") == "binned"
        assert window_sum_path(8000, 50, "gaussian") == "binned"

    def test_rule_is_whole_sample_only(self):
        # Every row block of one sweep takes the same path: the rule sees
        # (n, k, kernel, dtype), never the block's row count.
        x, y = _sample(N, 0)
        grid = np.linspace(0.01, 0.3, 20)
        one = fastgrid_row_contributions(x, y, grid, "epanechnikov", 0, 1)
        whole = fastgrid_row_contributions(x, y, grid, "epanechnikov", 0, N)
        assert one.tobytes() == whole[:1].tobytes()


class TestAgainstBinned:
    @pytest.mark.parametrize("offset", OFFSETS)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_random_sample(self, kernel, offset, binned):
        x, y = _sample(N, 1, offset)
        grid = np.linspace(0.01, 0.3, 30)
        assert window_sum_path(N, 30, kernel) == "sorted"
        got = cv_scores_fastgrid(x, y, grid, kernel)
        ref = binned(lambda: cv_scores_fastgrid(x, y, grid, kernel))
        _assert_contract(got, ref, kernel, x, y, grid)

    @pytest.mark.parametrize("offset", OFFSETS)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_duplicates_exactly_on_window_edges(self, kernel, offset, binned):
        # Three copies of each multiple of 1/64, and bandwidths that are
        # multiples of 1/64 too: window edges land exactly on data.
        lattice = offset + np.arange(200) / 64.0
        x = np.repeat(lattice, 3)
        y = np.sin(x - offset) + np.random.default_rng(2).normal(0, 0.1, x.size)
        grid = np.arange(1, 31) / 64.0
        got = cv_scores_fastgrid(x, y, grid, kernel)
        ref = binned(lambda: cv_scores_fastgrid(x, y, grid, kernel))
        _assert_contract(got, ref, kernel, x, y, grid)

    @pytest.mark.parametrize("offset", OFFSETS)
    def test_membership_matches_binned_predicate(self, offset):
        # Adversarial edges: points at fl(x_i ± c), one ulp either side,
        # where searchsorted on x_i ± c and the predicate |x_i − x_l| <= c
        # can disagree.
        rng = np.random.default_rng(3)
        base = offset + rng.uniform(0.0, 1.0, 300)
        grid = np.linspace(0.013, 0.29, 20)
        extra = []
        for i, j in zip(rng.integers(0, 300, 60), rng.integers(0, 20, 60)):
            for edge in (base[i] - grid[j], base[i] + grid[j]):
                extra += [np.nextafter(edge, -np.inf), edge,
                          np.nextafter(edge, np.inf)]
        x = np.concatenate([base, extra])
        y = rng.normal(size=x.size)
        kern = get_kernel("uniform")
        sample = fastgrid._SortedSample(x, y, grid, kern)
        _, _, count = sample.window_sums(0, x.size)
        np.testing.assert_array_equal(
            count.T, _brute_counts(sample.xs, grid, kern.support_radius)
        )

    @pytest.mark.parametrize("offset", OFFSETS)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_constant_x(self, kernel, offset, binned):
        x = np.full(N, offset + 0.5, dtype=np.float64)
        y = np.random.default_rng(4).normal(size=N)
        grid = np.linspace(0.01, 0.3, 20)
        got = cv_scores_fastgrid(x, y, grid, kernel)
        ref = binned(lambda: cv_scores_fastgrid(x, y, grid, kernel))
        _assert_contract(got, ref, kernel, x, y, grid)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_near_constant_x(self, kernel, binned):
        rng = np.random.default_rng(5)
        x = 0.5 + 1e-12 * rng.uniform(size=N)
        y = rng.normal(size=N)
        grid = np.linspace(0.01, 0.3, 20)
        got = cv_scores_fastgrid(x, y, grid, kernel)
        ref = binned(lambda: cv_scores_fastgrid(x, y, grid, kernel))
        _assert_contract(got, ref, kernel, x, y, grid)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_bandwidths_below_minimum_spacing_empty_the_windows(
        self, kernel, binned
    ):
        # Distinct lattice points 1/64 apart; the first grid points see
        # only the observation itself, so those CV values are exactly 0.
        x = np.arange(N) / 64.0
        y = np.cos(x)
        grid = np.concatenate([[1 / 512, 1 / 256], np.linspace(0.02, 0.6, 20)])
        got = cv_scores_fastgrid(x, y, grid, kernel)
        ref = binned(lambda: cv_scores_fastgrid(x, y, grid, kernel))
        assert not got[:2].any()
        _assert_contract(got, ref, kernel, x, y, grid)

    @pytest.mark.parametrize("offset", OFFSETS)
    @pytest.mark.parametrize("kernel", ("epanechnikov", "tricube"))
    def test_tiny_bandwidths_keep_bookkeeping_linear(
        self, kernel, offset, binned
    ):
        # h_min is 1e7 times below the spread: 15 octaves, most cut into
        # cells far narrower than the data spacing.  Only non-empty
        # cells have neighbourhoods and a point sits in at most three, so
        # every octave stays O(n): 3·N points plus one empty-prefix slot
        # per neighbourhood, padded by at most 1/8.
        x, y = _sample(N, 6, offset)
        grid = np.geomspace(1e-7, 0.5, 30)
        got = cv_scores_fastgrid(x, y, grid, kernel)
        ref = binned(lambda: cv_scores_fastgrid(x, y, grid, kernel))
        _assert_contract(got, ref, kernel, x, y, grid)
        kern = get_kernel(kernel)
        sample = fastgrid._SortedSample(x, y, grid, kern)
        assert len(sample.octaves) == 15
        top = max(t.power for t in kern.poly_terms)
        for octave in sample.octaves:
            assert octave.prefix.shape[0] == 2 * top + 1
            assert octave.prefix.shape[1] <= (3 * N + N) * 9 // 8
            for per_row in (octave.base, octave.nb_lo, octave.nb_hi, octave.delta):
                assert per_row.shape == (N,)


class TestNeighbourhoodEdges:
    """Windows that leave their neighbourhood through cell-edge rounding.

    In exact arithmetic a window of half-width ``R·h <= W`` (``W = R·h_max``
    of the octave) around a point of cell ``s`` stays inside cells
    ``s − 1 .. s + 1``.  But the cell index ``floor((x − x_min) / W)`` and
    the membership test ``|x_i − x_l| <= R·h`` round separately, and at
    the pair ``A``, ``B`` below (found by search) they disagree:
    ``|B − A| <= W`` while their cells are two apart.  Each of their top
    windows then escapes its neighbourhood, and the checked fallback must
    sum it directly.  Around them sit ties and points on ``fl(x_min +
    m·W)``, the cell edges themselves.
    """

    W = 0.05482027171885534
    X_MIN = 0.589889487029958
    A = 14.678699318775779
    B = 14.733519590494634
    GRID = W * np.array([0.55, 0.7, 0.85, 1.0])

    def _data(self) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(12)
        edges = self.X_MIN + np.arange(250, 266) * self.W
        x = np.concatenate([
            [self.X_MIN],
            np.repeat([self.A, self.B], 3),
            np.repeat(edges, 2),
            rng.uniform(self.A - 3 * self.W, self.B + 3 * self.W, 60),
        ])
        x = x[rng.permutation(x.size)]
        return x, np.sin(x) + rng.normal(0.0, 0.1, x.size)

    def test_the_pair_escapes_its_neighbourhood(self):
        cell = np.floor((np.array([self.A, self.B]) - self.X_MIN) / self.W)
        assert abs(self.B - self.A) <= self.GRID[-1]
        assert cell[1] - cell[0] == 2

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_fallback_matches_brute_force_and_fsum_oracle(
        self, kernel, monkeypatch
    ):
        from tests.core.test_loocv_oracle import _oracle

        x, y = self._data()
        escaped = []
        direct = fastgrid._SortedSample._direct_sums

        def spy(sample, where, *args):
            escaped.append(int(np.count_nonzero(where)))
            return direct(sample, where, *args)

        monkeypatch.setattr(fastgrid._SortedSample, "_direct_sums", spy)
        kern = get_kernel(kernel)
        sample = fastgrid._SortedSample(x, y, self.GRID, kern)
        _, _, count = sample.window_sums(0, x.size)
        assert sum(escaped) >= 2 * 3
        np.testing.assert_array_equal(
            count.T, _brute_counts(sample.xs, self.GRID, kern.support_radius)
        )

        monkeypatch.setattr(fastgrid, "SORTED_MIN_N", 0)
        monkeypatch.setattr(fastgrid, "SORTED_MIN_N_PER_K", ((9, 0.0),))
        assert window_sum_path(x.size, self.GRID.size, kernel) == "sorted"
        # The escaped point sits on the window's edge, where only uniform
        # weighs it clearly above 0: its curve is the one a skipped
        # fallback would move.
        got = cv_scores_fastgrid(x, y, self.GRID, kernel)
        exact = _oracle(x, y, self.GRID, kernel)
        np.testing.assert_allclose(got, exact, rtol=RTOL[kernel], atol=0.0)
        assert int(np.argmin(got)) == int(np.argmin(exact))
        # One escaped window per batch: the same bits.
        monkeypatch.setattr(fastgrid, "DIRECT_BATCH", 1)
        assert cv_scores_fastgrid(x, y, self.GRID, kernel).tobytes() == (
            got.tobytes()
        )


class TestSampleCacheKey:
    """The one-entry sample cache keys on the polynomial, not the name.

    A kernel and its self-convolution share a name ("epanechnikov"), so a
    name-only key would hand one of them the other's prefix sums.
    """

    def test_same_named_kernel_like_gets_its_own_sample(self, monkeypatch):
        monkeypatch.setattr(fastgrid, "_LAST_SORTED", None)
        x, y = _sample(N, 0)
        grid = np.linspace(0.01, 0.3, 20)
        kern = get_kernel("epanechnikov")
        first = fastgrid._sorted_sample(x, y, grid, kern)
        assert fastgrid._sorted_sample(x, y, grid, kern) is first
        # Same name and radius as the kernel, uniform's terms.
        other_terms = ConvolutionKernel(
            name=kern.name, support_radius=kern.support_radius,
            evaluate=kern, poly_terms=get_kernel("uniform").poly_terms,
        )
        # Same name and terms, twice the radius.
        other_radius = ConvolutionKernel(
            name=kern.name, support_radius=2.0 * kern.support_radius,
            evaluate=kern, poly_terms=kern.poly_terms,
        )
        for like in (other_terms, other_radius, self_convolution(kern)):
            assert like.name == kern.name
            sample = fastgrid._sorted_sample(x, y, grid, like)
            assert sample is not first
            assert sample.kernel is like
            first = fastgrid._sorted_sample(x, y, grid, kern)
            assert first.kernel is kern


class TestBinnedBitsKept:
    def test_float32_is_byte_identical_to_binned(self, binned):
        x, y = _sample(N, 7)
        grid = np.linspace(0.01, 0.3, 20)
        got = cv_scores_fastgrid(x, y, grid, dtype="float32")
        ref = binned(lambda: cv_scores_fastgrid(x, y, grid, dtype="float32"))
        assert got.tobytes() == ref.tobytes()


class TestExecutorsAgreeBitForBit:
    @pytest.mark.parametrize("kernel", ("epanechnikov", "triangular", "tricube"))
    def test_numpy_blocked_shm_multicore(self, kernel):
        x, y = _sample(N, 8)
        grid = np.linspace(0.01, 0.3, 25)
        assert window_sum_path(N, 25, kernel) == "sorted"
        ref = cv_scores_fastgrid(x, y, grid, kernel).tobytes()
        for rows in (1, 7, 64, N):
            assert cv_scores_fastgrid(
                x, y, grid, kernel, block_rows=rows
            ).tobytes() == ref
        # A budget just above the sorted sample's residency partitions the
        # rows into blocks.
        free = fastgrid.plan_fastgrid_blocks(N, grid, kernel)
        budget = free.fixed_bytes + 100 * free.bytes_per_row
        assert fastgrid.plan_fastgrid_blocks(
            N, grid, kernel, memory_budget=budget
        ).n_blocks > 1
        assert cv_scores_fastgrid(
            x, y, grid, kernel, memory_budget=budget
        ).tobytes() == ref
        for rows in (13, 200):
            assert cv_scores_blocked_shm(
                x, y, grid, kernel, block_rows=rows, workers=2
            ).tobytes() == ref
        # blocked-shm on two cores with the blocks the one rule plans.
        multicore = get_backend("blocked-shm")
        assert np.asarray(
            multicore(x, y, grid, kernel, workers=2)
        ).tobytes() == ref


class TestExactBenchmarkOracle:
    def test_every_pool_dataset_lands_on_the_dense_reference(self):
        # The committed dense O(k·n²) references of the exact-8k
        # benchmark: grid index, value within 1e-6, never a grid edge.
        path = Path(__file__).parents[2] / "perfbench" / "oracle" / "exact-8k.json"
        oracle = json.loads(path.read_text())
        grid = np.linspace(0.002, 0.1, 50)
        for seed, ref in oracle["curves"].items():
            sample = paper_dgp(8000, seed=int(seed))
            got = cv_scores_fastgrid(sample.x, sample.y, grid)
            j = int(np.argmin(got))
            assert j == ref["argmin"]
            assert 0 < j < grid.size - 1
            np.testing.assert_allclose(got, ref["scores"], rtol=1e-6)


def _blocks(n: int, sizes: tuple[int, ...]) -> list[tuple[int, int]]:
    """Consecutive row blocks cycling through ``sizes`` until ``n`` is covered."""
    bounds = []
    start = 0
    cycle = itertools.cycle(sizes)
    while start < n:
        stop = min(start + next(cycle), n)
        bounds.append((start, stop))
        start = stop
    return bounds


class TestWindowSumsRowBlocks:
    """Sorted-path rows do not depend on which positions share their block.

    On the sorted path a row block is a range of positions in the sorted
    sample.  Its rows go in tiles of ``tile_rows`` positions and each
    tile's window sums are reduced to residuals on the spot; neither the
    block nor the tile boundaries may move a bit of ``num``/``den``, of
    the integer ``count`` that decides validity, or of the residual rows.
    """

    N = 3000
    GRID = np.linspace(0.01, 0.3, 30)

    def _data(self, case: str) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(11)
        if case == "duplicated":
            u = np.repeat(rng.uniform(0.0, 1.0, self.N // 3), 3)
            u = u[rng.permutation(self.N)]
            return u, u * u + rng.uniform(-0.2, 0.2, self.N)
        u = rng.uniform(0.0, 1.0, self.N)
        return float(case) + u, u * u + rng.uniform(-0.2, 0.2, self.N)

    @pytest.mark.parametrize("case", ["0", "1e6", "duplicated"])
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_blocks_concatenate_to_the_whole(self, kernel, case, monkeypatch):
        x, y = self._data(case)
        assert window_sum_path(self.N, self.GRID.size, kernel) == "sorted"
        sample = fastgrid._SortedSample(x, y, self.GRID, get_kernel(kernel))
        whole = sample.window_sums(0, self.N)
        assert whole[2].dtype == np.int64
        rows, _ = sample.contributions(0, self.N)
        assert rows.tobytes() == fastgrid_row_contributions(
            x, y, self.GRID, kernel, 0, self.N
        ).tobytes()
        monkeypatch.setattr(sample, "tile_rows", 7)
        for sizes in ((1, 7, 333), (333, 7, 1)):
            blocks = _blocks(self.N, sizes)
            parts = [sample.window_sums(a, b) for a, b in blocks]
            for pieces, ref in zip(zip(*parts), whole):
                got = np.concatenate(pieces, axis=1)
                assert got.dtype == ref.dtype
                assert got.tobytes() == ref.tobytes()
            got = np.concatenate([sample.contributions(a, b)[0] for a, b in blocks])
            assert got.tobytes() == rows.tobytes()


class TestPinnedCurveBytes:
    """sha256 of sorted-path curve bytes, pinned.

    The cache fingerprints (``test_digests_are_pinned``) hash a sweep's
    *inputs*; these hash its *output*, so any change to a sorted-path
    curve's bits fails here.  The samples use uniform draws, products and
    rounding only, which give the same bits on every platform.

    Curves that change bits invalidate every cached curve, so a re-pin
    comes with a bump of ``serving.cache._FORMAT_VERSION``: the digest of
    the pin table is filed under the cache format it was pinned for, and
    a re-pinned table under an unbumped format fails.
    """

    GRID = np.linspace(0.002, 0.1, 50)
    PINS = {
        "exact_benchmark_pool_dataset":
            "c9f9b72ee4f7b61ee445b1fa37265f6c755c038b2f7d3c6fd067ae9c9b8b12db",
        "triweight_far_from_origin":
            "513615d91385b30f9a2a8c991c679c60968a2c7cfb27ab744059764136027a86",
        "tricube_on_tied_x":
            "5fc9df23a3b32b063f29c2c648be8c0f26951877a13e19ce5db2a8d24141e401",
    }
    PINS_BY_CACHE_FORMAT = {
        3: "4cd38391937a55379db03570156055cb907969903f5f238e9e2118c2618d234b",
        4: "4cd38391937a55379db03570156055cb907969903f5f238e9e2118c2618d234b",
        5: "4cd38391937a55379db03570156055cb907969903f5f238e9e2118c2618d234b",
    }

    @staticmethod
    def _digest(curve: np.ndarray) -> str:
        return hashlib.sha256(curve.tobytes()).hexdigest()

    def test_pins_belong_to_the_cache_format(self):
        from repro.serving import cache

        table = json.dumps(self.PINS, sort_keys=True).encode()
        assert self.PINS_BY_CACHE_FORMAT[cache._FORMAT_VERSION] == (
            hashlib.sha256(table).hexdigest()
        )

    def test_exact_benchmark_pool_dataset(self):
        s = paper_dgp(8000, seed=101)
        assert self._digest(cv_scores_fastgrid(s.x, s.y, self.GRID)) == (
            self.PINS["exact_benchmark_pool_dataset"]
        )

    def test_triweight_far_from_origin(self):
        s = paper_dgp(3000, seed=102)
        curve = cv_scores_fastgrid(s.x + 1e6, s.y, self.GRID, "triweight")
        assert self._digest(curve) == self.PINS["triweight_far_from_origin"]

    def test_tricube_on_tied_x(self):
        s = paper_dgp(5000, seed=103)
        curve = cv_scores_fastgrid(np.round(s.x, 2), s.y, self.GRID, "tricube")
        assert self._digest(curve) == self.PINS["tricube_on_tied_x"]


class TestCellSizedTiles:
    """Tiles hold :data:`fastgrid.RANK_TILE_CELLS` grid-column × position cells."""

    def test_the_interior_grid_keeps_1024_row_tiles(self):
        assert fastgrid._tile_rows(np.linspace(0.002, 0.1, 50)) == 1024

    def test_tile_size_never_moves_a_bit(self, monkeypatch):
        # served-mix's shape on the paper grid: its widest octave is ten
        # times the interior grid's, so a tile holds about 90 rows.
        s = paper_dgp(2000, seed=201)
        grid = BandwidthGrid.for_sample(s.x, 500).values
        assert window_sum_path(2000, 500, "epanechnikov") == "sorted"
        widest = max(c.stop - c.start for c in fastgrid._octave_columns(grid))
        curves = set()
        for rows in (1, 7, 82, 1024):
            monkeypatch.setattr(fastgrid, "RANK_TILE_CELLS", rows * widest)
            assert fastgrid._tile_rows(grid) == rows
            curves.add(cv_scores_fastgrid(s.x, s.y, grid).tobytes())
        assert len(curves) == 1


#: Kernels the sorted path took over at n/k = 4 from the n >= 10·k rule.
NEWLY_SORTED = [
    k for k in KERNELS
    if window_sum_path(1000, 250, k) == "sorted"
]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("kernel", NEWLY_SORTED)
def test_newly_sorted_kernels_pick_the_dense_argmin(kernel, seed):
    s = paper_dgp(1000, seed=seed)
    grid = BandwidthGrid.for_sample(s.x, 250).values
    dense = cv_scores_dense_grid(s.x, s.y, grid, kernel)
    got = cv_scores_fastgrid(s.x, s.y, grid, kernel)
    assert int(np.argmin(got)) == int(np.argmin(dense))
    np.testing.assert_allclose(got, dense, rtol=RTOL[kernel])
