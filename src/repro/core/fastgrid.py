"""The paper's primary contribution: the fast sorted grid search.

Standard grid search evaluates ``CV_lc(h)`` independently for each of the
``k`` grid bandwidths — O(k·n²).  Paper §III observes that for compactly
supported polynomial kernels, the per-observation summations *nest*: every
pair (i, l) inside the window of bandwidth ``h₁`` is also inside the window
of every ``h₂ > h₁``, and the kernel weight decomposes into terms
``c_p · d^p / h^p`` whose distance part ``d^p`` does not depend on ``h``.
So, per observation i:

1. sort the distances ``d = |X_i − X_l|``  (O(n log n)),
2. sweep the sorted array once, rolling the running sums
   ``Σ d^p`` and ``Σ Y_l·d^p`` forward from each grid bandwidth to the
   next (O(n + k)),
3. recombine per bandwidth: ``ĝ₋ᵢ = (Σ_p c_p·T_p/h^p) / (Σ_p c_p·S_p/h^p)``.

Total: O(n² log n) for the whole grid instead of O(k·n²).

Two interchangeable implementations live here:

* :func:`cv_scores_fastgrid_python` — the paper's per-thread algorithm,
  written literally (per-observation sort + pointer sweep).  It is what
  each simulated GPU thread executes in :mod:`repro.cuda_port`, and the
  testing ground truth for the vectorised path.
* :func:`cv_scores_fastgrid` — a vectorised formulation of the *same
  summations*, with two window-sum paths behind one row-block seam
  (:func:`fastgrid_row_contributions`), chosen by
  :func:`window_sum_path` from whole-sample facts only:

  - **binned** (O(n²)): each distance is binned against the (already
    sorted) bandwidth grid with ``searchsorted`` and the per-power window
    sums are built with weighted ``bincount`` + ``cumsum`` over bins;
  - **sorted** (O(n log n + n·k·log n)): in one dimension every window
    ``{l : |x_i − x_l| <= R·h}`` is a contiguous run of the sample sorted
    once, so each window sum ``Σ y_l·|x_i − x_l|^p`` is a difference of
    prefix sums of ``u^q`` and ``y·u^q`` (Langrené & Warin's fast sum
    updating in d = 1), with ``u`` measured from a local anchor so the
    binomial re-centring stays well conditioned.

  The two agree within the per-kernel tolerance contract in DESIGN.md;
  float32 sweeps always take the binned path.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.grid import ensure_bandwidth_grid
from repro.exceptions import ValidationError
from repro.kernels import Kernel, get_kernel
from repro.obs.tracer import current_tracer
from repro.utils.chunking import chunk_slices, suggest_chunk_rows
from repro.utils.membudget import (
    BlockPlan,
    parse_byte_budget,
    plan_blocks,
    requested_budget,
    sweep_bytes,
)
from repro.utils.numeric import fold_rows, int_power
from repro.utils.validation import check_paired_samples, ensure_bandwidths

__all__ = [
    "cv_scores_fastgrid",
    "cv_scores_fastgrid_python",
    "fastgrid_block_sums",
    "fastgrid_row_contributions",
    "plan_fastgrid_blocks",
    "require_fast_grid_kernel",
    "window_sum_path",
]

def require_fast_grid_kernel(kernel: str | Kernel) -> Kernel:
    """Resolve ``kernel`` and check it is eligible for the fast grid search.

    Eligibility = compact support **and** a polynomial weight (paper
    footnote 1: Epanechnikov, Uniform, Triangular — plus the other
    polynomial kernels in :mod:`repro.kernels.polynomial`).
    """
    kern = get_kernel(kernel)
    if not kern.supports_fast_grid:
        raise ValidationError(
            f"kernel {kern.name!r} does not support the sorted fast grid "
            "search (needs compact support and a polynomial weight); use "
            "the dense grid path instead"
        )
    return kern


def cv_scores_fastgrid_python(
    x: np.ndarray,
    y: np.ndarray,
    bandwidths: np.ndarray,
    kernel: str | Kernel = "epanechnikov",
) -> np.ndarray:
    """Paper-literal fast grid search (per-observation sort + sweep).

    This mirrors the CUDA main kernel of §IV-B one-to-one — including
    keeping observation i itself in the sorted array and excluding it only
    when the final sums are combined (its distance is 0, so it affects
    exactly the power-0 running sums at every bandwidth).

    Pure python loops: use for testing and as the simulated-GPU thread
    body; for production sizes call :func:`cv_scores_fastgrid`.
    """
    x, y = check_paired_samples(x, y)
    grid = ensure_bandwidths(bandwidths)
    kern = require_fast_grid_kernel(kernel)
    terms = kern.poly_terms
    radius = kern.support_radius
    n = x.shape[0]
    k = grid.shape[0]
    sq_sums = np.zeros(k, dtype=float)

    with current_tracer().span("fastgrid-python", n=n, k=k, kernel=kern.name):
        for i in range(n):
            dist = np.abs(x[i] - x)
            order = np.argsort(dist, kind="stable")
            d_sorted = dist[order]
            y_sorted = y[order]

            # Running window sums per polynomial power, swept once over the
            # sorted distances while the bandwidth pointer advances.
            sum_d = {t.power: 0.0 for t in terms}
            sum_yd = {t.power: 0.0 for t in terms}
            ptr = 0
            for j in range(k):
                cutoff = radius * grid[j]
                while ptr < n and d_sorted[ptr] <= cutoff:
                    d = float(d_sorted[ptr])
                    yv = float(y_sorted[ptr])
                    for t in terms:
                        dp = d**t.power if t.power else 1.0
                        sum_d[t.power] += dp
                        sum_yd[t.power] += yv * dp
                    ptr += 1
                # Combine: exclude self (d = 0 contributes only to power 0).
                num = 0.0
                den = 0.0
                h = float(grid[j])
                for t in terms:
                    hp = h**t.power if t.power else 1.0
                    s_d = sum_d[t.power] - (1.0 if t.power == 0 else 0.0)
                    s_yd = sum_yd[t.power] - (
                        float(y[i]) if t.power == 0 else 0.0
                    )
                    num += t.coefficient * s_yd / hp
                    den += t.coefficient * s_d / hp
                if den > 0.0:
                    resid = float(y[i]) - num / den
                    sq_sums[j] += resid * resid
    return sq_sums / n


def _window_sums_for_block(
    x_block: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    grid: np.ndarray,
    kern: Kernel,
    dtype: np.dtype,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-power window sums for a block of evaluation points.

    Returns ``(num, den)`` of shape ``(m, k)``: the kernel-weighted
    numerator and denominator of the (not yet leave-one-out-corrected)
    Nadaraya–Watson estimator at every grid bandwidth.

    Implementation: each pairwise distance is assigned, via one
    ``searchsorted`` against the sorted grid, the index of the *first*
    bandwidth whose window contains it; per-power weighted histograms over
    those indices, cumulated along the grid axis, are exactly the sorted
    sweep's running sums.
    """
    m = x_block.shape[0]
    n = x.shape[0]
    k = grid.shape[0]
    tracer = current_tracer()
    # "sort" phase: binning each distance against the sorted grid is the
    # vectorised counterpart of the paper's per-observation sort.
    with tracer.span("sort", rows=m):
        dist = np.abs(x_block[:, None] - x[None, :]).astype(dtype, copy=False)
        # First grid index whose window d <= radius*h contains this
        # distance; k means "outside every window".
        first_j = np.searchsorted(
            grid * kern.support_radius, dist.ravel(), side="left"
        )
        row_offsets = np.repeat(np.arange(m, dtype=np.int64) * (k + 1), n)
        flat_bins = row_offsets + np.minimum(first_j, k)

    num = np.zeros((m, k), dtype=np.float64)
    den = np.zeros((m, k), dtype=np.float64)
    h_cols = grid[None, :]
    # "sweep" phase: per-power weighted histograms + cumsum along the grid
    # axis are exactly the sorted sweep's running sums.
    with tracer.span("sweep", rows=m, terms=len(kern.poly_terms)):
        for term in kern.poly_terms:
            if term.power == 0:
                d_pow = None  # weight 1 per element
                yw = np.broadcast_to(y, (m, n)).ravel()
            else:
                # int_power, not dist**p: numpy's pow takes a SIMD or a
                # scalar libm route by CPU and array layout, an ulp apart
                # on some inputs.  The exactly-rounded multiply chain has
                # one answer on every route, so a row's bits do not depend
                # on the block, worker or host that computed it, and the
                # float32 sweep stays bit-identical to the gpusim programs
                # that run this same path (see utils.numeric.int_power).
                d_pow = int_power(dist, term.power)
                yw = (y[None, :] * d_pow).ravel()
            hist_d = np.bincount(
                flat_bins,
                weights=None if d_pow is None else d_pow.ravel(),
                minlength=m * (k + 1),
            ).reshape(m, k + 1)[:, :k]
            hist_yd = np.bincount(
                flat_bins, weights=yw, minlength=m * (k + 1)
            ).reshape(m, k + 1)[:, :k]
            s_d = np.cumsum(hist_d, axis=1)
            s_yd = np.cumsum(hist_yd, axis=1)
            scale = term.coefficient / (
                int_power(h_cols, term.power) if term.power else 1.0
            )
            num += scale * s_yd
            den += scale * s_d
    return num, den


# -- the sort-once path ------------------------------------------------------

#: Crossover of :func:`window_sum_path`: the sorted path runs when
#: ``n >= SORTED_MIN_N_PER_K * k`` and ``n >= SORTED_MIN_N``.  Measured on
#: a 2-core x86-64 host (numpy, one thread) across the fast-grid kernels:
#: above both bounds the sorted path wins for every kernel (tricube, the
#: costliest, last); below ``SORTED_MIN_N`` its fixed per-octave set-up
#: costs more than the whole O(n²) binned sweep.  See DESIGN.md.
SORTED_MIN_N_PER_K: float = 10.0
SORTED_MIN_N: int = 500


def window_sum_path(
    n: int,
    k: int,
    kernel: str | Kernel,
    dtype: str = "float64",
) -> str:
    """Which window-sum implementation a fast-grid sweep runs.

    ``"sorted"`` (prefix sums over the sample sorted once, O(n·k·log n))
    or ``"binned"`` (every pairwise distance binned against the grid,
    O(n²)).  The choice depends only on whole-sample facts — never on a
    block's row count — so every row matrix stays partition-invariant.
    float32 sweeps always keep the binned bits.
    """
    kern = get_kernel(kernel)
    if (
        np.dtype(dtype) == np.float64
        and kern.supports_fast_grid
        and n >= SORTED_MIN_N
        and n >= SORTED_MIN_N_PER_K * k
    ):
        return "sorted"
    return "binned"


def _segmented_cumsum(
    values: np.ndarray, seg: np.ndarray, longest: int
) -> np.ndarray:
    """Inclusive prefix sums of ``values`` (R×n) restarting at each segment.

    A Hillis–Steele doubling scan: ⌈log₂ longest⌉ whole-array passes, each
    adding in the partial sum ``step`` positions back when it lies in the
    same segment.  Every sum touches only its own segment, so rounding
    stays relative to local magnitudes (a global ``cumsum`` differenced
    at segment starts would not).
    """
    out = values.copy()
    step = 1
    while step < longest:
        same = seg[step:] == seg[:-step]
        out[:, step:] += np.where(same, out[:, :-step], 0.0)
        step *= 2
    return out


def _octave_columns(grid: np.ndarray) -> list[slice]:
    """Grid columns cut into runs within a factor of 2 of their first."""
    cols = []
    lo = 0
    for j in range(1, grid.shape[0] + 1):
        if j == grid.shape[0] or grid[j] > 2.0 * grid[lo]:
            cols.append(slice(lo, j))
            lo = j
    return cols


class _Octave:
    """Locally anchored prefix sums for grid columns within a factor of 2.

    The sorted sample is cut into cells of width ``R·h_max`` of the
    octave; each non-empty cell is one segment, anchored at its middle
    element (an exact data value, so ``x − anchor`` is an exact
    difference for nearby points).  A window of half-width ``R·h`` with
    ``h > h_max/2`` then spans at most 3 segments, and the binomial
    re-centring below works with ``|u| ≤ R·h_max`` and
    ``|anchor − x_i| ≤ 2·R·h_max`` — a bounded loss of digits.  Only
    non-empty segments exist, so the bookkeeping is O(n) however small
    ``h`` is relative to the spread.
    """

    def __init__(
        self, xs: np.ndarray, ys: np.ndarray, cols: slice, width: float,
        top: int,
    ):
        n = xs.shape[0]
        self.cols = cols
        cell = np.floor((xs - xs[0]) / width)
        new = np.empty(n, dtype=bool)
        new[0] = True
        np.not_equal(cell[1:], cell[:-1], out=new[1:])
        self.seg_start = np.flatnonzero(new)
        self.seg = np.cumsum(new) - 1
        seg_stop = np.append(self.seg_start[1:], n)
        self.anchor = xs[(self.seg_start + seg_stop - 1) // 2]
        u = xs - self.anchor[self.seg]
        moments = [np.ones(n, dtype=np.float64)]
        for _ in range(top):
            moments.append(moments[-1] * u)
        moments += [ys * m for m in moments]
        prefix = _segmented_cumsum(
            np.stack(moments), self.seg,
            int(np.max(seg_stop - self.seg_start)),
        )
        self.totals = prefix[:, seg_stop - 1]
        # Column t + 1 holds the inclusive prefix at sorted position t and
        # column 0 is zero, so the exclusive prefix at ``a`` is column ``a``
        # — or column 0 when ``a`` opens its segment.
        self.zprefix = np.concatenate(
            [np.zeros((prefix.shape[0], 1), dtype=np.float64), prefix], axis=1
        )
        self.excl_col = np.arange(n)
        self.excl_col[self.seg_start] = 0

    def exclusive(self, a: np.ndarray) -> np.ndarray:
        """Moment sums over ``a``'s segment strictly before position ``a``."""
        return self.zprefix[:, self.excl_col[a]]

    def inclusive(self, a: np.ndarray) -> np.ndarray:
        """Moment sums over ``a``'s segment up to and including ``a``."""
        return self.zprefix[:, a + 1]


class _SortedSample:
    """The whole sample sorted once, with per-octave prefix sums.

    Built once per ``(x, y, grid, kernel)`` and reused by every row block
    (see :func:`_sorted_sample`); :meth:`window_sums` then costs
    O(rows·k·log n) per block.
    """

    def __init__(
        self, x: np.ndarray, y: np.ndarray, grid: np.ndarray, kern: Kernel
    ):
        self.x = x.copy()
        self.y = y.copy()
        self.grid = grid.copy()
        self.kernel = kern
        order = np.argsort(x, kind="stable")
        self.xs = x[order]
        self.rank = np.empty_like(order)
        self.rank[order] = np.arange(order.shape[0])
        self.powers = [t.power for t in kern.poly_terms]
        self.top = max(self.powers)
        # The binned path's own membership threshold, bit for bit.
        self.cutoff = grid * kern.support_radius
        ys = y[order]
        self.octaves = [
            _Octave(self.xs, ys, cols, self.cutoff[cols.stop - 1], self.top)
            for cols in _octave_columns(grid)
        ]

    def matches(
        self, x: np.ndarray, y: np.ndarray, grid: np.ndarray, kern: Kernel
    ) -> bool:
        return (
            kern.name == self.kernel.name
            and x.shape == self.x.shape
            and grid.shape == self.grid.shape
            and np.array_equal(x.view(np.uint64), self.x.view(np.uint64))
            and np.array_equal(y.view(np.uint64), self.y.view(np.uint64))
            and np.array_equal(grid, self.grid)
        )

    def _window_bounds(
        self, xi: np.ndarray, cut: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sorted positions ``[lo, hi)`` of ``{l : |x_i − x_l| <= cut}``.

        ``searchsorted`` on ``x_i ± cut`` can miss the binned predicate by
        a rounding step at the edges; each bound then hops over whole runs
        of equal values (duplicates) until it agrees with the predicate.
        The predicate is monotone along each side of ``x_i`` and ``x_i``
        itself is always inside, so ``lo <= rank(i) < hi``.
        """
        xs = self.xs
        n = xs.shape[0]
        lo = np.searchsorted(xs, xi - cut, side="left")
        hi = np.searchsorted(xs, xi + cut, side="right")
        mismatch = (
            (np.abs(xi - xs[lo]) > cut)
            | (np.abs(xi - xs[hi - 1]) > cut)
            | ((lo > 0) & (np.abs(xi - xs[lo - 1]) <= cut))
            | ((hi < n) & (np.abs(xi - xs[np.minimum(hi, n - 1)]) <= cut))
        )
        todo = np.flatnonzero(mismatch)
        if not todo.size:
            return lo, hi
        flat_lo, flat_hi = lo.reshape(-1), hi.reshape(-1)
        flat_x = np.broadcast_to(xi, lo.shape).reshape(-1)
        flat_cut = np.broadcast_to(cut, lo.shape).reshape(-1)
        while todo.size:
            xt, ct = flat_x[todo], flat_cut[todo]
            a, b = flat_lo[todo], flat_hi[todo]
            grow = (a > 0) & (np.abs(xt - xs[a - 1]) <= ct)
            a[grow] = np.searchsorted(xs, xs[a[grow] - 1], "left")
            shrink = np.abs(xt - xs[a]) > ct
            a[shrink] = np.searchsorted(xs, xs[a[shrink]], "right")
            moved = grow | shrink
            grow = b < n
            grow[grow] = np.abs(xt[grow] - xs[b[grow]]) <= ct[grow]
            b[grow] = np.searchsorted(xs, xs[b[grow]], "right")
            shrink = np.abs(xt - xs[b - 1]) > ct
            b[shrink] = np.searchsorted(xs, xs[b[shrink] - 1], "left")
            moved |= grow | shrink
            flat_lo[todo], flat_hi[todo] = a, b
            todo = todo[moved]
        return lo, hi

    def _shift(
        self, oc: _Octave, seg: np.ndarray, raw: np.ndarray, xi: np.ndarray
    ) -> list[np.ndarray]:
        """Re-centre anchored moment sums on ``x_i``.

        ``raw`` stacks ``Σu^r`` then ``Σy·u^r`` (r = 0..top) about the
        anchor of ``seg``; the result lists ``Σ(x_l − x_i)^p`` then
        ``Σy_l·(x_l − x_i)^p`` for each kernel power p, by Horner's rule
        in ``δ = anchor − x_i`` over the binomial expansion.
        """
        delta = oc.anchor[seg] - xi
        half = self.top + 1
        out = []
        for base in (0, half):
            for p in self.powers:
                acc = raw[base]
                for r in range(1, p + 1):
                    # In place after the first step: these are (rows, k)
                    # arrays and the allocations would dominate.
                    acc = acc * delta if r == 1 else np.multiply(
                        acc, delta, out=acc
                    )
                    coef = math.comb(p, r)
                    acc += raw[base + r] if coef == 1 else coef * raw[base + r]
                out.append(acc)
        return out

    def _left_moments(
        self, oc: _Octave, xi: np.ndarray, lo: np.ndarray, pos: np.ndarray
    ) -> list[np.ndarray]:
        """:meth:`_shift` sums over sorted positions ``[lo, pos)``.

        ``X[pos] − X[lo] + Σ_{seg(lo) <= s < seg(pos)} total[s]`` with ``X``
        the exclusive in-segment prefix, every piece re-centred from its
        own segment's anchor.  An empty range has ``lo = pos`` and so
        cancels exactly.
        """
        s_lo = oc.seg[lo]
        s_pos = oc.seg[pos]
        sums = [
            t - h
            for t, h in zip(
                self._shift(oc, s_pos, oc.exclusive(pos), xi),
                self._shift(oc, s_lo, oc.exclusive(lo), xi),
            )
        ]
        self._add_totals(oc, xi, sums, s_pos - 1, s_pos - s_lo, -1)
        return sums

    def _right_moments(
        self, oc: _Octave, xi: np.ndarray, pos: np.ndarray, hi: np.ndarray
    ) -> list[np.ndarray]:
        """:meth:`_shift` sums over sorted positions ``[pos, hi)``, hi > pos.

        ``I[hi − 1] − X[pos] + Σ_{seg(pos) <= s < seg(hi − 1)} total[s]``
        with ``I`` the inclusive in-segment prefix.
        """
        s_pos = oc.seg[pos]
        s_last = oc.seg[hi - 1]
        sums = [
            t - h
            for t, h in zip(
                self._shift(oc, s_last, oc.inclusive(hi - 1), xi),
                self._shift(oc, s_pos, oc.exclusive(pos), xi),
            )
        ]
        self._add_totals(oc, xi, sums, s_pos, s_last - s_pos, 1)
        return sums

    def _add_totals(
        self,
        oc: _Octave,
        xi: np.ndarray,
        sums: list[np.ndarray],
        first: np.ndarray,
        span: np.ndarray,
        step: int,
    ) -> None:
        """Add the whole segments ``first + step·d`` for ``0 <= d < span``.

        ``first`` is per row, so each segment total is a per-row gather;
        a window half never covers more than one whole segment except
        through rounding of the cell edges.
        """
        last_seg = oc.seg_start.shape[0] - 1
        for d in range(int(span.max(initial=0))):
            seg = np.clip(first + step * d, 0, last_seg)
            covered = d < span
            for acc, part in zip(
                sums, self._shift(oc, seg, oc.totals[:, seg], xi)
            ):
                acc += np.where(covered, part, 0.0)

    def window_sums(
        self, start: int, stop: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(num, den, count)`` for rows ``[start, stop)``, all ``(m, k)``.

        ``num``/``den`` are the binned path's quantities (self included);
        ``count`` is the exact window population, self included.
        """
        pos = self.rank[start:stop, None]
        xi = self.xs[pos]
        m = pos.shape[0]
        k = self.grid.shape[0]
        num = np.zeros((m, k), dtype=np.float64)
        den = np.zeros((m, k), dtype=np.float64)
        count = np.zeros((m, k), dtype=np.int64)
        n_pow = len(self.powers)
        for oc in self.octaves:
            cut = self.cutoff[None, oc.cols]
            lo, hi = self._window_bounds(xi, cut)
            count[:, oc.cols] = hi - lo
            left = self._left_moments(oc, xi, lo, pos)
            right = self._right_moments(oc, xi, pos, hi)
            h_cols = self.grid[None, oc.cols]
            for t, term in enumerate(self.kernel.poly_terms):
                sign = -1.0 if term.power % 2 else 1.0
                if term.power == 0:
                    s_d = (hi - lo).astype(np.float64)
                else:
                    s_d = right[t] + sign * left[t]
                s_yd = right[n_pow + t] + sign * left[n_pow + t]
                scale = term.coefficient / (
                    int_power(h_cols, term.power) if term.power else 1.0
                )
                num[:, oc.cols] += scale * s_yd
                den[:, oc.cols] += scale * s_d
        return num, den, count


_LAST_SORTED: _SortedSample | None = None


def _sorted_sample(
    x: np.ndarray, y: np.ndarray, grid: np.ndarray, kern: Kernel
) -> _SortedSample:
    """The sorted sample for these inputs, reusing the last one built.

    Row blocks of one sweep arrive as separate calls (from the block loop,
    the resilient engine, pool workers, fleet leases); the sort and prefix
    sums are built once and matched on exact input bytes afterwards.
    """
    global _LAST_SORTED
    cached = _LAST_SORTED
    if cached is not None and cached.matches(x, y, grid, kern):
        return cached
    built = _SortedSample(x, y, grid, kern)
    _LAST_SORTED = built
    return built


def _forget_sorted() -> None:
    """Drop the reused sorted sample once a whole sweep is done with it.

    It holds O(n·top) prefix sums per octave; a finished sweep should not
    keep them alive until the next one.
    """
    global _LAST_SORTED
    _LAST_SORTED = None


def fastgrid_row_contributions(
    x: np.ndarray,
    y: np.ndarray,
    bandwidths: np.ndarray,
    kernel_name: str,
    start: int,
    stop: int,
    dtype: str = "float64",
) -> np.ndarray:
    """Per-observation squared-residual k-vectors for rows ``[start, stop)``.

    Returns a float64 ``(stop - start, k)`` matrix whose row ``i`` is
    observation ``start + i``'s contribution to ``n · CV_lc(h)`` at every
    grid bandwidth.  Each row depends only on its own observation and the
    *whole* sample — never on which other rows share the block — so the
    matrix is **partition-invariant**: any batching of ``range(n)``
    produces the identical bits row by row.  Folding the rows in global
    index order (:func:`repro.utils.numeric.fold_rows`) therefore yields
    a CV curve that is bit-for-bit independent of block size, chunk size,
    and worker count — the invariant the blockwise/shared-memory backends
    are tested against.

    This is the unit of work for the out-of-core blockwise engine: the
    block's working set is O(B·n + B·k) while the full sweep never
    materialises anything n×n.
    """
    kern = require_fast_grid_kernel(kernel_name)
    grid = np.asarray(bandwidths, dtype=float)
    np_dtype = np.dtype(dtype)
    x = np.asarray(x)
    y = np.asarray(y)
    _check_block(x.shape[0], start, stop)
    x_block = x[start:stop]
    y_block = y[start:stop]
    tracer = current_tracer()
    path = window_sum_path(x.shape[0], grid.shape[0], kern, dtype)
    count = None
    with tracer.span("block", start=start, stop=stop):
        if path == "sorted":
            with tracer.span("sort", rows=stop - start):
                sample = _sorted_sample(
                    np.ascontiguousarray(x, dtype=np.float64),
                    np.ascontiguousarray(y, dtype=np.float64),
                    grid, kern,
                )
            with tracer.span("sweep", rows=stop - start):
                num, den, count = sample.window_sums(start, stop)
        else:
            num, den = _window_sums_for_block(
                x_block, x, y, grid, kern, np_dtype
            )

        # Leave-one-out correction: observation i appears in its own window
        # at every bandwidth with distance 0, touching only the power-0 term.
        with tracer.span("reduction", rows=stop - start):
            zero_terms = [t for t in kern.poly_terms if t.power == 0]
            if zero_terms:
                c0 = sum(t.coefficient for t in zero_terms)
                num -= c0 * y_block[:, None]
                den -= c0

            valid = den > 0.0
            if count is not None:
                # A self-only window leaves a rounding residual in the
                # sorted path's ``den``; its integer population does not.
                valid &= count > 1
            if tracer.enabled:
                tracer.counter(
                    "numeric.empty_windows",
                    float(num.size - int(np.count_nonzero(valid))),
                )
            g_loo = np.where(valid, num / np.where(valid, den, 1.0), 0.0)
            resid = np.where(valid, y_block[:, None] - g_loo, 0.0)
            out: np.ndarray = resid * resid
    return out


def _check_block(n: int, start: int, stop: int) -> None:
    if not 0 <= start < stop <= n:
        raise ValidationError(f"invalid row block [{start}, {stop}) for n={n}")


def plan_fastgrid_blocks(
    n: int,
    bandwidths: np.ndarray,
    kernel: str | Kernel,
    dtype: str = "float64",
    *,
    memory_budget: int | float | str | None = None,
    max_rows: int | None = None,
    output_matrix: bool = False,
) -> BlockPlan:
    """How many rows one fast-grid block holds: the one sizing rule.

    Every executor of the row seam — the ``numpy`` chunk loop, the
    ``blocked-shm`` pool, the resilient engine's sub-chunks and the fleet
    coordinator's leases — takes its block size from here.  The row model
    follows :func:`window_sum_path`: the binned path holds O(n) bytes per
    row, the sorted path O(k) per row plus the sorted sample's O(n)
    residency (:func:`repro.utils.membudget.sweep_bytes`).

    With no ``memory_budget`` the block is the chunk that keeps one
    block's temporaries within the 256 MiB chunk budget, capped by
    ``max_rows``.  A budget only ever lowers that row count, and raises the
    typed ``REPRO_MEM_BUDGET`` error when not even one row fits.  Only an
    explicit ``memory_budget`` counts here: the host sweeps resolve
    ``$REPRO_MEM_BUDGET`` where they take their arguments
    (:func:`repro.utils.membudget.requested_budget`) and pass it down, so
    the simulated-device programs, which call :func:`fastgrid_block_sums`
    without one, keep their unbudgeted sub-chunks.  Rows are
    partition-invariant (:func:`fastgrid_row_contributions`), so the block
    size never changes a curve's bits.
    """
    kern = require_fast_grid_kernel(kernel)
    grid = np.asarray(bandwidths, dtype=float)
    k = int(grid.shape[0])
    if max_rows is not None and max_rows < 1:
        raise ValidationError(f"block_rows must be positive, got {max_rows}")
    path = window_sum_path(n, k, kern, dtype)
    n_terms = len(kern.poly_terms)
    model = dict(
        path=path,
        n_terms=n_terms,
        top_power=max(t.power for t in kern.poly_terms),
        n_octaves=len(_octave_columns(grid)) if path == "sorted" else 0,
        itemsize=np.dtype(dtype).itemsize,
        output_matrix=output_matrix,
    )
    fixed, per_row = sweep_bytes(n, k, **model)
    if path == "sorted":
        # The row model's own per-row bytes, sized against the chunk budget.
        rows = suggest_chunk_rows(per_row, itemsize=1, working_arrays=1)
    else:
        # The binned chunk keeps its coarser count of n-long temporaries
        # rather than ``per_row``: that count is the one every binned
        # shape has always been chunked by (served-mix's (2000, 500)
        # among them), and a budget still fits ``per_row`` below.
        rows = suggest_chunk_rows(n, working_arrays=4 + n_terms)
    if max_rows is not None:
        rows = min(rows, max_rows)
    if memory_budget is not None:
        return plan_blocks(
            n, k, budget=parse_byte_budget(memory_budget), max_rows=rows,
            **model,
        )
    return BlockPlan(
        n=n,
        k=k,
        block_rows=rows,
        bytes_per_row=per_row,
        fixed_bytes=fixed,
        budget_bytes=None,
    )


def fastgrid_block_sums(
    x: np.ndarray,
    y: np.ndarray,
    bandwidths: np.ndarray,
    kernel_name: str,
    start: int,
    stop: int,
    dtype: str = "float64",
    memory_budget: int | float | str | None = None,
) -> np.ndarray:
    """Squared-residual sums over observations ``[start, stop)``.

    The unit of work for the resilient engine: top-level (hence
    picklable) and self-contained, so worker processes can be handed
    ``(x, y, grid, kernel, row range)`` and return a k-vector that the
    parent simply adds up.  The full CV score is the
    sum of these blocks over a partition of ``range(n)``, divided by n.

    The within-block reduction is the canonical strict row-order fold, so
    two partitions whose block boundaries coincide produce identical bits
    (bit-exactness across *different* partitions needs the row matrices
    from :func:`fastgrid_row_contributions` folded globally).  A block
    larger than :func:`plan_fastgrid_blocks` allows runs as row sub-chunks
    folded in order into the same accumulator — the identical fold, so
    the bits do not depend on the sub-chunk size, and a many-thousand-row
    device tile never materialises its whole rows×n distance slab at once.
    Only an explicit ``memory_budget`` shrinks the sub-chunks; the
    environment budget is the calling host sweep's to resolve.
    """
    n = int(np.shape(x)[0])
    _check_block(n, start, stop)
    total = np.zeros(len(bandwidths), dtype=np.float64)
    rows = plan_fastgrid_blocks(
        n, bandwidths, kernel_name, dtype, memory_budget=memory_budget
    ).block_rows
    for lo in range(start, stop, rows):
        fold_rows(
            fastgrid_row_contributions(
                x, y, bandwidths, kernel_name, lo, min(lo + rows, stop),
                dtype,
            ),
            total,
        )
    return total


def cv_scores_fastgrid(
    x: np.ndarray,
    y: np.ndarray,
    bandwidths: np.ndarray,
    kernel: str | Kernel = "epanechnikov",
    *,
    block_rows: int | None = None,
    memory_budget: int | float | str | None = None,
    dtype: str = "float64",
) -> np.ndarray:
    """Vectorised fast grid search over a whole bandwidth grid.

    Computes ``CV_lc(h)`` for every ``h`` in ``bandwidths``: in
    O(n log n + n·k·log n) on the sorted path, which large float64 samples
    take (:func:`window_sum_path`), else in O(n² log k + n·k) on the binned
    path — the vectorised counterpart of the paper's O(n² log n) sorted
    sweep (the grid, already sorted, plays the role of the sorted distance
    array).  Memory is bounded by processing row blocks sized by
    :func:`plan_fastgrid_blocks` — capped at ``block_rows`` and fitted to
    ``memory_budget`` (or ``$REPRO_MEM_BUDGET``) when one is given; pass
    ``dtype="float32"`` to mirror the paper's single-precision GPU
    arithmetic.

    Accumulation is the canonical strict row-order fold carried across
    block boundaries, so the returned curve is bit-for-bit independent of
    the block size and the budget — and bit-identical to the
    ``blocked-shm`` and ``distributed`` backends at any block size.
    """
    x, y = check_paired_samples(x, y)
    grid = ensure_bandwidth_grid(bandwidths)
    kern = require_fast_grid_kernel(kernel)
    n = x.shape[0]
    rows = plan_fastgrid_blocks(
        n, grid, kern, dtype, memory_budget=requested_budget(memory_budget),
        max_rows=block_rows,
    ).block_rows
    tracer = current_tracer()
    sq_sums = np.zeros(grid.shape[0], dtype=np.float64)
    with tracer.span(
        "fastgrid", n=n, k=grid.shape[0], kernel=kern.name, dtype=dtype,
        chunk_rows=rows, path=window_sum_path(n, grid.shape[0], kern, dtype),
    ):
        if not tracer.enabled:
            for sl in chunk_slices(n, rows):
                contrib = fastgrid_row_contributions(
                    x, y, grid, kern.name, sl.start, sl.stop, dtype
                )
                fold_rows(contrib, sq_sums)
        else:
            # Traced path: the identical fold (``a = a + row`` is the
            # in-place add, bit for bit) plus a Neumaier compensation term
            # that *measures* per-row summation drift without touching
            # the returned values (Langrené & Warin motivate tracking it).
            comp = np.zeros_like(sq_sums)
            for sl in chunk_slices(n, rows):
                contrib = fastgrid_row_contributions(
                    x, y, grid, kern.name, sl.start, sl.stop, dtype
                )
                for row in contrib:
                    acc = sq_sums + row
                    comp += np.where(
                        np.abs(sq_sums) >= np.abs(row),
                        (sq_sums - acc) + row,
                        (row - acc) + sq_sums,
                    )
                    sq_sums = acc
            tracer.record_max(
                "numeric.kahan_compensation", float(np.max(np.abs(comp)))
            )
    _forget_sorted()
    return sq_sums / n
