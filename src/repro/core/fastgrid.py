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
from collections.abc import Iterator

import numpy as np

from repro.core.grid import ensure_bandwidth_grid
from repro.exceptions import MemoryBudgetError, ValidationError
from repro.kernels import Kernel, get_kernel
from repro.obs.tracer import current_tracer
from repro.utils.chunking import chunk_slices, suggest_chunk_rows
from repro.utils.membudget import (
    MEMORY_BUDGET_ENV,
    BlockPlan,
    parse_byte_budget,
    requested_budget,
)
from repro.utils.numeric import fold_rows, int_power
from repro.utils.validation import check_paired_samples, ensure_bandwidths

__all__ = [
    "cv_scores_fastgrid",
    "cv_scores_fastgrid_python",
    "fastgrid_row_contributions",
    "plan_fastgrid_blocks",
    "require_fast_grid_kernel",
    "window_sum_path",
]

def _resolve_kernel(kernel: str | Kernel) -> Kernel:
    """A kernel by name; a kernel-like object (a ``ConvolutionKernel``) as is."""
    return kernel if hasattr(kernel, "poly_terms") else get_kernel(kernel)


def require_fast_grid_kernel(kernel: str | Kernel) -> Kernel:
    """Resolve ``kernel`` and check it is eligible for the fast grid search.

    Eligibility = compact support **and** a polynomial weight (paper
    footnote 1: Epanechnikov, Uniform, Triangular — plus the other
    polynomial kernels in :mod:`repro.kernels.polynomial`, and the
    self-convolutions KDE LSCV sums with this sweep).
    """
    kern = _resolve_kernel(kernel)
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

#: Crossover of :func:`window_sum_path`, fitted to the committed
#: measurement ``BENCH_crossover.json`` (``scripts/crossover.py``: one
#: sweep per path on a 2-core x86-64 host, over n, k, every fast-grid
#: kernel and LSCV's Epanechnikov self-convolution, on an interior and on
#: the paper's grid).  The binned path costs O(n²), the sorted one about
#: O(n·(c + k)) for a per-octave set-up ``c``, so the sorted path runs
#: when ``n >= SORTED_MIN_N + ratio · k``.  ``ratio`` belongs to the first
#: ``(top, ratio)`` row of :data:`SORTED_MIN_N_PER_K` whose ``top`` is at
#: least the kernel's largest polynomial power; a larger power keeps the
#: binned path.  Keyed on the terms, never the name: Epanechnikov (top 2)
#: and its self-convolution (top 5) are both named "epanechnikov".  The
#: sorted path gathers ``2·top + 1`` prefix rows per octave, the binned
#: one bins each distance once per term: up to power 6 no shape the line
#: admits was lost on both grids (the sorted path won at n = 300, k = 30
#: and at n = 2,000, k = 1,000), and tricube (power 9) won on both
#: wherever its steeper line admits it (n = 2,000, k = 500 included) and
#: lost on both at n = 300, k = 100, n = 1,000, k ≥ 500 and n = 2,000,
#: k = 1,000, which it keeps binned.  At n = 200 the winner depended on
#: the grid.
SORTED_MIN_N: int = 250
SORTED_MIN_N_PER_K: tuple[tuple[int, float], ...] = ((6, 1.5), (9, 2.1))

#: Grid-column × sorted-position cells per tile of
#: :meth:`_SortedSample.contributions`: a tile holds
#: ``RANK_TILE_CELLS // widest`` sorted positions, ``widest`` being the
#: column count of the grid's widest octave, so one octave's
#: ``(k_octave, tile)`` float64 temporaries keep one size on every grid.
#: The k = 50 interior grid ``linspace(0.002, 0.1, 50)`` (widest octave
#: 22 columns) gets 1,024-row tiles, measured best of 256–4,096 on a
#: 2-core x86-64 host (n = 8,000); the paper grid at k = 500 (240
#: columns) gets 93 rows instead of holding some 50 MiB per tile.  Rows
#: are partition-invariant, so the tile size never changes a bit.
RANK_TILE_CELLS: int = 22 * 1024

#: Output cells an unbudgeted sorted block may hold per observation of
#: the sample: ``rows · k <= SORTED_BLOCK_CELLS_PER_N · n``.  The block's
#: ``(rows, k)`` output and the fold's workspace are the only O(rows·k)
#: arrays of a sorted sweep, so this keeps its memory O(n) at any k, like
#: the sorted sample's own: 256-row blocks at n = 2,000, k = 500, where
#: one 1,398-row block added 6 MiB to a served process's peak RSS, and
#: still one block at n = 8,000, k = 50.
SORTED_BLOCK_CELLS_PER_N: int = 64

#: Bytes one unbudgeted binned chunk's rows may hold, as charged by
#: :func:`_working_set_bytes`, and the fewest rows it takes when its rows
#: are larger.  At n = 2,000, k = 500 (binned before the crossover was
#: re-fitted) this gave Epanechnikov 80 rows: 0.30 s and an 11 MiB
#: tracemalloc peak per sweep, against 0.41 s and 260 MiB for the whole
#: 2,000-row chunk of the 256 MiB chunk budget (medians of 5 on a 2-core
#: x86-64 host; 40–120 rows all ran within 0.29–0.32 s).  The
#: floor keeps large samples off a handful of rows: at n = 25,000
#: (float32, the simulated device's tiles) 8,000 rows took 21.3 s in
#: 16-row chunks, 19.2 s in 67-row ones and 20.2 s in 190-row ones (2
#: runs each, CPU time, same host).  Rows are partition-invariant, so the
#: chunk size never changes a bit.
BINNED_CHUNK_BYTES: int = 16 * 1024 * 1024
BINNED_MIN_ROWS: int = 64

#: Window positions per batch of :meth:`_SortedSample._direct_sums`, the
#: fallback for windows that escape their neighbourhood: a few float64
#: temporaries of this length (8 MiB each) at most.
DIRECT_BATCH: int = 1 << 20


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
    kern = _resolve_kernel(kernel)
    if np.dtype(dtype) != np.float64 or not kern.supports_fast_grid:
        return "binned"
    top = max(t.power for t in kern.poly_terms)
    for limit, ratio in SORTED_MIN_N_PER_K:
        if top <= limit:
            return "sorted" if n >= SORTED_MIN_N + ratio * k else "binned"
    return "binned"


def _pad_up(count: np.ndarray) -> np.ndarray:
    """``count`` rounded up to a multiple of 1/8 of its power of two."""
    step = np.left_shift(1, np.maximum(np.frexp(count)[1] - 4, 0))
    return -(-count // step) * step


def _two_sided_prefix(block: np.ndarray, zero: int) -> None:
    """Prefix sums of ``block`` (R × rows × columns) that vanish at ``zero``.

    In place, column ``j`` becomes ``Σ_{zero < i <= j} v_i`` right of
    column ``zero`` (which holds 0) and ``−Σ_{j <= i < zero} v_i`` left of
    it, each summed sequentially outward from ``zero``.
    """
    np.cumsum(block[:, :, zero:], axis=2, out=block[:, :, zero:])
    if zero:
        outward = block[:, :, zero - 1::-1]
        np.cumsum(outward, axis=2, out=outward)
        np.negative(block[:, :, :zero], out=block[:, :, :zero])


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
    """Neighbourhood-anchored prefix sums for grid columns within a factor of 2.

    The sorted sample is cut into cells of width ``R·h_max`` of the
    octave.  Each non-empty cell ``s`` has an anchor, its middle element
    (an exact data value, so ``x − anchor`` is an exact difference for
    nearby points), and a *neighbourhood*: the non-empty cells whose index
    is ``s − 1``, ``s`` or ``s + 1``, a contiguous run of sorted positions
    ``[nb_lo, nb_hi)``.  Over it the octave keeps prefix sums of ``u^r``
    and ``y·u^r`` with ``u = x − anchor[s]``, based at the anchor: the
    sum at position q runs from the anchor to q, so ``Z[hi] − Z[lo]`` is
    the sum over ``[lo, hi)`` and every stored sum carries only the
    magnitudes between the anchor and its position.  A window of
    half-width ``R·h <= R·h_max`` around a point of cell ``s`` lies inside
    that neighbourhood — up to rounding of the cell edges, which
    :meth:`_SortedSample.window_sums` detects — so each of its sums is one
    prefix difference, re-centred once on ``x_i`` with
    ``δ = anchor[s] − x_i``: ``|u| <= 2·R·h_max`` and ``|δ| <= R·h_max``,
    a bounded loss of digits.  Only non-empty cells have neighbourhoods
    and a point lies in at most three, so storage is O(n) however small
    ``h`` is relative to the spread.

    ``prefix`` stacks ``Σu^r`` (r = 1..top) then ``Σy·u^r`` (r = 0..top),
    one column per slot; ``Σu^0`` is the window count, an exact integer
    taken from positions instead.  Per sorted position ``p``: ``base[p]``
    maps a position of ``p``'s neighbourhood to its prefix column,
    ``nb_lo[p]``/``nb_hi[p]`` bound that neighbourhood and ``delta[p]`` is
    the re-centring shift.
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
        seg_start = np.flatnonzero(new)
        seg_stop = np.append(seg_start[1:], n)
        adjacent = np.equal(np.diff(cell[seg_start]), 1.0)
        nb_lo = seg_start.copy()
        nb_lo[1:][adjacent] = seg_start[:-1][adjacent]
        nb_hi = seg_stop.copy()
        nb_hi[:-1][adjacent] = seg_stop[1:][adjacent]
        at = (seg_start + seg_stop - 1) // 2
        anchor = xs[at]
        # Neighbourhood s is one row of prefix columns with its anchor's
        # column, whose prefix is 0, after ``left[s]`` columns: the column
        # of sorted position q is ``left[s] + q − at[s]``.  Rows are stored
        # grouped by their (left, right) extents, each padded up to a
        # multiple of 1/8 of its power of two, so every group is one
        # (segments, columns) block whose halves ``np.cumsum`` scans
        # outward from the anchor column: each prefix is the plain
        # sequential sum from the anchor to its position, so rounding stays
        # relative to the magnitudes between them (a global ``cumsum``
        # differenced at segment starts would not), and at most 1/8 of the
        # columns are padding.
        left = _pad_up(at - nb_lo)
        right = _pad_up(nb_hi - at)
        width = left + right + 1
        order = np.lexsort((right, left))
        first = np.empty_like(width)
        first[order] = np.cumsum(width[order]) - width[order]
        owner = np.repeat(order, width[order])
        col = np.arange(owner.shape[0]) - first[owner] - left[owner]
        # Left of the anchor a column sums the value at its own position,
        # right of it the value just before.
        src = np.clip(at[owner] + col - (col > 0), 0, n - 1)
        empty = col == 0
        del col
        u = xs[src] - anchor[owner]
        u[empty] = 0.0
        yu = ys[src]
        yu[empty] = 0.0
        del src, empty
        self.prefix = np.empty((2 * top + 1, owner.shape[0]), dtype=np.float64)
        del owner
        self.prefix[top] = yu
        power = u
        for r in range(1, top + 1):
            if r > 1:
                power = power * u
            self.prefix[r - 1] = power
            np.multiply(yu, power, out=self.prefix[top + r])
        del u, yu, power
        edges = np.flatnonzero(
            np.diff(left[order]) | np.diff(right[order])
        ) + 1
        for group in np.split(order, edges):
            s = group[0]
            lo = int(first[s])
            block = self.prefix[:, lo:lo + group.shape[0] * int(width[s])]
            _two_sided_prefix(
                block.reshape(self.prefix.shape[0], group.shape[0], -1),
                int(left[s]),
            )
        seg = np.cumsum(new) - 1
        self.base = (first + left - at)[seg]
        self.nb_lo = nb_lo[seg]
        self.nb_hi = nb_hi[seg]
        self.delta = anchor[seg] - xs


def _working_set_bytes(
    n: int, grid: np.ndarray, kern: Kernel, dtype: str, output_matrix: bool
) -> tuple[int, int]:
    """``(fixed, per_row)``: the fast-grid sweep's working-set model.

    ``fixed`` is what stays resident however the rows are blocked: x and
    y, the grid and the k-length accumulators, plus the n×k contribution
    matrix when ``output_matrix`` is set.  ``per_row`` is one block row's
    bytes.  Both depend on the window-sum path (:func:`window_sum_path`):

    * **binned** — each row holds an n-long distance row, the int64
      bin/offset/index triple and one distance-power and weighted-Y row
      per polynomial term: O(n) bytes per row;
    * **sorted** — a row holds its k-long output row, the fold's
      workspace row and its position's share of a tile's temporaries:
      about ``4·top + 18`` per column of the widest octave (the window
      bounds, the ``2·top + 1`` prefix gathers at each end, the
      re-centred sums) and nine per grid column (window sums, counts and
      leave-one-out residuals).  It is charged the larger of that and
      ``8·(top+1) + 4·n_terms + 16`` k-length moment gathers, window
      sums and residuals, as if every row of the block gathered at once:
      the larger but for uniform on a one-octave grid, and the charge
      the k = 50 plans were pinned with.  O(k) bytes per row, an upper
      bound: a tile (:func:`_tile_rows`) never spans more rows than its
      block, but a block may hold many tiles.  The sample sorted once
      holds, per grid octave, an :class:`_Octave`: its ``2·top + 1``
      prefix rows over at most ``4.5·n`` columns (a point sits in at
      most three neighbourhoods, each adds one empty-prefix slot, and
      padding adds at most 1/8), plus its four n-long per-position
      arrays, and the transient arrays of building one octave.  This
      residency cannot be blocked: on the sorted path a budget that
      cannot hold it refuses the sweep, and smaller blocks shrink only
      the O(k) row share.

    Deliberately counts arrays that overlap only briefly — the plan must
    be an upper bound, not a best case.
    """
    k = int(grid.shape[0])
    n_terms = len(kern.poly_terms)
    top = max(t.power for t in kern.poly_terms)
    fixed = 2 * n * 8 + k * 8 + 4 * k * 8
    if output_matrix:
        fixed += n * k * 8
    if window_sum_path(n, k, kern, dtype) == "sorted":
        moments = 2 * top + 1
        columns = 9 * n // 2
        fixed += 8 * (
            6 * n
            + len(_octave_columns(grid)) * (moments * columns + 4 * n)
            + max(4, moments) * columns
            + 3 * n
        )
        per_row = 8 * max(
            (8 * (top + 1) + 4 * n_terms + 16) * k,
            (4 * top + 18) * _widest_octave(grid) + 11 * k,
        )
    else:
        itemsize = np.dtype(dtype).itemsize
        per_row = (
            n * (2 * itemsize + 3 * 8)
            + n_terms * n * (itemsize + 8)
            + 16 * k * 8
        )
    return fixed, per_row


def _widest_octave(grid: np.ndarray) -> int:
    """Grid columns of the widest octave (:func:`_octave_columns`)."""
    return max(cols.stop - cols.start for cols in _octave_columns(grid))


def _tile_rows(grid: np.ndarray) -> int:
    """Sorted positions per tile: :data:`RANK_TILE_CELLS` over the widest octave."""
    return max(1, RANK_TILE_CELLS // _widest_octave(grid))


class _SortedSample:
    """The whole sample sorted once, with per-octave prefix sums.

    Built once per ``(x, y, grid, kernel)`` and reused by every row block
    (see :func:`_sorted_sample`).  Rows are *sorted positions*: row ``p``
    is the observation of rank ``p``, with ``xs[p]`` and ``ys[p]``.
    :meth:`window_sums` costs O(rows·k·log n) per tile.
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
        self.ys = y[order]
        self.powers = [t.power for t in kern.poly_terms]
        self.top = max(self.powers)
        # The binned path's own membership threshold, bit for bit.
        self.cutoff = grid * kern.support_radius
        self.octaves = [
            _Octave(self.xs, self.ys, cols, self.cutoff[cols.stop - 1], self.top)
            for cols in _octave_columns(grid)
        ]
        self.tile_rows = _tile_rows(grid)

    def matches(
        self, x: np.ndarray, y: np.ndarray, grid: np.ndarray, kern: Kernel
    ) -> bool:
        # The terms and radius, not just the name: a kernel and its
        # self-convolution can share a name (both "epanechnikov").
        return (
            kern.name == self.kernel.name
            and kern.poly_terms == self.kernel.poly_terms
            and kern.support_radius == self.kernel.support_radius
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

    def window_sums(
        self, a: int, b: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(num, den, count)`` for sorted positions ``[a, b)``, each ``(k, b − a)``.

        ``num``/``den`` are the binned path's quantities (self included);
        ``count`` is the exact window population, self included.  Column
        ``c`` is the row at sorted position ``a + c``: rank order and
        column-major, so every ``searchsorted`` key row and every
        prefix-sum gather rises monotonically through memory.  Each
        entry's arithmetic is elementwise or a per-row gather, so the rows
        a row shares its range with never change its bits.
        """
        shape = (self.grid.shape[0], b - a)
        num = np.empty(shape, dtype=np.float64)
        den = np.empty(shape, dtype=np.float64)
        count = np.empty(shape, dtype=np.int64)
        xi = self.xs[None, a:b]
        for oc in self.octaves:
            cols = oc.cols
            lo, hi = self._window_bounds(xi, self.cutoff[cols, None])
            np.subtract(hi, lo, out=count[cols])
            self._octave_sums(oc, a, b, lo, hi, num[cols], den[cols])
        return num, den, count

    def _octave_sums(
        self, oc: _Octave, a: int, b: int, lo: np.ndarray, hi: np.ndarray,
        num: np.ndarray, den: np.ndarray,
    ) -> None:
        """Fill ``num``/``den`` (``(k_octave, b − a)`` views) from windows ``[lo, hi)``.

        Each sum is one prefix difference in the row's neighbourhood:
        ``Z[hi] − Z[lo]`` for even powers, and ``Z[hi] + Z[lo] − 2·Z[p]``
        (the right half minus the left half) for odd ones, where
        ``|x_l − x_i|^p`` changes sign across ``p``.  A window that
        leaves its neighbourhood — possible only through rounding of the
        cell edges — is summed directly instead (:meth:`_direct_sums`).
        """
        top = self.top
        nb_lo, nb_hi = oc.nb_lo[a:b], oc.nb_hi[a:b]
        escaped = (lo < nb_lo) | (hi > nb_hi)
        fallback = bool(escaped.any())
        # Gather inside the neighbourhood; escaped entries are replaced.
        g_lo, g_hi = (
            (np.maximum(lo, nb_lo), np.minimum(hi, nb_hi)) if fallback
            else (lo, hi)
        )
        base = oc.base[a:b]
        z_hi = np.take(oc.prefix, g_hi + base, axis=1)
        z_lo = np.take(oc.prefix, g_lo + base, axis=1)
        raws = {0: ((g_hi - g_lo).astype(np.float64), z_hi - z_lo)}
        if any(p % 2 for p in self.powers):
            pos = np.arange(a, b)
            z_hi += z_lo
            z_hi -= 2.0 * np.take(oc.prefix, pos + base, axis=1)[:, None, :]
            raws[1] = ((g_hi + g_lo - 2 * pos).astype(np.float64), z_hi)
        delta = oc.delta[a:b]
        h_cols = self.grid[oc.cols, None]
        for t, term in enumerate(self.kernel.poly_terms):
            count, raw = raws[term.power % 2]
            s_d = _shift(count, raw[:top], delta, term.power)
            s_yd = _shift(raw[top], raw[top + 1:], delta, term.power)
            scale = term.coefficient / (
                int_power(h_cols, term.power) if term.power else 1.0
            )
            if t:
                num += scale * s_yd
                den += scale * s_d
            else:
                np.multiply(scale, s_yd, out=num)
                np.multiply(scale, s_d, out=den)
        if fallback:
            self._direct_sums(escaped, a, lo, hi, h_cols, num, den)

    def _direct_sums(
        self, where: np.ndarray, a: int, lo: np.ndarray, hi: np.ndarray,
        h_cols: np.ndarray, num: np.ndarray, den: np.ndarray,
    ) -> None:
        """Overwrite the entries ``where`` marks with sums taken term by term.

        The checked fallback for a window that left its neighbourhood:
        ``Σ y_l·|x_l − x_i|^p`` over its positions ``[lo, hi)`` directly,
        as the binned path forms them.  Entries go in batches of about
        :data:`DIRECT_BATCH` window positions, so tied rows that escape
        together cannot blow up the temporaries; each entry's sums do not
        depend on its batch.
        """
        entries = np.argwhere(where)
        size = (hi - lo)[where]
        ends = np.cumsum(size)
        start = 0
        while start < size.shape[0]:
            stop = max(start + 1, int(np.searchsorted(
                ends, ends[start] - size[start] + DIRECT_BATCH, side="right"
            )))
            self._direct_batch(
                *entries[start:stop].T, size[start:stop], a, lo, h_cols,
                num, den,
            )
            start = stop

    def _direct_batch(
        self, j: np.ndarray, c: np.ndarray, size: np.ndarray, a: int,
        lo: np.ndarray, h_cols: np.ndarray, num: np.ndarray, den: np.ndarray,
    ) -> None:
        """:meth:`_direct_sums` for entries ``(j, c)`` with windows ``size`` long."""
        owner = np.repeat(np.arange(j.shape[0]), size)
        pos = np.arange(int(size.sum())) - np.repeat(
            np.cumsum(size) - size - lo[j, c], size
        )
        dist = np.abs(self.xs[a + c][owner] - self.xs[pos])
        yw = self.ys[pos]
        num[j, c] = 0.0
        den[j, c] = 0.0
        for term in self.kernel.poly_terms:
            d_pow = int_power(dist, term.power) if term.power else None
            s_d = np.bincount(owner, weights=d_pow, minlength=j.shape[0])
            s_yd = np.bincount(
                owner, weights=yw if d_pow is None else yw * d_pow,
                minlength=j.shape[0],
            )
            scale = term.coefficient / (
                int_power(h_cols[j, 0], term.power) if term.power else 1.0
            )
            num[j, c] += scale * s_yd
            den[j, c] += scale * s_d

    def contributions(self, start: int, stop: int) -> tuple[np.ndarray, int]:
        """Squared LOO residual rows for sorted positions ``[start, stop)``.

        Rows go in tiles of :func:`_tile_rows` positions, and each tile's
        window sums are reduced to residuals while they are cache-sized,
        so no block-wide ``(m, k)`` sums ever exist.  Also
        returns the number of empty windows.
        """
        out = np.empty((stop - start, self.grid.shape[0]), dtype=np.float64)
        empty = 0
        for a, b in self._tiles(start, stop):
            num, den, count = self.window_sums(a, b)
            squares, valid = _loo_squares(
                num, den, self.ys[None, a:b], self.kernel, count
            )
            out[a - start:b - start] = squares.T
            empty += valid.size - int(np.count_nonzero(valid))
        return out, empty

    def fold_den(self, start: int, stop: int, total: np.ndarray) -> None:
        """Fold positions ``[start, stop)``'s ``den`` rows into ``total``, in order.

        Runs the tiles :meth:`contributions` runs, so no block-wide
        ``(m, k)`` sums exist here either.
        """
        for a, b in self._tiles(start, stop):
            fold_rows(self.window_sums(a, b)[1].T, total)

    def _tiles(self, start: int, stop: int) -> Iterator[tuple[int, int]]:
        """``[a, b)`` ranges of at most :attr:`tile_rows` positions."""
        for a in range(start, stop, self.tile_rows):
            yield a, min(a + self.tile_rows, stop)


def _shift(
    zero: np.ndarray, higher: np.ndarray, delta: np.ndarray, power: int
) -> np.ndarray:
    """``Σ_r C(p, r)·δ^(p−r)·m_r`` with ``m_0 = zero``, ``m_r = higher[r − 1]``.

    Re-centres moment sums about an anchor on ``x_i`` (``δ = anchor −
    x_i``) by Horner's rule in ``δ`` over the binomial expansion.
    """
    acc = zero
    for r in range(1, power + 1):
        # In place after the first step: these are (k_octave, rows) arrays
        # and the allocations would dominate.
        acc = acc * delta if r == 1 else np.multiply(acc, delta, out=acc)
        coef = math.comb(power, r)
        acc += higher[r - 1] if coef == 1 else coef * higher[r - 1]
    return acc


def _loo_squares(
    num: np.ndarray,
    den: np.ndarray,
    y: np.ndarray,
    kern: Kernel,
    count: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Leave-one-out squared residuals, and which windows are non-empty.

    Observation i appears in its own window at every bandwidth with
    distance 0, touching only the power-0 term; ``y`` broadcasts against
    ``num``/``den`` (both are updated in place).  ``count``, the exact
    window population where a path has it, rules out self-only windows
    whose ``den`` keeps a rounding residual.
    """
    zero_terms = [t for t in kern.poly_terms if t.power == 0]
    if zero_terms:
        c0 = sum(t.coefficient for t in zero_terms)
        num -= c0 * y
        den -= c0
    valid = den > 0.0
    if count is not None:
        valid &= count > 1
    g_loo = np.where(valid, num / np.where(valid, den, 1.0), 0.0)
    resid = np.where(valid, y - g_loo, 0.0)
    return resid * resid, valid


_LAST_SORTED: _SortedSample | None = None


def _sorted_sample(
    x: np.ndarray, y: np.ndarray, grid: np.ndarray, kern: Kernel
) -> _SortedSample:
    """The sorted sample for these inputs, reusing the last one built.

    Row blocks of one sweep arrive as separate calls (from the block loop
    or pool workers); the sort and prefix
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

    Returns a float64 ``(stop - start, k)`` matrix whose row ``i`` is one
    observation's contribution to ``n · CV_lc(h)`` at every grid
    bandwidth.  On the binned path row ``i`` is observation ``start + i``;
    on the sorted path (:func:`window_sum_path`) rows are positions in the
    sample sorted by x, so row ``i`` is the observation of rank
    ``start + i``.  Either way ``range(n)`` covers every observation once.
    Each row depends only on its own observation and the *whole* sample —
    never on which other rows share the block — so the matrix is
    **partition-invariant**: any batching of ``range(n)`` produces the
    identical bits row by row.  Folding the rows in row order
    (:func:`repro.utils.numeric.fold_rows`) therefore yields a CV curve
    that is bit-for-bit independent of block size, chunk size, and worker
    count — the invariant the blockwise/shared-memory backends are tested
    against.

    This is the unit of work for the out-of-core blockwise engine: the
    block's working set is O(B·n + B·k) on the binned path and O(B·k) on
    the sorted one, and the full sweep never materialises anything n×n.
    """
    kern = require_fast_grid_kernel(kernel_name)
    grid = np.asarray(bandwidths, dtype=float)
    x = np.asarray(x)
    y = np.asarray(y)
    _check_block(x.shape[0], start, stop)
    tracer = current_tracer()
    path = window_sum_path(x.shape[0], grid.shape[0], kern, dtype)
    with tracer.span("block", start=start, stop=stop):
        if path == "sorted":
            with tracer.span("sort", rows=stop - start):
                sample = _sorted_sample(
                    np.ascontiguousarray(x, dtype=np.float64),
                    np.ascontiguousarray(y, dtype=np.float64),
                    grid, kern,
                )
            # The reduction runs fused into the sweep's tiles; its span
            # only records their tally.
            with tracer.span("sweep", rows=stop - start):
                out, empty = sample.contributions(start, stop)
            with tracer.span("reduction", rows=stop - start):
                if tracer.enabled:
                    tracer.counter("numeric.empty_windows", float(empty))
            return out
        num, den = _window_sums_for_block(
            x[start:stop], x, y, grid, kern, np.dtype(dtype)
        )
        with tracer.span("reduction", rows=stop - start):
            out, valid = _loo_squares(num, den, y[start:stop, None], kern)
            if tracer.enabled:
                tracer.counter(
                    "numeric.empty_windows",
                    float(valid.size - int(np.count_nonzero(valid))),
                )
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
    ``blocked-shm`` pool and the simulated-device tiles' sub-chunks —
    takes its block size from here.  The row model
    follows :func:`window_sum_path`: the binned path holds O(n) bytes per
    row, the sorted path O(k) per row plus the sorted sample's O(n)
    residency (:func:`_working_set_bytes`).

    With no ``memory_budget`` the block is the chunk that keeps one
    block's modelled rows within the 256 MiB chunk budget and its output
    within :data:`SORTED_BLOCK_CELLS_PER_N` cells per observation (sorted
    path), or within :data:`BINNED_CHUNK_BYTES` but at least
    :data:`BINNED_MIN_ROWS` rows (binned path), capped by ``max_rows``.
    A budget only ever lowers that row count, and raises the typed
    ``REPRO_MEM_BUDGET`` error when not even one row fits.  Only an
    explicit ``memory_budget`` counts here: the host sweeps resolve
    ``$REPRO_MEM_BUDGET`` where they take their arguments
    (:func:`repro.utils.membudget.requested_budget`) and pass it down, so
    the simulated-device programs (:mod:`repro.cuda_port.host`), which
    pass none, keep their unbudgeted sub-chunks.  Rows are
    partition-invariant (:func:`fastgrid_row_contributions`), so the block
    size never changes a curve's bits.
    """
    kern = require_fast_grid_kernel(kernel)
    grid = np.asarray(bandwidths, dtype=float)
    k = int(grid.shape[0])
    if n <= 0 or k <= 0:
        raise ValidationError(f"n and k must be positive, got n={n}, k={k}")
    if max_rows is not None and max_rows < 1:
        raise ValidationError(f"block_rows must be positive, got {max_rows}")
    path = window_sum_path(n, k, kern, dtype)
    fixed, per_row = _working_set_bytes(n, grid, kern, dtype, output_matrix)
    # The row model's own per-row bytes, sized against the chunk budget;
    # sorted rows hold at most SORTED_BLOCK_CELLS_PER_N output cells per
    # observation, binned rows, O(n) bytes each, fit the smaller binned
    # budget.
    if path == "sorted":
        rows = min(
            suggest_chunk_rows(per_row, itemsize=1, working_arrays=1),
            max(1, SORTED_BLOCK_CELLS_PER_N * n // k),
        )
    else:
        rows = suggest_chunk_rows(
            per_row, itemsize=1, working_arrays=1,
            budget_bytes=BINNED_CHUNK_BYTES, minimum=BINNED_MIN_ROWS,
        )
    if max_rows is not None:
        rows = min(rows, max_rows)
    budget = None
    if memory_budget is not None:
        budget = parse_byte_budget(memory_budget)
        spare = budget - fixed
        if spare < per_row:
            raise MemoryBudgetError(
                f"memory budget of {budget:,} bytes cannot hold a "
                f"single-row block: fixed working set is {fixed:,} bytes and "
                f"each block row needs {per_row:,} bytes (n={n:,}, k={k}, "
                f"{path} path); raise the budget (memory_budget= / "
                f"${MEMORY_BUDGET_ENV})"
            )
        rows = min(rows, n, spare // per_row)
    return BlockPlan(
        n=n,
        k=k,
        block_rows=rows,
        bytes_per_row=per_row,
        fixed_bytes=fixed,
        budget_bytes=budget,
    )


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
    ``blocked-shm`` backend at any block size and worker count.
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
            # Traced path: the identical fold plus a Neumaier compensation
            # term that *measures* per-row summation drift without touching
            # the returned values (Langrené & Warin motivate tracking it).
            # ``fold_rows`` leaves the running sums in ``running``, so the
            # drift terms are vectorised over the block.
            comp = np.zeros_like(sq_sums)
            running = np.empty(
                (min(rows, n) + 1, grid.shape[0]), dtype=np.float64
            )
            for sl in chunk_slices(n, rows):
                contrib = fastgrid_row_contributions(
                    x, y, grid, kern.name, sl.start, sl.stop, dtype
                )
                m = contrib.shape[0]
                fold_rows(contrib, sq_sums, running=running)
                prev, acc = running[:m], running[1 : m + 1]
                fold_rows(
                    np.where(
                        np.abs(prev) >= np.abs(contrib),
                        (prev - acc) + contrib,
                        (contrib - acc) + prev,
                    ),
                    comp,
                )
            tracer.record_max(
                "numeric.kahan_compensation", float(np.max(np.abs(comp)))
            )
    _forget_sorted()
    return sq_sums / n
