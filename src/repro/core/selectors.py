"""Bandwidth selectors — the paper's four programs plus rules of thumb.

=============================  ============================================
Paper program                  Selector here
=============================  ============================================
1) Racine & Hayfield (R np)    :class:`NumericalOptimizationSelector`
2) Multicore R                 :class:`NumericalOptimizationSelector`
                               with ``workers > 1`` (row-parallel objective)
3) Sequential C                :class:`GridSearchSelector(backend="numpy")`
4) CUDA on GPU                 :class:`GridSearchSelector(backend="gpusim")`
(intro: "ad hoc rules")        :class:`RuleOfThumbSelector`
=============================  ============================================

All selectors expose one method, :meth:`BandwidthSelector.select`, and
return a :class:`repro.core.result.SelectionResult`.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from contextlib import AbstractContextManager, nullcontext
from functools import partial
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

if TYPE_CHECKING:  # deferred: both packages import the core back
    from repro.resilience.engine import ResilienceConfig, ResilientEngine
    from repro.serving.cache import ArtifactCache

from repro.exceptions import EmptyWindowError, SelectionError, ValidationError
from repro.kernels import Kernel, get_kernel
from repro.core.backends import get_backend
from repro.core.grid import BandwidthGrid, GridLike, as_bandwidth_grid
from repro.core.blockwise import (
    ShmRowExecutor,
    plan_dense_blocks,
    shm_row_executor,
)
from repro.core.loocv import cv_score, dense_block_rows, dense_cv_sums
from repro.core.result import SelectionResult
from repro.obs.tracer import current_tracer
from repro.utils.validation import check_paired_samples, check_positive_int

__all__ = [
    "BandwidthSelector",
    "GridSearchSelector",
    "NumericalOptimizationSelector",
    "RuleOfThumbSelector",
    "rule_of_thumb_bandwidth",
]


class BandwidthSelector(ABC):
    """Common interface: ``select(x, y) -> SelectionResult``."""

    #: Identifier reported in results.
    method: str = "abstract"

    @abstractmethod
    def select(self, x: np.ndarray, y: np.ndarray) -> SelectionResult:
        """Choose the CV-optimal (or rule-of-thumb) bandwidth for (x, y)."""


def _argmin_with_empty_window_guard(
    scores: np.ndarray,
    h_max: float,
    kernel: Kernel,
    sample_x: Callable[[], np.ndarray],
) -> int:
    """Grid argmin that is robust to the h→0 degeneracy of ``CV_lc``.

    As h shrinks, leave-one-out windows empty out, ``M(X_i)`` zeroes every
    term, and the score collapses to exactly 0 — a spurious "perfect"
    minimum.  Validity is monotone in h (a window only grows with the
    bandwidth), so such zeros can only form a *prefix* of the (ascending)
    grid's score array: the guard skips leading zeros before taking the
    argmin.  A zero *after* a positive score is a genuinely perfect fit
    and remains eligible.

    If every score is zero, either y is constant on every window (any
    bandwidth is perfect, so the largest, ``h_max``, is returned) or
    every window is empty even at ``h_max`` and the curve says nothing:
    :class:`~repro.exceptions.EmptyWindowError`.  Each point's nearest
    neighbour is adjacent in sorted order, so the smallest gap of the
    sorted sample decides whether any pair ``i != j`` has positive
    weight (tied x, a zero gap, does).  ``sample_x`` supplies the swept
    x and is called only in that all-zero case.
    """
    positive = np.flatnonzero(scores > 0.0)
    if positive.size == 0:
        gap = float(np.min(np.diff(np.sort(sample_x()))))
        if not float(kernel(gap / h_max)) > 0.0:
            raise EmptyWindowError(
                "every leave-one-out window is empty at every grid "
                f"bandwidth: the closest pair of x is {gap:.6g} apart, so "
                f"no pair has positive {kernel.name} weight even at the "
                f"largest bandwidth {h_max:.6g}; every CV score is 0 and "
                "carries no information, so use a grid that reaches larger "
                "bandwidths"
            )
        return int(scores.shape[0] - 1)
    first = int(positive[0])
    return first + int(np.argmin(scores[first:]))


def _coerce_resilience(
    value: "ResilienceConfig | bool | None",
) -> "ResilienceConfig | None":
    """The public ``resilience=`` argument as a config, or ``None`` (off)."""
    if value is None:
        return None
    from repro.resilience.engine import ResilienceConfig

    return ResilienceConfig.coerce(value)


def _engine_for(
    config: "ResilienceConfig | None", backend: str
) -> "ResilientEngine | None":
    """One selection's resilient engine, its report opened on ``backend``."""
    if config is None:
        return None
    from repro.resilience.engine import ResilientEngine

    engine = ResilientEngine(config)
    engine.report.backend_requested = engine.report.backend_used = backend
    return engine


def _cv_curve(
    x: np.ndarray,
    y: np.ndarray,
    values: np.ndarray,
    kernel: Kernel,
    backend: str,
    backend_options: dict[str, Any],
    *,
    cache: "ArtifactCache | None" = None,
    engine: "ResilientEngine | None" = None,
) -> np.ndarray:
    """One CV curve: the path every grid and bagged sweep takes.

    A curve-cache hit returns the stored float64 curve bit for bit.  The
    key covers data, grid values, kernel, backend and the dtype option —
    everything that determines the float summations.  On a miss the
    registered ``backend`` runs directly, or on the resilient ``engine``
    when one is given; the curve is stored under the backend that
    finished it.  With an engine, the sweep starts from the backend that
    the selection's earlier sweeps settled on (no point re-walking a
    failed chain prefix for each refinement round or subsample).
    """
    if engine is not None and engine.report.backend_used:
        backend = engine.report.backend_used
    key = ""
    if cache is not None:
        from repro.serving.cache import curve_fingerprint

        dtype = str(backend_options.get("dtype", "default"))

        def key_for(name: str) -> str:
            return curve_fingerprint(
                x, y, values, kernel.name, backend=name, dtype=dtype
            )

        tracer = current_tracer()
        key = key_for(backend)
        warm = cache.get_curve(key)
        if warm is not None and warm.shape == values.shape:
            tracer.counter("curve_cache.hit")
            return warm
        tracer.counter("curve_cache.miss")
    if engine is None:
        scores = np.asarray(
            get_backend(backend)(x, y, values, kernel, **backend_options),
            dtype=np.float64,
        )
    else:
        scores = engine.cv_scores(
            x, y, values, kernel, backend=backend,
            backend_options=backend_options,
        )
    if cache is not None:
        used = backend if engine is None else engine.report.backend_used
        cache.put_curve(key if used == backend else key_for(used), values, scores)
    return scores


class GridSearchSelector(BandwidthSelector):
    """Grid search over ``CV_lc(h)`` using the fast sorted algorithm.

    Parameters
    ----------
    kernel:
        Kernel name or instance.  Polynomial compact kernels take the fast
        O(n² log n) path; others fall back to the dense O(k·n²) path.
    n_bandwidths:
        Grid size when no explicit grid is given (paper default style:
        grid spans ``[domain/k, domain]``).
    grid:
        Explicit grid (overrides ``n_bandwidths``): a
        :class:`BandwidthGrid` or any array-like of bandwidths.
    backend:
        Any registered grid backend: ``"numpy"`` (default), ``"python"``,
        ``"blocked-shm"``, ``"gpusim"``, ...
    refine_rounds:
        Number of §IV-A refinement passes: after each search the grid is
        re-centred on the incumbent optimum and shrunk 10×, recovering
        precision beyond what one grid (e.g. the 2,048-point
        constant-memory cap) provides.
    backend_options:
        Extra keyword arguments forwarded to the backend (``block_rows``,
        ``memory_budget``, ``workers``, ``dtype``, ``device`` ...).
    cache:
        An :class:`~repro.serving.cache.ArtifactCache`.  Each sweep's CV
        curve is looked up by its fingerprint (data + grid + kernel +
        backend + dtype) before computing; a hit skips the O(n² log n)
        sweep and returns the stored float64 curve bit-for-bit.
        Refinement rounds are cached per refined grid too.
    resilience:
        ``True``, a :class:`~repro.resilience.engine.ResilienceConfig`,
        or ``None`` (default).  When enabled, each sweep runs on the
        resilient execution engine: a sweep hit by a transient fault
        (worker crash, timeout, kernel-launch failure, corrupt scores) is
        re-run, structural faults (device OOM) degrade along the backend
        fallback chain, and the
        :class:`~repro.resilience.degrade.ResilienceReport` is attached
        to the result.  The curve is the bits of the backend that
        finished it.
    """

    method = "grid-search"

    def __init__(
        self,
        kernel: str = "epanechnikov",
        *,
        n_bandwidths: int = 50,
        grid: GridLike | None = None,
        backend: str = "numpy",
        refine_rounds: int = 0,
        cache: "ArtifactCache | None" = None,
        resilience: "ResilienceConfig | bool | None" = None,
        **backend_options: Any,
    ) -> None:
        self.kernel = get_kernel(kernel)
        self.n_bandwidths = check_positive_int(n_bandwidths, name="n_bandwidths")
        self.grid = as_bandwidth_grid(grid)
        self.backend_name = backend
        self.cache = cache
        if refine_rounds < 0:
            raise ValidationError(f"refine_rounds must be >= 0, got {refine_rounds}")
        self.refine_rounds = int(refine_rounds)
        self.resilience = _coerce_resilience(resilience)
        self.backend_options = backend_options

    def _grid_for(self, x: np.ndarray) -> BandwidthGrid:
        if self.grid is not None:
            return self.grid
        return BandwidthGrid.for_sample(x, self.n_bandwidths)

    def select(self, x: np.ndarray, y: np.ndarray) -> SelectionResult:
        x, y = check_paired_samples(x, y)
        grid = self._grid_for(x)
        start = time.perf_counter()
        # Resolve the name before any sweep: an unregistered backend is a
        # caller error (REPRO_BACKEND), never a fault to degrade around.
        get_backend(self.backend_name)
        engine = _engine_for(self.resilience, self.backend_name)

        def sweep(values: np.ndarray) -> np.ndarray:
            return _cv_curve(
                x, y, values, self.kernel, self.backend_name,
                self.backend_options, cache=self.cache, engine=engine,
            )

        tracer = current_tracer()
        refinements: list[dict[str, float]] = []
        with tracer.span(
            "grid-search",
            backend=self.backend_name,
            k=len(grid),
            kernel=self.kernel.name,
            refine_rounds=self.refine_rounds,
        ):
            with tracer.span("evaluate-grid", round=0, k=len(grid)):
                scores = sweep(grid.values)
            with tracer.span("argmin", k=len(grid)):
                best_j = _argmin_with_empty_window_guard(
                    scores, grid.maximum, self.kernel, lambda: x
                )
            best_h = float(grid.values[best_j])
            best_score = float(scores[best_j])
            n_evals = len(grid)

            current = grid
            for round_idx in range(self.refine_rounds):
                current = current.refine_around(best_h)
                with tracer.span("refine", round=round_idx + 1, k=len(current)):
                    finer = sweep(current.values)
                    j = _argmin_with_empty_window_guard(
                        finer, current.maximum, self.kernel, lambda: x
                    )
                if finer[j] <= best_score:
                    best_h = float(current.values[j])
                    best_score = float(finer[j])
                n_evals += len(current)
                refinements.append(
                    {"round": round_idx + 1, "h": best_h, "score": best_score}
                )

        wall = time.perf_counter() - start
        diagnostics: dict[str, Any] = {"grid_minimum": grid.minimum,
                                       "grid_maximum": grid.maximum}
        if refinements:
            diagnostics["refinements"] = refinements
        result = SelectionResult(
            bandwidth=best_h,
            score=best_score,
            method=self.method,
            backend=self.backend_name
            if engine is None
            else engine.report.backend_used,
            kernel=self.kernel.name,
            n_observations=int(x.shape[0]),
            bandwidths=grid.values.copy(),
            scores=scores,
            n_evaluations=n_evals,
            wall_seconds=wall,
            converged=True,
            diagnostics=diagnostics,
            resilience=engine.report if engine is not None else None,
        )
        result.diagnostics["boundary_minimum"] = result.is_boundary_minimum()
        return result


class NumericalOptimizationSelector(BandwidthSelector):
    """Derivative-free numerical minimisation of ``CV_lc(h)``.

    This is the R ``np`` (``npregbw``) analogue — paper program 1 — and,
    with ``workers > 1``, the "Multicore R" program 2 whose objective is
    evaluated row-parallel across a process pool.

    The objective is not concave (paper §III), so like ``npregbw`` the
    selector supports multiple restarts from random initial bandwidths;
    distinct restarts can and do land in distinct local minima, which is
    the instability the grid search removes.

    Parameters
    ----------
    kernel:
        Kernel name or instance.
    method:
        ``"nelder-mead"`` (npregbw's default simplex search, run on
        ``log h`` to keep iterates positive) or ``"brent"``
        (bounded scalar minimisation).
    n_restarts:
        Number of optimisation starts (``nmulti`` in npregbw).
    bounds:
        ``(h_min, h_max)``; defaults to ``[domain/1000, domain]``.
    workers:
        Process count for the parallel objective (1 = serial).  Every
        evaluation folds the same dense rows in the same order, so any
        worker count selects the serial bandwidth and score bit for bit.
    seed:
        Seed for the restart initial values.
    maxiter:
        Iteration cap per restart.
    resilience:
        ``True``, a :class:`~repro.resilience.engine.ResilienceConfig`,
        or ``None``.  With ``workers > 1``, each parallel objective
        evaluation is retried (with pool rebuild) on worker crashes and
        timeouts; a work unit that keeps failing sends that evaluation
        to the serial rows — the same bits — instead of aborting the
        optimisation.
    """

    method = "numerical-optimization"

    def __init__(
        self,
        kernel: str = "epanechnikov",
        *,
        method: str = "nelder-mead",
        n_restarts: int = 3,
        bounds: tuple[float, float] | None = None,
        workers: int = 1,
        seed: int | None = 0,
        maxiter: int = 200,
        resilience: "ResilienceConfig | bool | None" = None,
    ) -> None:
        self.kernel = get_kernel(kernel)
        if method not in ("nelder-mead", "brent"):
            raise ValidationError(
                f"method must be 'nelder-mead' or 'brent', got {method!r}"
            )
        self.opt_method = method
        self.n_restarts = check_positive_int(n_restarts, name="n_restarts")
        self.bounds = bounds
        self.workers = check_positive_int(workers, name="workers")
        self.seed = seed
        self.maxiter = check_positive_int(maxiter, name="maxiter")
        self.resilience = _coerce_resilience(resilience)

    # -- objective ---------------------------------------------------------

    def _objective(
        self,
        x: np.ndarray,
        y: np.ndarray,
        executor: ShmRowExecutor | None,
        trace: list[tuple[float, float]],
        engine: "ResilientEngine | None" = None,
    ) -> Callable[[float], float]:
        n = x.shape[0]
        kern = self.kernel
        rows = dense_block_rows(n)
        blocks = (
            []
            if executor is None
            else plan_dense_blocks(n, 1, executor.pool.workers).blocks()
        )

        # R np convention: a bandwidth at which any leave-one-out
        # denominator vanishes makes the CV function undefined, and the
        # objective returns a huge penalty (np uses DBL_MAX).  Without
        # this, CV_lc collapses to 0 as h -> 0 (all windows empty) and
        # the optimiser runs to a degenerate bandwidth.
        penalty = np.finfo(np.float64).max / 1e6

        def sums(grid: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
            # The executor's fold (under the engine's retries when
            # resilient); the serial fold of the same rows, the same bits,
            # without one or once an evaluation's retries are spent.
            if executor is not None:
                attempt = partial(
                    executor.fold, grid, kern.name, blocks, dense=True
                )
                if engine is None:
                    return attempt()
                from repro.resilience.policy import RetryBudgetExceeded

                try:
                    return engine.retry(
                        attempt, site="objective", pool=executor.pool,
                        label="parallel objective evaluation",
                    )
                except RetryBudgetExceeded as exc:
                    engine.report.record_fault("objective:serial-fallback", exc)
            return dense_cv_sums(x, y, grid, kern, rows)

        def cv(h: float) -> float:
            if h <= 0.0 or not np.isfinite(h):
                return penalty
            total, empty = sums(np.array([float(h)]))
            assert empty is not None  # dense rows always count them
            value = penalty if empty[0] > 0 else float(total[0] / n)
            trace.append((float(h), value))
            return value

        return cv

    def _bounds_for(self, x: np.ndarray) -> tuple[float, float]:
        if self.bounds is not None:
            lo, hi = self.bounds
            if not (0.0 < lo < hi):
                raise ValidationError(f"invalid bounds {self.bounds}")
            return float(lo), float(hi)
        domain = float(x.max() - x.min())
        if domain <= 0.0:
            raise SelectionError("x has zero domain; no bandwidth exists")
        return domain / 1000.0, domain

    def select(self, x: np.ndarray, y: np.ndarray) -> SelectionResult:
        # scipy is imported here, not at module level, so grid selections
        # never pay its start-up cost; it is taken before the clock starts
        # so the first run's wall_seconds is the optimisation alone.
        from scipy import optimize

        x, y = check_paired_samples(x, y)
        lo, hi = self._bounds_for(x)
        rng = np.random.default_rng(self.seed)
        start_time = time.perf_counter()

        trace: list[tuple[float, float]] = []
        engine = _engine_for(
            self.resilience, "multicore" if self.workers > 1 else "scipy"
        )
        best_h = np.nan
        best_score = np.inf
        all_converged = True
        restart_results: list[dict[str, float]] = []
        tracer = current_tracer()
        # Multicore R: one executor (x and y in shared memory, one pool)
        # serves every evaluation of every restart.
        executor_scope: AbstractContextManager[ShmRowExecutor | None] = (
            shm_row_executor(x, y, workers=self.workers)
            if self.workers > 1
            else nullcontext()
        )
        with executor_scope as executor:
            cv = self._objective(x, y, executor, trace, engine)
            inits = np.exp(rng.uniform(np.log(lo), np.log(hi), size=self.n_restarts))
            with tracer.span(
                "numerical-optimization",
                optimizer=self.opt_method,
                restarts=self.n_restarts,
                workers=self.workers,
            ):
                for restart_idx, h0 in enumerate(inits):
                    with tracer.span("restart", index=restart_idx, h0=float(h0)):
                        if self.opt_method == "brent":
                            res = optimize.minimize_scalar(
                                cv,
                                bounds=(lo, hi),
                                method="bounded",
                                options={"maxiter": self.maxiter},
                            )
                            h_opt = float(res.x)
                            score = float(res.fun)
                            ok = bool(res.success)
                        else:
                            # The simplex runs on log h inside the bounds;
                            # clipping exp's last-ulp overshoot makes the
                            # evaluated h the reported one, so the score
                            # belongs to the bandwidth.
                            def in_bounds(params: np.ndarray) -> float:
                                return float(np.clip(np.exp(params[0]), lo, hi))

                            res = optimize.minimize(
                                lambda params: cv(in_bounds(params)),
                                x0=np.array([np.log(h0)]),
                                method="Nelder-Mead",
                                bounds=[(np.log(lo), np.log(hi))],
                                options={
                                    "maxiter": self.maxiter,
                                    "xatol": 1e-4,
                                    "fatol": 1e-10,
                                },
                            )
                            h_opt = in_bounds(res.x)
                            score = float(res.fun)
                            ok = bool(res.success)
                    restart_results.append(
                        {"h0": float(h0), "h": h_opt, "score": score}
                    )
                    all_converged = all_converged and ok
                    if score < best_score:
                        best_score = score
                        best_h = h_opt

        if not np.isfinite(best_h):
            raise SelectionError("numerical optimisation produced no finite optimum")
        wall = time.perf_counter() - start_time
        evaluated = np.array(trace)
        return SelectionResult(
            bandwidth=float(best_h),
            score=best_score,
            method=self.method,
            backend="multicore" if self.workers > 1 else "scipy",
            kernel=self.kernel.name,
            n_observations=int(x.shape[0]),
            bandwidths=evaluated[:, 0]
            if evaluated.size
            else np.empty(0, dtype=np.float64),
            scores=evaluated[:, 1]
            if evaluated.size
            else np.empty(0, dtype=np.float64),
            n_evaluations=len(trace),
            wall_seconds=wall,
            converged=all_converged,
            diagnostics={
                "restarts": restart_results,
                "bounds": (lo, hi),
                "optimizer": self.opt_method,
                "workers": self.workers,
            },
            resilience=engine.report if engine is not None else None,
        )


def rule_of_thumb_bandwidth(
    x: np.ndarray,
    kernel: str = "epanechnikov",
    *,
    constant: float = 1.06,
) -> float:
    """Normal-reference rule-of-thumb bandwidth (``bw.nrd`` style).

    ``h = C · min(σ̂, IQR/1.349) · n^{-1/5}``, rescaled from the Gaussian
    to the requested kernel through the canonical-bandwidth ratio.  This is
    the "ad hoc rule of thumb" the paper's introduction says practitioners
    substitute for the optimal bandwidth — kept as the zero-cost baseline.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValidationError("rule of thumb needs a 1-D sample of size >= 2")
    kern = get_kernel(kernel)
    sd = float(np.std(x, ddof=1))
    q75, q25 = np.percentile(x, [75.0, 25.0])
    iqr = float(q75 - q25) / 1.349
    spread = min(s for s in (sd, iqr) if s > 0.0) if max(sd, iqr) > 0.0 else 0.0
    if spread <= 0.0:
        raise SelectionError("sample has zero spread; no rule-of-thumb bandwidth")
    h_gauss = constant * spread * x.size ** (-0.2)
    from repro.kernels import GaussianKernel

    scale = kern.canonical_bandwidth / GaussianKernel().canonical_bandwidth
    return h_gauss * scale


class RuleOfThumbSelector(BandwidthSelector):
    """Zero-cost normal-reference baseline (no cross-validation).

    The reported ``score`` is the CV value *at* the rule-of-thumb
    bandwidth, so rule-of-thumb and CV selectors are directly comparable.
    """

    method = "rule-of-thumb"

    def __init__(
        self, kernel: str = "epanechnikov", *, constant: float = 1.06
    ) -> None:
        self.kernel = get_kernel(kernel)
        self.constant = float(constant)

    def select(self, x: np.ndarray, y: np.ndarray) -> SelectionResult:
        x, y = check_paired_samples(x, y)
        start = time.perf_counter()
        with current_tracer().span("rule-of-thumb", kernel=self.kernel.name):
            h = rule_of_thumb_bandwidth(x, self.kernel, constant=self.constant)
            score = cv_score(x, y, h, self.kernel)
        wall = time.perf_counter() - start
        return SelectionResult(
            bandwidth=h,
            score=score,
            method=self.method,
            backend="numpy",
            kernel=self.kernel.name,
            n_observations=int(x.shape[0]),
            bandwidths=np.array([h]),
            scores=np.array([score]),
            n_evaluations=1,
            wall_seconds=wall,
            converged=True,
            diagnostics={"constant": self.constant},
        )
