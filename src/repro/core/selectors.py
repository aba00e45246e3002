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
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

if TYPE_CHECKING:  # deferred: both packages import the core back
    from repro.resilience.engine import ResilienceConfig
    from repro.serving.cache import ArtifactCache

from repro.exceptions import SelectionError, ValidationError
from repro.kernels import get_kernel
from repro.core.backends import get_backend
from repro.core.grid import BandwidthGrid
from repro.core.loocv import cv_score, dense_cv_block_stats, loo_estimates
from repro.core.result import SelectionResult
from repro.obs.tracer import current_tracer
from repro.parallel import WorkerPool
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


def _argmin_with_empty_window_guard(scores: np.ndarray) -> int:
    """Grid argmin that is robust to the h→0 degeneracy of ``CV_lc``.

    As h shrinks, leave-one-out windows empty out, ``M(X_i)`` zeroes every
    term, and the score collapses to exactly 0 — a spurious "perfect"
    minimum.  Validity is monotone in h (a window only grows with the
    bandwidth), so such zeros can only form a *prefix* of the (ascending)
    grid's score array: the guard skips leading zeros before taking the
    argmin.  A zero *after* a positive score is a genuinely perfect fit
    and remains eligible.  If every score is zero (e.g. constant Y, where
    any bandwidth is perfect), the largest bandwidth — maximal validity —
    is returned.
    """
    positive = np.flatnonzero(scores > 0.0)
    if positive.size == 0:
        return int(scores.shape[0] - 1)
    first = int(positive[0])
    return first + int(np.argmin(scores[first:]))


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
        Explicit :class:`BandwidthGrid` (overrides ``n_bandwidths``).
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
        or ``None`` (default).  When enabled, the sweep runs on the
        resilient execution engine: transient faults (worker crashes,
        timeouts, kernel-launch failures, corrupt blocks) are retried,
        structural faults (device OOM) degrade along the backend fallback
        chain, and the :class:`~repro.resilience.degrade.ResilienceReport`
        is attached to the result.
    resume:
        Checkpoint file path: the first sweep records completed row
        blocks there and a re-run with the same path replays them instead
        of recomputing.  Implies ``resilience=True``.
    """

    method = "grid-search"

    def __init__(
        self,
        kernel: str = "epanechnikov",
        *,
        n_bandwidths: int = 50,
        grid: BandwidthGrid | None = None,
        backend: str = "numpy",
        refine_rounds: int = 0,
        cache: "ArtifactCache | None" = None,
        resilience: "ResilienceConfig | bool | None" = None,
        resume: str | Path | None = None,
        **backend_options: Any,
    ) -> None:
        self.kernel = get_kernel(kernel)
        self.n_bandwidths = check_positive_int(n_bandwidths, name="n_bandwidths")
        self.grid = grid
        self.backend_name = backend
        self.cache = cache
        if refine_rounds < 0:
            raise ValidationError(f"refine_rounds must be >= 0, got {refine_rounds}")
        self.refine_rounds = int(refine_rounds)
        if resilience is not None or resume is not None:
            from repro.resilience.engine import ResilienceConfig

            self.resilience = ResilienceConfig.coerce(resilience, resume=resume)
        else:
            self.resilience = None
        self.backend_options = backend_options

    def _grid_for(self, x: np.ndarray) -> BandwidthGrid:
        if self.grid is not None:
            return self.grid
        return BandwidthGrid.for_sample(x, self.n_bandwidths)

    def _with_curve_cache(
        self,
        evaluate: Callable[..., np.ndarray],
        x: np.ndarray,
        y: np.ndarray,
        engine: Any,
    ) -> Callable[..., np.ndarray]:
        """Wrap a sweep so exact-fingerprint curves skip recomputation.

        The curve key covers data, grid values, kernel, backend, and the
        dtype option — everything that determines the float summations —
        so a hit is bit-for-bit the curve the sweep would produce.  When
        the resilient engine degraded to another backend, the curve is
        stored under the backend that actually computed it.
        """
        if self.cache is None:
            return evaluate
        from repro.serving.cache import curve_fingerprint

        cache = self.cache
        dtype = str(self.backend_options.get("dtype", "default"))

        def key_for(values: np.ndarray, backend_name: str) -> str:
            return curve_fingerprint(
                x, y, values, self.kernel.name, backend=backend_name,
                dtype=dtype,
            )

        def cached_evaluate(values: np.ndarray, *, first: bool) -> np.ndarray:
            tracer = current_tracer()
            key = key_for(values, self.backend_name)
            warm = cache.get_curve(key)
            if warm is not None and warm.shape == values.shape:
                tracer.counter("curve_cache.hit")
                return warm
            tracer.counter("curve_cache.miss")
            scores = evaluate(values, first=first)
            used = self.backend_name
            if engine is not None and engine.report.backend_used:
                used = engine.report.backend_used
            cache.put_curve(
                key if used == self.backend_name else key_for(values, used),
                values,
                np.asarray(scores, dtype=np.float64),
            )
            return scores

        return cached_evaluate

    def select(self, x: np.ndarray, y: np.ndarray) -> SelectionResult:
        x, y = check_paired_samples(x, y)
        grid = self._grid_for(x)
        start = time.perf_counter()
        # Resolve the name before any sweep: an unregistered backend is a
        # caller error (REPRO_BACKEND), never a fault to degrade around.
        backend = get_backend(self.backend_name)

        if self.resilience is not None:
            from repro.resilience.engine import ResilientEngine

            engine = ResilientEngine(self.resilience)

            def evaluate(values: np.ndarray, *, first: bool) -> np.ndarray:
                # Refinement rounds reuse whatever backend the first sweep
                # settled on (no point re-walking a failed chain prefix)
                # and skip the checkpoint (its fingerprint is per-grid).
                target = self.backend_name
                if not first and engine.report.backend_used:
                    target = engine.report.backend_used
                return engine.cv_scores(
                    x,
                    y,
                    values,
                    self.kernel,
                    backend=target,
                    backend_options=self.backend_options,
                    checkpoint_enabled=first,
                )

        else:
            engine = None

            def evaluate(values: np.ndarray, *, first: bool) -> np.ndarray:
                return np.asarray(
                    backend(x, y, values, self.kernel, **self.backend_options)
                )

        sweep = self._with_curve_cache(evaluate, x, y, engine)
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
                scores = sweep(grid.values, first=True)
            with tracer.span("argmin", k=len(grid)):
                best_j = _argmin_with_empty_window_guard(scores)
            best_h = float(grid.values[best_j])
            best_score = float(scores[best_j])
            n_evals = len(grid)

            current = grid
            for round_idx in range(self.refine_rounds):
                current = current.refine_around(best_h)
                with tracer.span("refine", round=round_idx + 1, k=len(current)):
                    finer = sweep(current.values, first=False)
                    j = _argmin_with_empty_window_guard(finer)
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
        backend_used = self.backend_name
        if engine is not None and engine.report.backend_used:
            backend_used = engine.report.backend_used
        result = SelectionResult(
            bandwidth=best_h,
            score=best_score,
            method=self.method,
            backend=backend_used,
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
        Process count for the parallel objective (1 = serial).
    seed:
        Seed for the restart initial values.
    maxiter:
        Iteration cap per restart.
    resilience:
        ``True``, a :class:`~repro.resilience.engine.ResilienceConfig`,
        or ``None``.  With ``workers > 1``, each parallel objective
        evaluation is retried (with pool rebuild) on worker crashes and
        timeouts; a work unit that keeps failing degrades that evaluation
        to the serial path instead of aborting the optimisation.
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
        if resilience is not None:
            from repro.resilience.engine import ResilienceConfig

            self.resilience = ResilienceConfig.coerce(resilience)
        else:
            self.resilience = None

    # -- objective ---------------------------------------------------------

    def _objective(
        self,
        x: np.ndarray,
        y: np.ndarray,
        pool: WorkerPool | None,
        trace: list[tuple[float, float]],
        guard: Any = None,
    ) -> Callable[[float], float]:
        n = x.shape[0]
        kern_name = self.kernel.name

        # R np convention: a bandwidth at which any leave-one-out
        # denominator vanishes makes the CV function undefined, and the
        # objective returns a huge penalty (np uses DBL_MAX).  Without
        # this, CV_lc collapses to 0 as h -> 0 (all windows empty) and
        # the optimiser runs to a degenerate bandwidth.
        penalty = np.finfo(np.float64).max / 1e6

        def serial_value(h: float) -> float:
            g_loo, valid = loo_estimates(x, y, h, self.kernel)
            if not valid.all():
                return penalty
            resid = y - g_loo
            return float(np.dot(resid, resid)) / n

        def parallel_stats(h: float) -> Any:
            assert pool is not None
            shared = (x, y, h, kern_name)
            if guard is None:
                return pool.sum_over_blocks(
                    dense_cv_block_stats, n, shared_args=shared
                )
            from repro.resilience.engine import resilient_parallel_sum
            from repro.resilience.policy import RetryBudgetExceeded

            try:
                return resilient_parallel_sum(
                    pool,
                    dense_cv_block_stats,
                    n,
                    shared_args=shared,
                    policy=guard.policy,
                    report=guard.report,
                    sleep=guard.sleep,
                    rng=guard.rng,
                )
            except RetryBudgetExceeded as exc:
                # This evaluation degrades to the serial path rather than
                # aborting the whole optimisation.
                guard.report.record_fault("objective:serial-fallback", exc)
                return None

        def cv(h: float) -> float:
            if h <= 0.0 or not np.isfinite(h):
                return penalty
            value: float | None = None
            if pool is not None:
                stats = parallel_stats(float(h))
                if stats is not None:
                    sq_sum, invalid = float(stats[0]), float(stats[1])
                    value = penalty if invalid > 0 else sq_sum / n
            if value is None:
                value = serial_value(float(h))
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
        pool = WorkerPool(self.workers) if self.workers > 1 else None
        guard: Any = None
        report: Any = None
        if self.resilience is not None:
            from types import SimpleNamespace

            from repro.resilience.degrade import ResilienceReport

            report = ResilienceReport()
            report.backend_requested = "multicore" if pool is not None else "scipy"
            report.backend_used = report.backend_requested
            if pool is not None:
                guard = SimpleNamespace(
                    policy=self.resilience.policy,
                    report=report,
                    sleep=self.resilience.sleep,
                    rng=self.resilience.policy.jitter_rng(),
                )
        best_h = np.nan
        best_score = np.inf
        all_converged = True
        restart_results: list[dict[str, float]] = []
        tracer = current_tracer()
        try:
            if pool is not None:
                pool.open()
            cv = self._objective(x, y, pool, trace, guard)
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
                            res = optimize.minimize(
                                lambda params: cv(float(np.exp(params[0]))),
                                x0=np.array([np.log(h0)]),
                                method="Nelder-Mead",
                                options={
                                    "maxiter": self.maxiter,
                                    "xatol": 1e-4,
                                    "fatol": 1e-10,
                                },
                            )
                            h_opt = float(np.exp(res.x[0]))
                            score = float(res.fun)
                            ok = bool(res.success)
                    restart_results.append(
                        {"h0": float(h0), "h": h_opt, "score": score}
                    )
                    all_converged = all_converged and ok
                    if score < best_score:
                        best_score = score
                        best_h = h_opt
        finally:
            if pool is not None:
                pool.close()

        if not np.isfinite(best_h):
            raise SelectionError("numerical optimisation produced no finite optimum")
        wall = time.perf_counter() - start_time
        evaluated = np.array(trace)
        return SelectionResult(
            bandwidth=float(np.clip(best_h, lo, hi)),
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
            resilience=report,
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
