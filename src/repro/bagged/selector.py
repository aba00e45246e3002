"""The bagged subsampled-CV bandwidth selector.

``BaggedCVSelector`` turns the paper's fast grid search into the inner
loop of the Barreiro-Ures / Cao / Francisco-Fernández estimator
(arXiv:2105.04134): run the sweep on ``r`` seeded subsamples of size
``m ≪ n``, pick each subsample's CV-optimal bandwidth, rescale to
full-sample scale by the known ``h ∼ n^(−1/5)`` rate, and aggregate in
log space.  It is a different *estimator* from the exact sweep, not a
faster route to the same answer: since the exact sweep takes the
sort-once path, the time it saves is small.  At n = 100,000 on the
interior grid ``linspace(0.002, 0.1, 50)`` (paper DGP, seed 0) the
default plan (r = 20, m = 3,163) took 0.81 s against 0.99 s for the
exact ``numpy`` sweep (medians of 5 alternated runs each on one 2-core
x86-64 host, a ratio of 1.2×), and it selected 0.00885 where the exact
sweep selected 0.0080.

Grid-matched rescaling
----------------------
Rather than sweeping each subsample over its own ad-hoc grid and
rescaling the winning float, the selector inflates the *full-sample*
grid by ``(n/m)^(1/5)`` once, sweeps every subsample over that inflated
grid, and maps the argmin **index** back to the full-sample grid.  Each
subsample therefore votes for an exact full-grid point — the bagged
selection answers the same question as the exact sweep ("which of these
k candidates minimises CV") and the two are directly comparable with no
float round-trip error.

Determinism contract
--------------------
Subsample draw ``i`` is a pure function of ``(root_seed, i)``
(:mod:`repro.bagged.plan`), every fast-grid backend in the strict-fold
family (numpy / blocked-shm) produces byte-identical curves, and
aggregation folds the per-subsample results in index order.  Hence the
bagged ``h_opt`` is bit-for-bit identical across backends, across fault/
retry schedules and from a warm curve cache — a retried or degraded
subsample sweep recomputes the same curve from the same draw.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.kernels import get_kernel
from repro.core.backends import get_backend
from repro.core.grid import BandwidthGrid, GridLike, as_bandwidth_grid
from repro.core.result import SelectionResult
from repro.core.selectors import (
    BandwidthSelector,
    _argmin_with_empty_window_guard,
    _coerce_resilience,
    _cv_curve,
    _engine_for,
)
from repro.bagged.aggregate import SubsampleOutcome, aggregate_bandwidths
from repro.bagged.plan import RATE_EXPONENT, SubsamplePlan, plan_subsamples
from repro.obs.tracer import current_tracer
from repro.utils.validation import check_paired_samples, check_positive_int

if TYPE_CHECKING:  # deferred: serving/resilience import the core back
    from repro.resilience.engine import ResilienceConfig, ResilientEngine
    from repro.serving.cache import ArtifactCache

__all__ = ["BaggedCVSelector"]


def _backend_calls(engine: "ResilientEngine | None") -> int:
    """Backend calls the engine has made: one per attempt, one per retry."""
    if engine is None:
        return 0
    return len(engine.report.backend_attempts) + engine.report.retries


class BaggedCVSelector(BandwidthSelector):
    """Bagged subsampled-CV selection for huge ``n``.

    Parameters
    ----------
    kernel:
        Kernel name or instance (same registry as the exact selectors).
    n_bandwidths, grid:
        The *full-sample* candidate grid (paper convention
        ``[domain/k, domain]`` when no explicit grid is given; an
        explicit one may be any array-like of bandwidths).  Each
        subsample sweeps this grid inflated by ``(n/m)^(1/5)``.
    backend:
        Inner sweep backend for each subsample: any registered grid
        backend — ``"numpy"`` (default), ``"blocked-shm"`` ... All
        strict-fold backends yield bit-identical bagged selections.
    subsamples, subsample_size, root_seed:
        The plan: ``r`` seeded draws of size ``m`` (defaults per
        arXiv:2105.04134's guidance, see :mod:`repro.bagged.plan`).
        Identical ``(root_seed, r, m, grid)`` always reproduce the same
        selection bit-for-bit.
    cache:
        An :class:`~repro.serving.cache.ArtifactCache`: each subsample's
        CV curve is fingerprint-keyed, so a warm curve skips that
        subsample's sweep bit-for-bit.  (Whole-selection warm hits are
        handled one level up by :func:`repro.core.api.select_bandwidth`.)
    resilience:
        ``True`` or a :class:`~repro.resilience.engine.ResilienceConfig`:
        every subsample sweep runs on one
        :class:`~repro.resilience.engine.ResilientEngine`, exactly as a
        grid selection's sweeps do — a transient fault re-runs the sweep,
        a structural one (or a spent retry budget) moves down the
        backend's fallback chain, and later subsamples start from the
        backend the earlier ones settled on.  ``blocked-shm → numpy`` is
        lossless, since the strict-fold family is byte-identical.
    backend_options:
        Forwarded to every subsample sweep (``memory_budget``,
        ``workers``, ``dtype`` ...).
    """

    method = "bagged-cv"

    def __init__(
        self,
        kernel: str = "epanechnikov",
        *,
        n_bandwidths: int = 50,
        grid: GridLike | None = None,
        backend: str = "numpy",
        subsamples: int | None = None,
        subsample_size: int | None = None,
        root_seed: int = 0,
        cache: "ArtifactCache | None" = None,
        resilience: "ResilienceConfig | bool | None" = None,
        **backend_options: Any,
    ) -> None:
        self.kernel = get_kernel(kernel)
        self.n_bandwidths = check_positive_int(n_bandwidths, name="n_bandwidths")
        self.grid = as_bandwidth_grid(grid)
        self.backend_name = backend
        self.subsamples = subsamples
        self.subsample_size = subsample_size
        self.root_seed = int(root_seed)
        self.cache = cache
        self.resilience = _coerce_resilience(resilience)
        self.backend_options = backend_options

    # -- internals ---------------------------------------------------------

    def _grid_for(self, x: np.ndarray) -> BandwidthGrid:
        if self.grid is not None:
            return self.grid
        return BandwidthGrid.for_sample(x, self.n_bandwidths)

    def _curves(
        self,
        plan: SubsamplePlan,
        x: np.ndarray,
        y: np.ndarray,
        scaled_values: np.ndarray,
        engine: "ResilientEngine | None",
    ) -> tuple[list[np.ndarray], list[int]]:
        """Index-ordered subsample curves and each one's backend calls."""
        tracer = current_tracer()
        curves: list[np.ndarray] = []
        attempts: list[int] = []
        for i in range(plan.n_subsamples):
            with tracer.span(
                f"bagged.subsample[{i}]", index=i, m=plan.subsample_size
            ) as span:
                calls = _backend_calls(engine)
                xs, ys = plan.take(i, x, y)
                curves.append(
                    _cv_curve(
                        xs, ys, scaled_values, self.kernel, self.backend_name,
                        self.backend_options, cache=self.cache, engine=engine,
                    )
                )
                count = max(1, _backend_calls(engine) - calls)
                span.set(attempts=count)
                attempts.append(count)
        return curves, attempts

    # -- selection ---------------------------------------------------------

    def select(self, x: np.ndarray, y: np.ndarray) -> SelectionResult:
        x, y = check_paired_samples(x, y)
        # An unregistered name is a caller error (REPRO_BACKEND) before
        # any subsample is drawn, with resilience on or off.
        get_backend(self.backend_name)
        n = int(x.shape[0])
        start = time.perf_counter()
        tracer = current_tracer()

        with tracer.span(
            "bagged.plan", n=n, root_seed=self.root_seed, rate=RATE_EXPONENT
        ) as plan_span:
            plan = plan_subsamples(
                n,
                subsamples=self.subsamples,
                subsample_size=self.subsample_size,
                root_seed=self.root_seed,
            )
            base_grid = self._grid_for(x)
            factor = plan.scale_factor
            scaled_values = base_grid.values * factor
            plan_span.set(
                m=plan.subsample_size, r=plan.n_subsamples, scale_factor=factor,
            )

        engine = _engine_for(self.resilience, self.backend_name)
        curves, attempts = self._curves(plan, x, y, scaled_values, engine)

        outcomes: list[SubsampleOutcome] = []
        for i, scores in enumerate(curves):
            j = _argmin_with_empty_window_guard(
                scores,
                float(scaled_values[-1]),
                self.kernel,
                lambda i=i: plan.take(i, x, y)[0],
            )
            outcomes.append(
                SubsampleOutcome(
                    index=i,
                    argmin=j,
                    bandwidth=float(scaled_values[j]),
                    rescaled_bandwidth=float(base_grid.values[j]),
                    score=float(scores[j]),
                    attempts=attempts[i],
                    bandwidths=scaled_values,
                    scores=scores,
                )
            )

        with tracer.span(
            "bagged.aggregate", r=plan.n_subsamples, aggregate="mean-log"
        ) as agg_span:
            rescaled = np.array(
                [o.rescaled_bandwidth for o in outcomes], dtype=np.float64
            )
            sub_scores = np.array([o.score for o in outcomes], dtype=np.float64)
            h_opt = aggregate_bandwidths(rescaled)
            score = float(np.mean(sub_scores))
            agg_span.set(h_opt=h_opt)

        wall = time.perf_counter() - start
        diagnostics: dict[str, Any] = {
            "grid_minimum": base_grid.minimum,
            "grid_maximum": base_grid.maximum,
            "bagged": {
                **plan.to_dict(),
                "rate": RATE_EXPONENT,
                "aggregate": "mean-log",
                "scale_factor": factor,
                # `score` is the mean of per-subsample CV minima — an
                # estimate of CV at scale m, NOT the full-sample CV at
                # h_opt (evaluating that would reintroduce the O(n²)
                # cost this selector exists to avoid).
                "score_semantics": "mean of per-subsample CV minima",
                "subsamples": [o.to_diagnostics() for o in outcomes],
            },
        }
        result = SelectionResult(
            bandwidth=h_opt,
            score=score,
            method=self.method,
            backend=self.backend_name
            if engine is None
            else engine.report.backend_used,
            kernel=self.kernel.name,
            n_observations=n,
            bandwidths=rescaled,
            scores=sub_scores,
            n_evaluations=plan.n_subsamples * len(base_grid),
            wall_seconds=wall,
            converged=True,
            diagnostics=diagnostics,
            resilience=engine.report if engine is not None else None,
        )
        result.diagnostics["boundary_minimum"] = result.is_boundary_minimum()
        return result
