"""The bagged subsampled-CV bandwidth selector.

``BaggedCVSelector`` turns the paper's fast grid search into the inner
loop of the Barreiro-Ures / Cao / Francisco-Fernández estimator
(arXiv:2105.04134): run the sweep on ``r`` seeded subsamples of size
``m ≪ n``, pick each subsample's CV-optimal bandwidth, rescale to
full-sample scale by the known ``h ∼ n^(−1/5)`` rate, and aggregate in
log space.  It is a different *estimator* from the exact sweep, not a
faster route to the same answer: since the exact sweep takes the
sort-once path, the time it saves is small.  At n = 100,000 on the
interior grid ``linspace(0.002, 0.1, 50)`` the default plan (r = 20,
m = 3,163) took 1.4 s against 3.4 s for the exact ``numpy`` sweep
(medians of 5 alternated runs each on one 2-core x86-64 host, a ratio of
2.4×), and it selected 0.00814 where the exact sweep selected 0.0080.

Grid-matched rescaling
----------------------
Rather than sweeping each subsample over its own ad-hoc grid and
rescaling the winning float, the selector inflates the *full-sample*
grid by ``(n/m)^rate`` once, sweeps every subsample over that inflated
grid, and maps the argmin **index** back to the full-sample grid.  Each
subsample therefore votes for an exact full-grid point — the bagged
selection answers the same question as the exact sweep ("which of these
k candidates minimises CV") and the two are directly comparable with no
float round-trip error.

Determinism contract
--------------------
Subsample draw ``i`` is a pure function of ``(root_seed, i)``
(:mod:`repro.bagged.plan`), every fast-grid backend in the strict-fold
family (numpy / blocked-shm / distributed)
produces byte-identical curves, and aggregation folds the per-subsample
results in index order.  Hence the bagged ``h_opt`` is bit-for-bit
identical across backends, across serial vs. pooled dispatch, and
across fault/retry schedules — a retried subsample re-derives the same
draw and recomputes the same curve.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.exceptions import ValidationError
from repro.kernels import get_kernel
from repro.core.backends import get_backend
from repro.core.grid import BandwidthGrid
from repro.core.result import SelectionResult
from repro.core.selectors import BandwidthSelector, _argmin_with_empty_window_guard
from repro.bagged.aggregate import AGGREGATORS, SubsampleOutcome, aggregate_bandwidths
from repro.bagged.plan import SubsamplePlan, plan_subsamples
from repro.bagged.rescale import DEFAULT_RATE_EXPONENT, scale_factor
from repro.obs.tracer import current_tracer
from repro.parallel import WorkerPool
from repro.parallel.pool import traced_work_unit
from repro.resilience import faults
from repro.utils.validation import check_paired_samples, check_positive_int

if TYPE_CHECKING:  # deferred: serving/resilience import the core back
    from repro.resilience.engine import ResilienceConfig
    from repro.serving.cache import ArtifactCache

__all__ = ["BaggedCVSelector"]

#: Backends whose sweep is already process-parallel; fanning whole
#: subsamples over a pool on top of them would nest process pools.
_PARALLEL_BACKENDS = ("blocked-shm", "distributed")


def _subsample_unit(
    index: int,
    x: np.ndarray,
    y: np.ndarray,
    scaled_values: np.ndarray,
    kernel_name: str,
    backend_name: str,
    plan_fields: tuple[int, int, int, int],
    backend_options: dict[str, Any],
) -> np.ndarray:
    """One subsample sweep: re-derive the draw, run the backend.

    Top-level (hence picklable) so the pooled dispatch path can ship it
    to forked workers; the draw is re-derived from ``(root_seed, index)``
    inside the unit, so only four ints travel instead of an index array.
    """
    plan = SubsamplePlan(*plan_fields)
    with current_tracer().span(
        f"bagged.subsample[{index}]", index=index, m=plan.subsample_size
    ):
        xs, ys = plan.take(index, x, y)
        backend = get_backend(backend_name)
        return np.asarray(
            backend(xs, ys, scaled_values, kernel_name, **backend_options),
            dtype=np.float64,
        )


class BaggedCVSelector(BandwidthSelector):
    """Bagged subsampled-CV selection for huge ``n``.

    Parameters
    ----------
    kernel:
        Kernel name or instance (same registry as the exact selectors).
    n_bandwidths, grid:
        The *full-sample* candidate grid (paper convention
        ``[domain/k, domain]`` when no explicit grid is given).  Each
        subsample sweeps this grid inflated by ``(n/m)^rate``.
    backend:
        Inner sweep backend for each subsample: any registered grid
        backend — ``"numpy"`` (default), ``"blocked-shm"``,
        ``"distributed"`` ... All strict-fold backends yield bit-identical
        bagged selections.
    subsamples, subsample_size, root_seed:
        The plan: ``r`` seeded draws of size ``m`` (defaults per
        arXiv:2105.04134's guidance, see :mod:`repro.bagged.plan`).
        Identical ``(root_seed, r, m, grid)`` always reproduce the same
        selection bit-for-bit.
    aggregate:
        ``"mean-log"`` (geometric mean, default) or ``"median-log"``.
    rate:
        Rate exponent for the ``h ∼ n^(−rate)`` rescaling (``1/5``
        univariate; see :func:`repro.bagged.rescale.rate_exponent`).
    subsample_workers:
        ``> 1`` fans whole subsample sweeps across a process pool
        (serial backends only — the parallel backends already fan out
        internally).  Dispatch order cannot change the result.
    cache:
        An :class:`~repro.serving.cache.ArtifactCache`: each subsample's
        CV curve is fingerprint-keyed, so a warm curve skips that
        subsample's sweep bit-for-bit.  (Whole-selection warm hits are
        handled one level up by :func:`repro.core.api.select_bandwidth`.)
    resilience:
        ``True`` or a :class:`~repro.resilience.engine.ResilienceConfig`:
        a faulted subsample sweep is retried under the policy with its
        draw re-derived deterministically; when retries are exhausted and
        fallback is enabled, the subsample degrades to the serial numpy
        backend — lossless, since the strict-fold family is
        byte-identical.
    backend_options:
        Forwarded to every subsample sweep (``memory_budget``,
        ``workers``, ``fleet``, ``dtype`` ...).
    """

    method = "bagged-cv"

    def __init__(
        self,
        kernel: str = "epanechnikov",
        *,
        n_bandwidths: int = 50,
        grid: BandwidthGrid | None = None,
        backend: str = "numpy",
        subsamples: int | None = None,
        subsample_size: int | None = None,
        root_seed: int = 0,
        aggregate: str = "mean-log",
        rate: float = DEFAULT_RATE_EXPONENT,
        subsample_workers: int = 1,
        cache: "ArtifactCache | None" = None,
        resilience: "ResilienceConfig | bool | None" = None,
        **backend_options: Any,
    ) -> None:
        self.kernel = get_kernel(kernel)
        self.n_bandwidths = check_positive_int(n_bandwidths, name="n_bandwidths")
        self.grid = grid
        self.backend_name = backend
        self.subsamples = subsamples
        self.subsample_size = subsample_size
        self.root_seed = int(root_seed)
        if aggregate not in AGGREGATORS:
            raise ValidationError(
                f"unknown aggregate {aggregate!r}; known: {', '.join(AGGREGATORS)}"
            )
        self.aggregate = aggregate
        self.rate = float(rate)
        self.subsample_workers = check_positive_int(
            subsample_workers, name="subsample_workers"
        )
        if self.subsample_workers > 1 and backend in _PARALLEL_BACKENDS:
            raise ValidationError(
                f"subsample_workers > 1 would nest process pools on the "
                f"already-parallel {backend!r} backend; parallelise either "
                "across subsamples or inside the sweep, not both"
            )
        self.cache = cache
        if resilience is not None:
            from repro.resilience.engine import ResilienceConfig

            self.resilience = ResilienceConfig.coerce(resilience)
        else:
            self.resilience = None
        self.backend_options = backend_options

    # -- internals ---------------------------------------------------------

    def _grid_for(self, x: np.ndarray) -> BandwidthGrid:
        if self.grid is not None:
            return self.grid
        return BandwidthGrid.for_sample(x, self.n_bandwidths)

    def _curve_key(
        self, xs: np.ndarray, ys: np.ndarray, scaled_values: np.ndarray,
        backend_name: str,
    ) -> str:
        from repro.serving.cache import curve_fingerprint

        return curve_fingerprint(
            xs,
            ys,
            scaled_values,
            self.kernel.name,
            backend=backend_name,
            dtype=str(self.backend_options.get("dtype", "default")),
        )

    def _sweep_one(
        self,
        plan: SubsamplePlan,
        index: int,
        x: np.ndarray,
        y: np.ndarray,
        scaled_values: np.ndarray,
        backend_name: str,
    ) -> np.ndarray:
        """One (possibly cached) subsample sweep, chaos hook included."""
        faults.fire("bagged.subsample", f"subsample[{index}]")
        xs, ys = plan.take(index, x, y)
        tracer = current_tracer()
        if self.cache is not None:
            key = self._curve_key(xs, ys, scaled_values, backend_name)
            warm = self.cache.get_curve(key)
            if warm is not None and warm.shape == scaled_values.shape:
                tracer.counter("curve_cache.hit")
                return warm
            tracer.counter("curve_cache.miss")
        backend = get_backend(backend_name)
        scores = np.asarray(
            backend(xs, ys, scaled_values, self.kernel, **self.backend_options),
            dtype=np.float64,
        )
        if self.cache is not None:
            self.cache.put_curve(key, scaled_values, scores)
        return scores

    def _serial_curves(
        self,
        plan: SubsamplePlan,
        x: np.ndarray,
        y: np.ndarray,
        scaled_values: np.ndarray,
        report: Any,
    ) -> tuple[list[np.ndarray], list[int]]:
        """Index-ordered subsample curves with per-subsample retry."""
        from repro.resilience.degrade import is_retryable
        from repro.resilience.policy import RetryBudgetExceeded, run_with_retry

        tracer = current_tracer()
        curves: list[np.ndarray] = []
        attempts: list[int] = []
        jitter = (
            self.resilience.policy.jitter_rng()
            if self.resilience is not None
            else None
        )
        for i in range(plan.n_subsamples):
            with tracer.span(
                f"bagged.subsample[{i}]", index=i, m=plan.subsample_size
            ) as span:
                count = 1

                def compute(index: int = i) -> np.ndarray:
                    return self._sweep_one(
                        plan, index, x, y, scaled_values, self.backend_name
                    )

                if self.resilience is None:
                    scores = compute()
                else:

                    def on_retry(exc: BaseException, attempt: int) -> None:
                        nonlocal count
                        count = attempt + 1
                        report.retries += 1
                        report.record_fault(f"bagged.subsample[{i}]", exc)
                        tracer.counter("bagged.retries")

                    try:
                        scores = run_with_retry(
                            compute,
                            policy=self.resilience.policy,
                            retryable=is_retryable,
                            on_retry=on_retry,
                            sleep=self.resilience.sleep,
                            rng=jitter,
                            label=f"bagged.subsample[{i}]",
                        )
                    except RetryBudgetExceeded as exc:
                        if not (
                            self.resilience.fallback
                            and self.backend_name != "numpy"
                        ):
                            raise
                        # Lossless degradation: the strict-fold family is
                        # byte-identical, so recomputing this subsample on
                        # the serial terminal cannot change the selection.
                        report.record_fault(f"bagged.subsample[{i}]", exc)
                        report.record_attempt(self.backend_name, "degraded")
                        tracer.counter("bagged.subsample_fallbacks")
                        span.set(fallback="numpy")
                        scores = self._sweep_one(
                            plan, i, x, y, scaled_values, "numpy"
                        )
                span.set(attempts=count)
                curves.append(scores)
                attempts.append(count)
        return curves, attempts

    def _pooled_curves(
        self,
        plan: SubsamplePlan,
        x: np.ndarray,
        y: np.ndarray,
        scaled_values: np.ndarray,
    ) -> list[np.ndarray]:
        """Subsample sweeps fanned across a process pool, in index order.

        Fault directives for the ``bagged.subsample`` site are drawn in
        the parent *before* dispatch (the library-wide discipline), so a
        chaos schedule replays identically regardless of scheduling.
        """
        directives = faults.draw_many(
            "bagged.subsample", plan.n_subsamples, "bagged"
        )
        for index, kind in enumerate(directives):
            if kind is not None:
                faults.faulty_call(kind, lambda: None)
        plan_fields = (
            plan.n, plan.subsample_size, plan.n_subsamples, plan.root_seed,
        )
        args_list = [
            (
                i, x, y, scaled_values, self.kernel.name,
                self.backend_name, plan_fields, self.backend_options,
            )
            for i in range(plan.n_subsamples)
        ]
        tracer = current_tracer()
        pool = WorkerPool(self.subsample_workers)
        try:
            pool.open()
            if not tracer.enabled:
                outputs = pool.starmap(_subsample_unit, args_list)
                return [np.asarray(out, dtype=np.float64) for out in outputs]
            with tracer.span(
                "bagged.dispatch",
                workers=pool.workers,
                subsamples=plan.n_subsamples,
            ) as parent:
                wrapped = [(_subsample_unit,) + tuple(args) for args in args_list]
                shipped = pool.starmap(traced_work_unit, wrapped)
                curves = []
                for value, spans, counters, maxima in shipped:
                    curves.append(np.asarray(value, dtype=np.float64))
                    tracer.adopt(spans, parent_id=parent.span_id)
                    tracer.merge_counters(counters, maxima)
            return curves
        finally:
            pool.close()

    # -- selection ---------------------------------------------------------

    def select(self, x: np.ndarray, y: np.ndarray) -> SelectionResult:
        x, y = check_paired_samples(x, y)
        # An unregistered name is a caller error (REPRO_BACKEND) before
        # any subsample is drawn, with resilience on or off.
        get_backend(self.backend_name)
        n = int(x.shape[0])
        start = time.perf_counter()
        tracer = current_tracer()

        report: Any = None
        if self.resilience is not None:
            from repro.resilience.degrade import ResilienceReport

            report = ResilienceReport()
            report.backend_requested = self.backend_name
            report.backend_used = self.backend_name

        with tracer.span(
            "bagged.plan", n=n, root_seed=self.root_seed, rate=self.rate
        ) as plan_span:
            plan = plan_subsamples(
                n,
                subsamples=self.subsamples,
                subsample_size=self.subsample_size,
                root_seed=self.root_seed,
            )
            base_grid = self._grid_for(x)
            factor = scale_factor(plan.subsample_size, n, rate=self.rate)
            scaled_values = base_grid.values * factor
            plan_span.set(
                m=plan.subsample_size, r=plan.n_subsamples, scale_factor=factor,
            )

        if self.subsample_workers > 1 and self.resilience is None:
            curves = self._pooled_curves(plan, x, y, scaled_values)
            attempts = [1] * plan.n_subsamples
        else:
            curves, attempts = self._serial_curves(
                plan, x, y, scaled_values, report
            )

        outcomes: list[SubsampleOutcome] = []
        for i, scores in enumerate(curves):
            j = _argmin_with_empty_window_guard(scores)
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
            "bagged.aggregate", r=plan.n_subsamples, aggregate=self.aggregate
        ) as agg_span:
            rescaled = np.array(
                [o.rescaled_bandwidth for o in outcomes], dtype=np.float64
            )
            sub_scores = np.array([o.score for o in outcomes], dtype=np.float64)
            h_opt = aggregate_bandwidths(rescaled, aggregate=self.aggregate)
            score = float(np.mean(sub_scores))
            agg_span.set(h_opt=h_opt)

        wall = time.perf_counter() - start
        diagnostics: dict[str, Any] = {
            "grid_minimum": base_grid.minimum,
            "grid_maximum": base_grid.maximum,
            "bagged": {
                **plan.to_dict(),
                "rate": self.rate,
                "aggregate": self.aggregate,
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
            backend=self.backend_name,
            kernel=self.kernel.name,
            n_observations=n,
            bandwidths=rescaled,
            scores=sub_scores,
            n_evaluations=plan.n_subsamples * len(base_grid),
            wall_seconds=wall,
            converged=True,
            diagnostics=diagnostics,
            resilience=report,
        )
        result.diagnostics["boundary_minimum"] = result.is_boundary_minimum()
        return result
