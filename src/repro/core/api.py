"""High-level convenience API.

Most users need exactly one call::

    from repro import select_bandwidth
    result = select_bandwidth(x, y)          # fast grid search, Epanechnikov
    result.bandwidth

Power users construct selectors directly from
:mod:`repro.core.selectors`.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.exceptions import ValidationError
from repro.core.grid import BandwidthGrid
from repro.core.result import SelectionResult
from repro.core.selectors import (
    GridSearchSelector,
    NumericalOptimizationSelector,
    RuleOfThumbSelector,
)
from repro.obs.tracer import TracerLike, coerce_tracer, current_tracer, use_tracer
from repro.utils.validation import check_paired_samples

if TYPE_CHECKING:  # deferred: serving/resilience import the core back
    from repro.resilience.engine import ResilienceConfig
    from repro.serving.cache import ArtifactCache

__all__ = ["select_bandwidth"]

_METHOD_ALIASES = {
    "grid": "grid",
    "grid-search": "grid",
    "fast-grid": "grid",
    "numeric": "numeric",
    "numerical": "numeric",
    "numerical-optimization": "numeric",
    "np": "numeric",
    "rot": "rule-of-thumb",
    "rule-of-thumb": "rule-of-thumb",
    "bagged": "bagged",
    "bagged-cv": "bagged",
    "bagging": "bagged",
}


def _selection_cache_key(
    x: np.ndarray,
    y: np.ndarray,
    *,
    canonical: str,
    kernel: str,
    n_bandwidths: int,
    grid: BandwidthGrid | None,
    backend: str,
    options: dict[str, Any],
) -> str:
    """Fingerprint of everything that determines this selection's output."""
    from repro.kernels import get_kernel
    from repro.serving.cache import selection_fingerprint

    if canonical in ("grid", "bagged"):
        # The bagged key covers the full-sample grid; (root seed, r, m)
        # arrive through ``options``, normalised by resolve_plan_options
        # before this function runs.
        grid_values = (
            grid.values if grid is not None else BandwidthGrid.for_sample(
                x, n_bandwidths
            ).values
        )
    else:
        grid_values = np.empty(0, dtype=np.float64)
    keyed_options = dict(options)
    keyed_options["n_bandwidths"] = n_bandwidths
    return selection_fingerprint(
        x,
        y,
        grid_values,
        get_kernel(kernel).name,
        method=canonical,
        backend=backend if canonical in ("grid", "bagged") else canonical,
        options=keyed_options,
    )


def select_bandwidth(
    x: np.ndarray,
    y: np.ndarray,
    *,
    method: str = "grid",
    kernel: str = "epanechnikov",
    n_bandwidths: int = 50,
    grid: BandwidthGrid | None = None,
    backend: str = "numpy",
    memory_budget: int | float | str | None = None,
    cache: "ArtifactCache | None" = None,
    resilience: "ResilienceConfig | bool | None" = None,
    resume: str | Path | None = None,
    trace: "bool | TracerLike | None" = None,
    **options: Any,
) -> SelectionResult:
    """Select the LOO-CV-optimal bandwidth for a kernel regression of y on x.

    Parameters
    ----------
    x, y:
        Paired observations (1-D, equal length, n >= 3).
    method:
        ``"grid"`` — the paper's fast sorted grid search (default and
        recommended: deterministic, guaranteed global on the grid);
        ``"bagged"`` — subsampled-CV bagging for huge n (the grid sweep
        on r seeded subsamples of size m, rescaled by the n^(−1/5) rate;
        pass ``subsamples=``/``subsample_size=``/``root_seed=``);
        ``"numeric"`` — R ``np``-style numerical optimisation;
        ``"rule-of-thumb"`` — instant normal-reference baseline.
    kernel:
        Kernel name (see :func:`repro.kernels.list_kernels`).
    n_bandwidths, grid:
        Grid configuration (grid method only).
    backend:
        Execution backend for the grid method (and for each subsample
        sweep of the bagged method): ``"numpy"``, ``"python"``,
        ``"blocked-shm"``, ``"gpusim"``, ``"gpusim-tiled"``,
        ``"distributed"``.
    memory_budget:
        Byte budget for one fast-grid row block of the ``numpy``,
        ``blocked-shm`` and ``distributed`` backends — an int or a string
        like ``"2GB"``/``"512MiB"``.  ``None`` consults
        ``$REPRO_MEM_BUDGET``; with neither, blocks keep their unbudgeted
        size (see :func:`repro.core.fastgrid.plan_fastgrid_blocks`).  A
        budget too small for one row raises ``REPRO_MEM_BUDGET``.  Part of
        the cache fingerprint, though the CV curve itself is bit-for-bit
        budget-independent.
    cache:
        An :class:`~repro.serving.cache.ArtifactCache`.  The selection is
        keyed by the SHA-256 fingerprint of ``(x, y, grid, kernel,
        method, backend, options)``; on a hit the cached
        :class:`SelectionResult` is returned **without recomputing the
        sweep** — bit-for-bit identical to the cold run, with
        ``diagnostics["cache"] == "hit"``.  On a miss the result (and,
        for the grid method, the CV curve) is stored for next time.
    resilience:
        ``True`` or a :class:`~repro.resilience.engine.ResilienceConfig`
        to run on the resilient execution engine: transient faults are
        retried, device-level failures degrade down the backend fallback
        chain (``gpusim → gpusim-tiled → numpy``; ``blocked-shm`` and
        ``distributed`` fall back to ``numpy``), and the result carries a
        ``.resilience`` report.
    resume:
        Checkpoint path (grid method only): completed row blocks are
        persisted there and a re-run with the same path resumes instead
        of recomputing them.  Implies ``resilience=True``.
    trace:
        ``True`` to record a hierarchical trace of this selection into a
        fresh :class:`~repro.obs.Tracer` and attach its JSON-ready
        snapshot as ``diagnostics["trace"]``; or pass a
        :class:`~repro.obs.Tracer` you hold (for the exporters in
        :mod:`repro.obs`), whose snapshot is attached the same way;
        ``False`` forces tracing off even under an ambient tracer;
        ``None`` (default) inherits the ambient tracer installed by
        :func:`repro.obs.use_tracer` (no-op when none is).  An ambient
        tracer records the selection's spans but its snapshot is *not*
        attached: only an explicit ``trace=`` puts ``"trace"`` in the
        diagnostics, so a long-lived tracer's ring never rides along on
        each result.  Tracing never changes results: curves are
        bit-for-bit identical with tracing on and off.
    options:
        Forwarded to the selector constructor (``refine_rounds``,
        ``workers``, ``n_restarts``, ``dtype``, ...).

    Returns
    -------
    SelectionResult
        With ``.bandwidth``, ``.score``, the evaluated CV curve and
        diagnostics.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import select_bandwidth
    >>> rng = np.random.default_rng(0)
    >>> x = rng.uniform(0, 1, 200)
    >>> y = 0.5 * x + 10 * x**2 + rng.uniform(0, 0.5, 200)
    >>> res = select_bandwidth(x, y, n_bandwidths=50)
    >>> 0 < res.bandwidth <= 1.0
    True
    """
    canonical = _METHOD_ALIASES.get(method.lower())
    if canonical is None:
        known = ", ".join(sorted(set(_METHOD_ALIASES)))
        raise ValidationError(f"unknown method {method!r}; known: {known}")
    x, y = check_paired_samples(x, y)
    if memory_budget is not None:
        # Into the option dict before the cache key is computed, so the
        # fingerprint distinguishes budgeted configurations.
        options["memory_budget"] = memory_budget
    if canonical == "bagged":
        # Make (root seed, r, m) explicit before the fingerprint is
        # computed, so defaulted and spelled-out plans share a cache key.
        from repro.bagged.plan import resolve_plan_options

        options = resolve_plan_options(int(x.shape[0]), options)
    if canonical != "grid" and resume is not None:
        raise ValidationError(
            "resume= (checkpointing) is only supported by the grid method"
        )

    tracer: TracerLike = current_tracer() if trace is None else coerce_tracer(trace)

    cache_key: str | None = None
    if cache is not None:
        cache_key = _selection_cache_key(
            x,
            y,
            canonical=canonical,
            kernel=kernel,
            n_bandwidths=n_bandwidths,
            grid=grid,
            backend=backend,
            options=options,
        )

    with use_tracer(tracer):
        with tracer.span(
            "select_bandwidth",
            method=canonical,
            kernel=kernel,
            backend=backend if canonical in ("grid", "bagged") else canonical,
            n=int(x.shape[0]),
        ) as root:
            warm = (
                cache.get_selection(cache_key)
                if cache is not None and cache_key is not None
                else None
            )
            if warm is not None:
                tracer.counter("selection_cache.hit")
                root.set(cache="hit", h_opt=warm.bandwidth)
                warm.diagnostics["fingerprint"] = cache_key
                result = warm
            else:
                if cache is not None:
                    tracer.counter("selection_cache.miss")
                selector: Any
                if canonical == "grid":
                    selector = GridSearchSelector(
                        kernel,
                        n_bandwidths=n_bandwidths,
                        grid=grid,
                        backend=backend,
                        cache=cache,
                        resilience=resilience,
                        resume=resume,
                        **options,
                    )
                elif canonical == "bagged":
                    from repro.bagged.selector import BaggedCVSelector

                    selector = BaggedCVSelector(
                        kernel,
                        n_bandwidths=n_bandwidths,
                        grid=grid,
                        backend=backend,
                        cache=cache,
                        resilience=resilience,
                        **options,
                    )
                elif canonical == "numeric":
                    selector = NumericalOptimizationSelector(
                        kernel, resilience=resilience, **options
                    )
                else:
                    if resilience is not None:
                        raise ValidationError(
                            "resilience= is not supported by the rule-of-thumb "
                            "method (it has no failure modes to guard)"
                        )
                    selector = RuleOfThumbSelector(kernel, **options)
                result = selector.select(x, y)
                if cache_key is not None:
                    result.diagnostics["fingerprint"] = cache_key
                if cache is not None and cache_key is not None:
                    cache.put_selection(cache_key, result)
                root.set(h_opt=result.bandwidth, backend_used=result.backend)
                if cache is not None:
                    root.set(cache="miss")

    # Attach the snapshot after the cache write so stored selections stay
    # trace-free (a warm hit records its own, much shorter, trace).  Only
    # an explicit trace= attaches it: an ambient tracer (the server's) holds
    # every span since start-up, which would grow each response with uptime.
    if trace is not None and tracer.enabled:
        result.diagnostics["trace"] = tracer.to_payload()
    return result
