"""Bagged subsampled-CV bandwidth selection for huge ``n``.

The estimator of Barreiro-Ures, Cao & Francisco-Fernández
(arXiv:2105.04134) with the paper's fast sorted grid search as its inner
loop: ``r`` seeded subsamples of size ``m ≪ n`` are swept over the
full-sample grid inflated by ``(n/m)^(1/5)``, each argmin maps back to
an exact full-grid point, and the votes aggregate in log space.  Cost
O(r·m²·log k) instead of O(n²·log k); results bit-for-bit reproducible
from ``(root_seed, r, m, grid)`` across every strict-fold backend.

Quickstart::

    from repro import select_bandwidth
    result = select_bandwidth(x, y, method="bagged", subsamples=20)
    result.bandwidth          # rescaled bagged h_opt
    result.diagnostics["bagged"]["subsamples"]  # per-subsample curves
"""

from repro.bagged.aggregate import SubsampleOutcome, aggregate_bandwidths
from repro.bagged.plan import (
    DEFAULT_SUBSAMPLES,
    SubsamplePlan,
    default_subsample_size,
    default_subsamples,
    plan_subsamples,
    resolve_plan_options,
)
from repro.bagged.selector import BaggedCVSelector

__all__ = [
    "BaggedCVSelector",
    "DEFAULT_SUBSAMPLES",
    "SubsampleOutcome",
    "SubsamplePlan",
    "aggregate_bandwidths",
    "default_subsample_size",
    "default_subsamples",
    "plan_subsamples",
    "resolve_plan_options",
]
