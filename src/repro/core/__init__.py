"""Core algorithms: CV objective, fast sorted grid search, selectors."""

from repro.core.api import select_bandwidth
from repro.core.backends import get_backend, list_backends, register_backend
from repro.core.fastgrid import (
    cv_scores_fastgrid,
    cv_scores_fastgrid_python,
)
from repro.core.grid import (
    MAX_CONSTANT_MEMORY_BANDWIDTHS,
    BandwidthGrid,
    default_grid,
)
from repro.core.loocv import (
    cv_score,
    cv_score_reference,
    cv_scores_dense_grid,
    loo_estimates,
)
from repro.core.result import SelectionResult
from repro.core.scale import bandwidth_to_scale, robust_spread, scale_to_bandwidth
from repro.core.selectors import (
    BandwidthSelector,
    GridSearchSelector,
    NumericalOptimizationSelector,
    RuleOfThumbSelector,
    rule_of_thumb_bandwidth,
)

__all__ = [
    "MAX_CONSTANT_MEMORY_BANDWIDTHS",
    "BandwidthGrid",
    "BandwidthSelector",
    "GridSearchSelector",
    "NumericalOptimizationSelector",
    "RuleOfThumbSelector",
    "SelectionResult",
    "bandwidth_to_scale",
    "cv_score",
    "robust_spread",
    "scale_to_bandwidth",
    "cv_score_reference",
    "cv_scores_dense_grid",
    "cv_scores_fastgrid",
    "cv_scores_fastgrid_python",
    "default_grid",
    "get_backend",
    "list_backends",
    "loo_estimates",
    "register_backend",
    "rule_of_thumb_bandwidth",
    "select_bandwidth",
]
