"""Kernel density estimation with LSCV and rule-of-thumb bandwidths.

The KDE application of the paper's fast-grid machinery (§II's
"straightforward extension").
"""

from repro.kde.convolution import (
    CONVOLUTION_REGISTRY,
    ConvolutionKernel,
    self_convolution,
)
from repro.kde.density import KernelDensity, kde_evaluate, select_kde_bandwidth
from repro.kde.lscv import (
    lscv_score,
    lscv_scores_fastgrid,
    lscv_scores_grid,
    supports_fast_lscv,
)
from repro.kde.rot import scott_bandwidth, silverman_bandwidth

__all__ = [
    "CONVOLUTION_REGISTRY",
    "ConvolutionKernel",
    "KernelDensity",
    "kde_evaluate",
    "lscv_score",
    "lscv_scores_fastgrid",
    "lscv_scores_grid",
    "scott_bandwidth",
    "select_kde_bandwidth",
    "self_convolution",
    "silverman_bandwidth",
    "supports_fast_lscv",
]
