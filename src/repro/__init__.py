"""repro — optimal bandwidth selection for kernel regression.

A full reproduction of Rohlfs & Zahran, *"Optimal Bandwidth Selection for
Kernel Regression Using a Fast Grid Search and a GPU"* (IPPS 2017):

* the least-squares cross-validation objective ``CV_lc(h)`` for the
  Nadaraya–Watson estimator (:mod:`repro.core.loocv`);
* the paper's **fast sorted grid search** — the whole bandwidth grid in
  O(n² log n) (:mod:`repro.core.fastgrid`);
* the paper's four evaluation programs: an R-``np``-style numerical
  optimiser, its multicore variant, the sequential fast grid, and the
  CUDA program running on a faithful **GPU simulator**
  (:mod:`repro.gpusim`, :mod:`repro.cuda_port`);
* the Nadaraya–Watson estimator the bandwidth feeds
  (:mod:`repro.regression`), and the KDE/LSCV extension
  (:mod:`repro.kde`);
* a benchmark harness regenerating every table and figure of the
  paper's evaluation (:mod:`repro.bench`).

Quickstart::

    import numpy as np
    from repro import select_bandwidth, NadarayaWatson

    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, 2000)
    y = 0.5 * x + 10 * x**2 + rng.uniform(0, 0.5, 2000)

    result = select_bandwidth(x, y)            # fast sorted grid search
    model = NadarayaWatson(bandwidth=result.bandwidth).fit(x, y)
    curve = model.predict(np.linspace(0, 1, 101))
"""

from repro.core import (
    BandwidthGrid,
    GridSearchSelector,
    NumericalOptimizationSelector,
    RuleOfThumbSelector,
    SelectionResult,
    select_bandwidth,
)
from repro.bagged import BaggedCVSelector
from repro.kde import KernelDensity, select_kde_bandwidth
from repro.kernels import get_kernel, list_kernels
from repro.regression import NadarayaWatson

__version__ = "1.0.0"

__all__ = [
    "BaggedCVSelector",
    "BandwidthGrid",
    "GridSearchSelector",
    "KernelDensity",
    "NadarayaWatson",
    "NumericalOptimizationSelector",
    "RuleOfThumbSelector",
    "SelectionResult",
    "__version__",
    "get_kernel",
    "list_kernels",
    "select_bandwidth",
    "select_kde_bandwidth",
]
