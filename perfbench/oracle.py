"""Dense-definition references and the answer checks built on them.

A reference curve is :func:`repro.core.loocv.cv_scores_dense_grid`: the
O(k·n²) evaluation of ``CV_lc(h)`` straight from its definition,
independent of the sorted sweep the workloads run.  It costs about a
minute per n = 8,000 dataset, so it is computed once per pool dataset,
outside every timed run, and committed under ``perfbench/oracle/``.

Rebuild the references (about 15 minutes on one core)::

    PYTHONPATH=src:. python3 -m perfbench.oracle
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

from perfbench import workloads

ORACLE_DIR = Path(__file__).resolve().parent / "oracle"
#: Relative tolerance on the CV value at the selected index.  Curves from
#: different summation orders agree to ~1e-11; a wrong window or weight
#: moves the curve by far more.
SCORE_RTOL = 1e-6
#: Relative tolerance on a ``/predict`` estimate against the direct formula.
PREDICT_RTOL = 1e-9


def reference_argmin(scores: np.ndarray) -> int:
    """Grid argmin under the library's documented rule.

    Leading exact zeros (every leave-one-out window empty) are skipped;
    an all-zero curve selects the largest bandwidth.
    """
    scores = np.asarray(scores, dtype=np.float64)
    positive = np.flatnonzero(scores > 0.0)
    if positive.size == 0:
        return int(scores.shape[0] - 1)
    first = int(positive[0])
    return first + int(np.argmin(scores[first:]))


def exact_grid() -> np.ndarray:
    lo, hi, k = workloads.INTERIOR_GRID
    return np.linspace(lo, hi, k)


def served_grid(x: np.ndarray) -> np.ndarray:
    """The server's default grid for ``n_bandwidths=SERVED_K``."""
    domain = float(x.max() - x.min())
    return np.linspace(domain / workloads.SERVED_K, domain, workloads.SERVED_K)


def check_selection(
    h_opt: float,
    score: float | None,
    grid: np.ndarray,
    reference: np.ndarray,
) -> str | None:
    """``None`` if a selection passes, else the reason it fails.

    It passes when ``h_opt`` is a grid point, that point is the
    reference's argmin and not a grid endpoint, and ``score`` (when
    given) matches the reference curve there within :data:`SCORE_RTOL`.
    """
    grid = np.asarray(grid, dtype=np.float64)
    hits = np.flatnonzero(np.isclose(grid, h_opt, rtol=1e-12, atol=0.0))
    if hits.size != 1:
        return f"h_opt={h_opt!r} is not a grid point"
    index = int(hits[0])
    if index in (0, grid.shape[0] - 1):
        return f"h_opt={h_opt!r} sits on the grid boundary (index {index})"
    expected = reference_argmin(reference)
    if index != expected:
        return f"grid index {index} != reference index {expected}"
    if score is not None and not np.isclose(
        score, reference[index], rtol=SCORE_RTOL, atol=0.0
    ):
        return f"CV {score!r} != reference {reference[index]!r} at index {index}"
    return None


def check_interior(h_opt: float, grid: np.ndarray) -> str | None:
    """``None`` if ``h_opt`` lies strictly inside the grid's range."""
    if not (float(grid[0]) < h_opt < float(grid[-1])) or not np.isfinite(h_opt):
        return f"h_opt={h_opt!r} is not strictly inside [{grid[0]}, {grid[-1]}]"
    return None


def nw_reference(
    x: np.ndarray, y: np.ndarray, h: float, at: np.ndarray
) -> np.ndarray:
    """Epanechnikov Nadaraya–Watson estimates from the definition."""
    u = (np.asarray(at, dtype=np.float64)[:, None] - x[None, :]) / h
    w = np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)
    return (w @ y) / w.sum(axis=1)


def check_prediction(
    estimates: Any, x: np.ndarray, y: np.ndarray, h: float, at: np.ndarray
) -> str | None:
    """``None`` if served estimates match the direct formula."""
    expected = nw_reference(x, y, h, at)
    if not isinstance(estimates, list) or len(estimates) != expected.shape[0]:
        return f"expected {expected.shape[0]} estimates, got {estimates!r:.80}"
    got = np.array([np.nan if v is None else v for v in estimates], dtype=float)
    if not np.allclose(got, expected, rtol=PREDICT_RTOL, atol=0.0):
        return f"estimates {got.tolist()} != reference {expected.tolist()}"
    return None


# -- committed references -----------------------------------------------------


def _path(workload: str) -> Path:
    return ORACLE_DIR / f"{workload}.json"


def load(workload: str) -> dict[int, np.ndarray]:
    """Pool seed -> reference CV curve."""
    raw = json.loads(_path(workload).read_text())
    return {int(seed): np.array(entry["scores"]) for seed, entry in raw["curves"].items()}


def build(workload: str) -> None:
    """Compute and write the dense references of one workload's pool."""
    from repro.core.loocv import cv_scores_dense_grid

    if workload == "exact-8k":
        seeds, n = workloads.EXACT_POOL, workloads.EXACT_N
    else:
        seeds, n = workloads.SERVED_POOL, workloads.SERVED_N
    curves: dict[str, Any] = {}
    for seed in seeds:
        x, y = workloads.pool_dataset(seed, n)
        grid = exact_grid() if workload == "exact-8k" else served_grid(x)
        start = time.perf_counter()
        scores = cv_scores_dense_grid(x, y, grid, "epanechnikov")
        index = reference_argmin(scores)
        curves[str(seed)] = {
            "argmin": index,
            "h_opt": float(grid[index]),
            "scores": scores.tolist(),
        }
        print(
            f"{workload} seed {seed}: index {index}/{grid.shape[0]} "
            f"h={grid[index]:.6g} in {time.perf_counter() - start:.1f}s",
            flush=True,
        )
    doc = {
        "reference": "repro.core.loocv.cv_scores_dense_grid, epanechnikov",
        "dgp": f"paper_dgp(n={n}, seed=<pool seed>)",
        "grid": (
            "linspace(0.002, 0.1, 50)"
            if workload == "exact-8k"
            else f"linspace(domain/{workloads.SERVED_K}, domain, {workloads.SERVED_K})"
        ),
        "curves": curves,
    }
    _path(workload).write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    for name in sys.argv[1:] or ["served-mix", "exact-8k"]:
        build(name)
