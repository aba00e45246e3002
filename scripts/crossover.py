"""Measure the window-sum crossover: binned vs sorted fast-grid sweeps.

Times one fast-grid sweep on each window-sum path over sample sizes n,
grid sizes k, every fast-grid kernel and the Epanechnikov kernel's
self-convolution K̄ (the second sum of KDE LSCV), on two grids:

* ``interior`` — ``linspace(0.002, 0.1, k)``, whose CV optimum lies
  inside the grid for the paper's DGP;
* ``paper`` — the paper's default ``linspace(domain/k, domain, k)``
  (:meth:`repro.core.grid.BandwidthGrid.for_sample`), the grid a served
  ``/select`` sweeps.

Regression kernels time :func:`repro.core.fastgrid.cv_scores_fastgrid`;
K̄ times the LSCV pair sums it feeds (``repro.kde.lscv._pair_sums``).
Each cell records both times (best of three after one warm-up call; one
with ``--quick``), their ratio and whether both curves have the same
argmin; the log also prints the path
:func:`repro.core.fastgrid.window_sum_path` takes there, and
``tests/core/test_crossover.py`` holds that rule to the file.
Inputs are ``paper_dgp(n, seed=1)``.

Run from the repo root (about 10 minutes on a 2-core host)::

    python scripts/crossover.py                 # writes BENCH_crossover.json
    python scripts/crossover.py --quick --out /tmp/crossover.json
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import sys
import time
from collections.abc import Callable, Iterator
from pathlib import Path
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# Runnable straight from a checkout: put src/ on the path when the
# package is not installed.
sys.path.insert(0, str(ROOT / "src"))

from repro.core import fastgrid  # noqa: E402
from repro.core.grid import BandwidthGrid  # noqa: E402
from repro.data.generators import paper_dgp  # noqa: E402
from repro.kde import lscv  # noqa: E402
from repro.kde.convolution import self_convolution  # noqa: E402
from repro.kernels import fast_grid_kernels, get_kernel  # noqa: E402

SCHEMA = 1
#: A path "wins" a cell when the other takes at least this many times as long.
MIN_RATIO = 1.25
SHAPES = (
    (200, 20), (300, 30), (300, 100), (500, 25), (500, 50), (500, 125),
    (1000, 50), (1000, 100), (1000, 250), (1000, 500), (1000, 1000),
    (2000, 100), (2000, 250), (2000, 500), (2000, 1000),
    (4000, 250), (4000, 500), (4000, 1000),
)
QUICK_SHAPES = ((500, 25), (1000, 250))
GRIDS = ("interior", "paper")
#: The cell name of the Epanechnikov self-convolution.
CONVOLUTION = "epanechnikov-conv"


def _kernel(name: str):
    if name == CONVOLUTION:
        return self_convolution(get_kernel("epanechnikov"))
    return get_kernel(name)


def _grid(kind: str, x: np.ndarray, k: int) -> np.ndarray:
    if kind == "interior":
        return np.linspace(0.002, 0.1, k)
    return BandwidthGrid.for_sample(x, k).values


@contextlib.contextmanager
def _forced(path: str) -> Iterator[None]:
    """Run every sweep inside on ``path``, whatever the rule says."""
    choose = lambda *args, **kwargs: path  # noqa: E731
    with mock.patch.object(fastgrid, "window_sum_path", choose), \
            mock.patch.object(lscv, "window_sum_path", choose):
        yield


def _sweep(name: str, x: np.ndarray, y: np.ndarray, grid: np.ndarray) -> Callable:
    kern = _kernel(name)
    if name == CONVOLUTION:
        return lambda: lscv._pair_sums(x, grid, kern)
    return lambda: fastgrid.cv_scores_fastgrid(x, y, grid, kern)


def _best(run: Callable, repeats: int) -> tuple[float, np.ndarray]:
    out = run()  # warm-up
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        out = run()
        times.append(time.perf_counter() - start)
    return min(times), out


def measure(shapes, kernels, repeats: int, log=print) -> list[dict]:
    cells = []
    for n, k in shapes:
        sample = paper_dgp(n, seed=1)
        x, y = sample.x, sample.y
        for kind in GRIDS:
            grid = _grid(kind, x, k)
            for name in kernels:
                run = _sweep(name, x, y, grid)
                timed = {}
                for path in ("binned", "sorted"):
                    with _forced(path):
                        timed[path] = _best(run, repeats)
                (t_bin, c_bin), (t_sort, c_sort) = timed["binned"], timed["sorted"]
                kern = _kernel(name)
                cell = {
                    "grid": kind,
                    "n": n,
                    "k": k,
                    "kernel": name,
                    "powers": [t.power for t in kern.poly_terms],
                    "binned_s": round(t_bin, 5),
                    "sorted_s": round(t_sort, 5),
                    "ratio": round(t_bin / t_sort, 3),
                    "same_argmin": bool(np.argmin(c_bin) == np.argmin(c_sort)),
                }
                cells.append(cell)
                log(
                    f"{kind:8s} n={n:5d} k={k:5d} {name:18s} "
                    f"binned {t_bin:.4f}s sorted {t_sort:.4f}s "
                    f"ratio {cell['ratio']:.2f}, rule: "
                    f"{fastgrid.window_sum_path(n, k, kern)}"
                )
    return cells


def _dumps(result: dict) -> str:
    """``result`` as JSON with one cell per line."""
    head = json.dumps({k: v for k, v in result.items() if k != "cells"}, indent=1)
    cells = ",\n".join("  " + json.dumps(cell) for cell in result["cells"])
    return head[:-2] + ',\n "cells": [\n' + cells + "\n ]\n}\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_crossover.json")
    parser.add_argument(
        "--quick", action="store_true",
        help=f"two shapes, one repeat: {QUICK_SHAPES}",
    )
    args = parser.parse_args(argv)
    shapes = QUICK_SHAPES if args.quick else SHAPES
    repeats = 1 if args.quick else 3
    kernels = [*sorted(fast_grid_kernels()), CONVOLUTION]
    started = time.perf_counter()
    cells = measure(shapes, kernels, repeats)
    result = {
        "schema": SCHEMA,
        "command": "python scripts/crossover.py"
        + (" --quick" if args.quick else ""),
        "host": {
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "inputs": "paper_dgp(n, seed=1)",
        "repeats": repeats,
        "min_ratio": MIN_RATIO,
        "cells": cells,
    }
    args.out.write_text(_dumps(result))
    print(f"wrote {len(cells)} cells to {args.out} "
          f"in {time.perf_counter() - started:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
