"""No silent answer from an all-empty CV curve.

Below the smallest spacing of x every leave-one-out window is empty,
``M(X_i)`` zeroes every term and every CV score is exactly 0.  Constant
y with non-empty windows also scores 0 everywhere, and there any
bandwidth is a perfect fit.  The selector tells the two apart from the
sample: when no pair ``i != j`` has positive kernel weight at the
largest grid bandwidth it raises ``REPRO_EMPTY_WINDOW`` (HTTP 400 on
``/select``, a non-zero exit from ``repro select``); otherwise it keeps
the largest bandwidth.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro import select_bandwidth
from repro.core.fastgrid import window_sum_path
from repro.core.grid import BandwidthGrid
from repro.exceptions import EmptyWindowError, ValidationError
from repro.kernels import fast_grid_kernels

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Far below the spacing of any of the samples here.
EMPTY_GRID = [1e-9, 2e-9, 1e-8]
#: Sample sizes that put a three-point grid on each window-sum path.
PATHS = {"sorted": 2000, "binned": 250}
BACKENDS = ("numpy", "blocked-shm", "python")
KERNELS = tuple(fast_grid_kernels())


def _uniform_sample(n: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, n)
    return x, np.sin(6.0 * x) + rng.normal(0.0, 0.2, n)


def _raises_empty_window(**kwargs) -> EmptyWindowError:
    with pytest.raises(EmptyWindowError) as info:
        select_bandwidth(**kwargs)
    assert info.value.code == "REPRO_EMPTY_WINDOW"
    assert isinstance(info.value, ValidationError)
    return info.value


class TestAllEmptyWindowsRaise:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_grid_method(self, kernel, path, backend):
        n = PATHS[path]
        assert window_sum_path(n, len(EMPTY_GRID), kernel) == path
        x, y = _uniform_sample(n)
        _raises_empty_window(
            x=x, y=y, kernel=kernel, grid=EMPTY_GRID, backend=backend
        )

    @pytest.mark.parametrize("path", PATHS)
    def test_resilient_engine(self, path):
        x, y = _uniform_sample(PATHS[path])
        _raises_empty_window(
            x=x, y=y, grid=EMPTY_GRID, backend="blocked-shm", resilience=True
        )

    @pytest.mark.parametrize("backend", ("numpy", "blocked-shm"))
    @pytest.mark.parametrize(("path", "m"), [("sorted", 600), ("binned", 250)])
    def test_bagged_method(self, path, m, backend):
        # Each subsample sweeps the grid inflated by (n/m)^(1/5), still
        # far below the subsample's spacing.
        assert window_sum_path(m, len(EMPTY_GRID), "epanechnikov") == path
        x, y = _uniform_sample(2000)
        _raises_empty_window(
            x=x, y=y, method="bagged", grid=EMPTY_GRID, backend=backend,
            subsamples=3, subsample_size=m,
        )

    @pytest.mark.parametrize(
        ("kernel", "empty"), [("epanechnikov", True), ("uniform", False)]
    )
    def test_the_support_edge_is_decided_by_the_kernel_weight(
        self, kernel, empty
    ):
        # Neighbours exactly one largest bandwidth apart: Epanechnikov
        # weighs them 0 there, uniform 1/2.
        x = np.arange(300) / 256.0
        y = np.sin(x)
        grid = [1 / 1024, 1 / 512, 1 / 256]
        if empty:
            _raises_empty_window(x=x, y=y, kernel=kernel, grid=grid)
        else:
            res = select_bandwidth(x, y, kernel=kernel, grid=grid)
            assert res.bandwidth == grid[-1]
            assert res.scores[-1] > 0.0


class TestAllZeroButNotEmpty:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("path", PATHS)
    def test_constant_y_keeps_the_largest_bandwidth(self, path, backend):
        x, _ = _uniform_sample(PATHS[path])
        grid = [0.01, 0.02, 0.05]
        res = select_bandwidth(x, np.zeros_like(x), grid=grid, backend=backend)
        np.testing.assert_array_equal(res.scores, 0.0)
        assert res.bandwidth == grid[-1]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("path", PATHS)
    def test_tied_x_counts_as_non_empty(self, path, backend):
        # Each x twice with one y: the twin fills every window, so every
        # residual and score is exactly 0, but no window is empty.
        base = np.linspace(0.0, 1.0, PATHS[path] // 2)
        x = np.repeat(base, 2)
        y = np.repeat((np.arange(base.size) % 5).astype(np.float64), 2)
        assert window_sum_path(x.size, len(EMPTY_GRID), "epanechnikov") == path
        res = select_bandwidth(x, y, grid=EMPTY_GRID, backend=backend)
        np.testing.assert_array_equal(res.scores, 0.0)
        assert res.bandwidth == EMPTY_GRID[-1]


def _empty_default_grid(cls, x, k):
    return cls(np.asarray(EMPTY_GRID))


class TestSurfaces:
    def test_select_route_answers_400(self, monkeypatch):
        from repro.serving import ServingApp, ServingConfig

        # /select takes no grid; the paper-default one is emptied here.
        monkeypatch.setattr(
            BandwidthGrid, "for_sample", classmethod(_empty_default_grid)
        )
        x, y = _uniform_sample(300)

        async def main():
            app = ServingApp(ServingConfig(port=0))
            app.startup()
            status, payload = await app.handle(
                "POST", "/select", {"x": x.tolist(), "y": y.tolist()}
            )
            snap = app.metrics.snapshot()
            await app.shutdown()
            return status, payload, snap

        status, payload, snap = asyncio.run(main())
        assert status == 400
        assert payload["code"] == "REPRO_EMPTY_WINDOW"
        assert snap["http_errors_total"] == 0

    def test_cli_select_exits_non_zero(self):
        code = f"""
            import sys
            import numpy as np
            from repro.cli import main
            from repro.core.grid import BandwidthGrid

            BandwidthGrid.for_sample = classmethod(
                lambda cls, x, k: cls(np.asarray({EMPTY_GRID!r}))
            )
            sys.exit(main(["select", "--n", "300", "--json"]))
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(code)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode != 0
        assert "REPRO_EMPTY_WINDOW" in proc.stderr
        assert proc.stdout == ""
