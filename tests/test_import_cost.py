"""Cold-start guard: scipy stays off every path a grid selection takes.

scipy costs a cold process more start-up time than an n = 8,000 grid
selection costs in total, and only the numerical optimiser
(``method="numeric"``) uses it.  Each check runs in a fresh interpreter,
since the test session itself has long since imported scipy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON line last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_grid_bagged_served_and_worker_paths_never_load_scipy():
    out = run_fresh(
        """
        import json, sys

        import numpy as np

        import repro, repro.cli, repro.serving.server
        from repro import NadarayaWatson, select_bandwidth
        from repro.core.fastgrid import window_sum_path
        from repro.serving import ServingApp, ServingConfig

        loaded = {"import": "scipy" in sys.modules}
        rng = np.random.default_rng(0)
        x = rng.uniform(0.0, 1.0, 600)
        y = np.sin(6.0 * x) + rng.normal(0.0, 0.2, 600)
        grid = select_bandwidth(x, y, n_bandwidths=50)
        loaded["grid"] = "scipy" in sys.modules
        bagged = select_bandwidth(
            x, y, method="bagged", subsamples=4, subsample_size=200, root_seed=1
        )
        loaded["bagged"] = "scipy" in sys.modules
        model = NadarayaWatson(bandwidth=grid.bandwidth).fit(x, y)
        model.predict(np.array([0.25, 0.5, 0.75]))
        loaded["predict"] = "scipy" in sys.modules
        ServingApp(ServingConfig(port=0))
        loaded["serving"] = "scipy" in sys.modules
        print(json.dumps({
            "loaded": loaded,
            "path": window_sum_path(600, 50, "epanechnikov"),
            "h": [grid.bandwidth, bagged.bandwidth],
        }))
        """
    )
    assert out["path"] == "sorted"
    assert all(h > 0 for h in out["h"])
    assert out["loaded"] == {
        "import": False,
        "grid": False,
        "bagged": False,
        "predict": False,
        "serving": False,
    }


# Values of the eager-import code, so loading scipy on first use is shown
# to change no result.
NUMERIC = (0.08955550661990688, 0.08810558638712637, 70)


def test_numeric_optimiser_loads_scipy_on_demand_with_unchanged_values():
    out = run_fresh(
        """
        import json, sys

        import numpy as np

        from repro import select_bandwidth

        rng = np.random.default_rng(7)
        x = rng.uniform(0.0, 1.0, 200)
        y = np.sin(2 * np.pi * x) + rng.normal(0.0, 0.3, 200)
        before = "scipy" in sys.modules
        r = select_bandwidth(x, y, method="numeric", n_restarts=2, seed=0)
        print(json.dumps({
            "before": before,
            "after": "scipy" in sys.modules,
            "values": [r.bandwidth, r.score, r.n_evaluations],
        }))
        """
    )
    assert out["before"] is False
    assert out["after"] is True
    np.testing.assert_allclose(out["values"], NUMERIC, rtol=1e-12)
