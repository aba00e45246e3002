"""The window-sum path rule agrees with its committed measurement.

``BENCH_crossover.json`` (written by ``scripts/crossover.py``) times one
sweep on each path per (grid, n, k, kernel) cell.  Wherever one path won
by at least the file's ``min_ratio`` on every grid measured at a shape,
:func:`window_sum_path` must choose it there; shapes closer than that,
or whose winner depends on the grid (which the rule does not see), are
ties the rule may settle either way.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

from repro.core.fastgrid import window_sum_path
from repro.kde.convolution import self_convolution
from repro.kernels import fast_grid_kernels, get_kernel

ROOT = Path(__file__).parents[2]
ARTIFACT = ROOT / "BENCH_crossover.json"
CONVOLUTION = "epanechnikov-conv"


def _kernel(name: str):
    if name == CONVOLUTION:
        return self_convolution(get_kernel("epanechnikov"))
    return get_kernel(name)


@pytest.fixture(scope="module")
def artifact() -> dict:
    return json.loads(ARTIFACT.read_text())


def test_the_rule_picks_every_clear_winner(artifact):
    # The rule sees (n, k, kernel, dtype), not the grid: a path wins a
    # shape when it wins on every grid measured there.
    floor = artifact["min_ratio"]
    shapes = defaultdict(list)
    for cell in artifact["cells"]:
        kern = _kernel(cell["kernel"])
        assert [t.power for t in kern.poly_terms] == cell["powers"]
        shapes[cell["n"], cell["k"], cell["kernel"]].append(
            cell["binned_s"] / cell["sorted_s"]
        )
    wrong = []
    for (n, k, name), ratios in shapes.items():
        if min(ratios) >= floor:
            winner = "sorted"
        elif max(ratios) <= 1 / floor:
            winner = "binned"
        else:
            continue
        chosen = window_sum_path(n, k, _kernel(name))
        if chosen != winner:
            wrong.append((n, k, name, ratios, chosen))
    assert not wrong, wrong


def test_the_artifact_covers_every_kernel_and_grid(artifact):
    cells = artifact["cells"]
    assert {c["kernel"] for c in cells} == {*fast_grid_kernels(), CONVOLUTION}
    assert {c["grid"] for c in cells} == {"interior", "paper"}
    # Both paths win somewhere, and the curves agree on the argmin.
    ratios = [c["binned_s"] / c["sorted_s"] for c in cells]
    assert min(ratios) <= 1 / artifact["min_ratio"] <= artifact["min_ratio"] <= max(ratios)
    assert all(c["same_argmin"] for c in cells)


def test_quick_run_writes_the_same_schema(artifact, tmp_path):
    out = tmp_path / "crossover.json"
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "crossover.py"), "--quick",
         "--out", str(out)],
        check=True, capture_output=True, timeout=120,
    )
    quick = json.loads(out.read_text())
    assert quick.keys() == artifact.keys()
    assert quick["schema"] == artifact["schema"]
    assert quick["cells"]
    assert {frozenset(c) for c in quick["cells"]} == {frozenset(artifact["cells"][0])}
