"""Pinned bagged answers: the selection bits must not move.

``bagged_answers.json`` holds 28 bagged selections of one
``paper_dgp(1500, seed=11)`` sample over ``linspace(0.004, 0.2, 40)``:
four kernels (epanechnikov, uniform, tricube, gaussian) × ``numpy`` and
``blocked-shm`` with two workers × three plans (r = 5 with m = 300,
r = 5 with m = 600, r = 1 with m = n), plus four resilient selections,
three of them under a fault schedule.  Each case pins ``float.hex`` of
``h_opt`` and of every vote, and the sha256 of ``result.scores`` and of
each subsample's CV curve.  The table was captured when bagged
selections could still fan subsamples over a process pool, an
``aggregate=`` and a ``rate=`` option; every answer of the one remaining
path must reproduce it.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro import select_bandwidth
from repro.data import paper_dgp
from repro.resilience import FaultInjector, FaultSpec, inject_faults
from repro.resilience.engine import ResilienceConfig

TABLE = json.loads((Path(__file__).parent / "bagged_answers.json").read_text())


@pytest.fixture(autouse=True)
def no_shm_litter():
    yield
    if os.path.isdir("/dev/shm"):
        assert glob.glob("/dev/shm/repro-shm-*") == []


@pytest.fixture(scope="module")
def sample():
    return paper_dgp(TABLE["n"], seed=TABLE["seed"])


def _sha(values) -> str:
    array = np.ascontiguousarray(values, dtype=np.float64)
    return hashlib.sha256(array.tobytes()).hexdigest()


def _case_id(case: dict) -> str:
    r, m = case["plan"]
    faults = case["faults"]
    tail = "" if faults is None else "-resilient" + "".join(
        f"-{f['site']}:{f['kind']}" for f in faults
    )
    return f"{case['kernel']}-{case['backend']['backend']}-r{r}-m{m}{tail}"


@pytest.mark.parametrize("case", TABLE["cases"], ids=_case_id)
def test_case_reproduces_its_pinned_answer(sample, case) -> None:
    spacing, lo, hi, k = TABLE["grid"]
    r, m = case["plan"]
    options = dict(
        method="bagged", kernel=case["kernel"], grid=getattr(np, spacing)(lo, hi, k),
        subsamples=r, subsample_size=m, root_seed=TABLE["root_seed"],
        **case["backend"],
    )
    faults = case["faults"]
    if faults is None:
        res = select_bandwidth(sample.x, sample.y, **options)
    else:
        specs = [FaultSpec(**{**f, "at": tuple(f["at"])}) for f in faults]
        config = ResilienceConfig(max_retries=4, sleep=lambda _seconds: None)
        with inject_faults(FaultInjector(specs, seed=0)):
            res = select_bandwidth(sample.x, sample.y, resilience=config, **options)
        assert res.resilience.clean == (not faults)
    got = {
        "h_opt": float.hex(res.bandwidth),
        "votes": [float.hex(float(v)) for v in res.bandwidths],
        "scores": _sha(res.scores),
        "curves": [
            _sha(record["curve"]["scores"])
            for record in res.diagnostics["bagged"]["subsamples"]
        ],
    }
    assert got == case["want"]


def test_the_table_covers_every_kernel_backend_and_plan() -> None:
    plain = [c for c in TABLE["cases"] if c["faults"] is None]
    combos = {
        (c["kernel"], c["backend"]["backend"], tuple(c["plan"])) for c in plain
    }
    assert len(combos) == len(plain) == 24
    assert any(c["faults"] for c in TABLE["cases"])
