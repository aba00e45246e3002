"""Pay-for-what-you-use: the no-op tracing path must cost ~nothing.

Two guards:

* a fast microbenchmark bounding the per-call cost of the disabled
  (``NULL_TRACER``) instrumentation sites, scaled against the measured
  paper-configuration sweep to prove the ≤2 % budget holds with orders
  of magnitude to spare;
* a ``perf``-marked end-to-end comparison of the n=2000 / k=50 numpy
  sweep with tracing off vs on.  CI boxes are noisy, so the default
  bound is generous; set ``REPRO_PERF_STRICT=1`` on quiet hardware for
  the tight bound.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core.fastgrid import cv_scores_fastgrid
from repro.obs import Tracer, current_tracer, use_tracer

N, K = 2000, 50


@pytest.fixture(scope="module")
def paper_problem():
    rng = np.random.default_rng(42)
    x = rng.uniform(0.0, 1.0, N)
    y = np.sin(2.0 * np.pi * x) + rng.normal(0.0, 0.3, N)
    grid = np.linspace(0.01, 0.5, K)
    return x, y, grid


def best_of(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


class TestNoopPathMicrobench:
    def test_disabled_span_sites_fit_the_two_percent_budget(
        self, paper_problem
    ):
        """Per-site no-op cost × sites-per-sweep ≪ 2 % of one sweep."""
        x, y, grid = paper_problem

        calls = 20_000
        tracer = current_tracer()  # NULL_TRACER by default
        assert not tracer.enabled

        def hammer():
            for _ in range(calls):
                with tracer.span("site", n=N, k=K):
                    pass

        per_call = best_of(hammer, 3) / calls
        sweep_seconds = best_of(lambda: cv_scores_fastgrid(x, y, grid), 1)
        # The instrumented sweep path crosses a handful of span sites per
        # chunk; 100 is a generous ceiling for any n/k in the paper.
        sites_per_sweep = 100
        budget = 0.02 * sweep_seconds
        assert per_call * sites_per_sweep < budget, (
            f"no-op span cost {per_call:.3e}s x {sites_per_sweep} sites "
            f"exceeds 2% of the {sweep_seconds:.3f}s sweep"
        )


@pytest.mark.perf
class TestEndToEndOverhead:
    def test_sweep_overhead_bounded(self, paper_problem):
        x, y, grid = paper_problem

        def plain():
            cv_scores_fastgrid(x, y, grid)

        def traced():
            with use_tracer(Tracer()):
                cv_scores_fastgrid(x, y, grid)

        # Interleaved (plain, traced, plain, traced), best of 2 per side,
        # so one noisy burst on the host cannot hit both traced runs.
        base = tracked = float("inf")
        for _ in range(2):
            base = min(base, best_of(plain, 1))
            tracked = min(tracked, best_of(traced, 1))
        # Tracing on pays for span bookkeeping plus the Neumaier
        # compensation shadow pass — bounded, but not free.  Tracing is
        # opt-in, so the guard protects "reasonable", not "negligible".
        limit = 1.10 if os.environ.get("REPRO_PERF_STRICT") == "1" else 1.5
        assert tracked <= base * limit, (
            f"traced sweep {tracked:.3f}s vs plain {base:.3f}s "
            f"exceeds {limit:.2f}x"
        )
