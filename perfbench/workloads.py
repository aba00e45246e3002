"""Workload definitions and seeded input generation.

Every input comes from the paper's DGP (:func:`repro.data.generators.paper_dgp`).
The run seed decides which inputs a run sees and in what order; the
program under test receives only the generated arrays.

``exact-8k`` and ``served-mix`` draw their datasets from fixed pools whose
dense-definition references are committed in ``perfbench/oracle/`` (one
reference costs about a minute at n = 8,000, far more than a run may
spend).  The run seed permutes the pool, and for ``served-mix`` also draws
the request sequence and the prediction points.  ``bagged-100k`` needs no
reference, so its dataset is drawn from the run seed directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EXACT_N = 8_000
#: ``BandwidthGrid.evenly_spaced(0.002, 0.1, 50)``: the CV optimum of the
#: paper DGP lies inside it at n = 8,000 and at n = 100,000.
INTERIOR_GRID = (0.002, 0.1, 50)
EXACT_POOL = tuple(range(101, 109))

BAGGED_N = 100_000

SERVED_N = 2_000
SERVED_K = 500
SERVED_POOL = tuple(range(201, 209))
#: Requests per served-mix phase.  Fixed, not timed: every ``/select``
#: response embeds the server's whole trace ring buffer, so responses grow
#: with the number of requests served and runs compare only at equal counts.
SERVED_REQUESTS = 200
#: One closed-loop connection.  With two, the server's single CPU serves
#: both requests' JSON and selection work interleaved, the closed loop locks
#: into a fast or a slow phase for a whole session, and ``/select`` latency
#: spread past its bound from run to run.
SERVED_CONNECTIONS = 1
PREDICT_SHARE = 0.5
PREDICT_POINTS = 8
ZIPF_EXPONENT = 1.1
#: The model ``/predict`` traffic targets, registered by the first ``/select``.
MODEL_NAME = "bench"


def pool_dataset(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """One pool dataset, ``paper_dgp(n, seed=seed)``."""
    from repro.data.generators import paper_dgp

    sample = paper_dgp(n, seed=seed)
    return sample.x, sample.y


def exact_order(run_seed: int) -> list[int]:
    """Pool seeds in the order an exact-8k run selects them (cycled)."""
    rng = np.random.default_rng([run_seed, 8_000])
    return [EXACT_POOL[i] for i in rng.permutation(len(EXACT_POOL))]


def bagged_dataset(run_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The bagged-100k dataset of a run: ``paper_dgp`` seeded by the run."""
    from repro.data.generators import paper_dgp

    sample = paper_dgp(BAGGED_N, seed=np.random.default_rng([run_seed, 100_000]))
    return sample.x, sample.y


@dataclass(frozen=True)
class Request:
    """One served-mix request: a ``/select`` of a pool dataset or a ``/predict``."""

    rid: int
    path: str
    dataset: int | None = None
    at: tuple[float, ...] = ()


def served_plan(run_seed: int, count: int = SERVED_REQUESTS) -> tuple[int, list[Request]]:
    """The registration dataset and the request sequence of a served-mix run.

    Pool datasets get Zipf ranks from a seeded permutation; the rank-1
    dataset registers the model that ``/predict`` traffic targets.  Every
    plan has the same number of ``/predict`` calls and selects every pool
    dataset at least once, so every session runs the same number of cold
    sweeps; the seed decides the order, the repeats and the points.
    """
    rng = np.random.default_rng([run_seed, 2_000])
    ranked = [SERVED_POOL[i] for i in rng.permutation(len(SERVED_POOL))]
    weights = 1.0 / np.arange(1, len(ranked) + 1) ** ZIPF_EXPONENT
    weights /= weights.sum()
    n_predict = round(count * PREDICT_SHARE)
    repeats = rng.choice(len(ranked), size=count - n_predict - len(ranked), p=weights)
    picks = ranked + [ranked[int(i)] for i in repeats]
    picks = [picks[int(i)] for i in rng.permutation(len(picks))]
    requests: list[Request] = []
    for rid, predict in enumerate(rng.permutation(count) < n_predict):
        if predict:
            at = rng.uniform(0.05, 0.95, PREDICT_POINTS)
            requests.append(Request(rid, "/predict", at=tuple(float(v) for v in at)))
        else:
            requests.append(Request(rid, "/select", dataset=picks.pop()))
    return ranked[0], requests
