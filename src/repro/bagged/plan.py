"""Seeded subsample planning.

A :class:`SubsamplePlan` fixes everything stochastic about a bagged
selection *up front*: ``r`` draws of size ``m`` without replacement,
each drawn from its own child stream of one root seed
(:func:`repro.utils.rng.spawn_seed`).  Draw ``i`` is a pure function of
``(root_seed, i, n, m)`` — independent of execution order, of which
backend runs the sweep, and of how many times a faulted subsample is
retried.  That per-index determinism is the whole bit-for-bit story:
re-dispatching subsample 7 after a worker crash re-derives the identical
index set, so the recomputed curve is byte-identical to the one the
crash destroyed.

Default sizes follow arXiv:2105.04134's guidance: the subsample size
grows polynomially, ``m ∼ n^0.7`` (their experiments use ``m = n^a``
with ``a ≈ 0.6–0.8``), and a modest number of subsamples suffices
because bagging averages the CV noise down by ``1/√r``.  ``m`` is
additionally capped so one subsample sweep stays O(seconds) — the whole
point of the subsystem is that cost is O(r·m²·log k) instead of
O(n²·log k).

The plan also carries the rescaling between the two scales.  The
CV-optimal bandwidth of univariate regression shrinks like
``h_opt(n) ∼ C·n^(−1/5)``, so a full-sample grid inflated by
``(n/m)^(1/5)`` (:attr:`SubsamplePlan.scale_factor`) is the image, at
subsample scale, of the candidates the exact sweep would search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.rng import spawn_seed, spawn_seeds
from repro.utils.validation import check_positive_int

__all__ = [
    "DEFAULT_SUBSAMPLES",
    "MAX_DEFAULT_SUBSAMPLE_SIZE",
    "MIN_SUBSAMPLE_SIZE",
    "RATE_EXPONENT",
    "SubsamplePlan",
    "default_subsample_size",
    "default_subsamples",
    "plan_subsamples",
    "resolve_plan_options",
]

#: Default number of subsamples r.  arXiv:2105.04134 finds small ensembles
#: (tens, not hundreds) already track full-sample CV closely; the marginal
#: variance reduction beyond ~20 is paid linearly in sweep time.
DEFAULT_SUBSAMPLES: int = 20

#: Cap on the default m = ceil(n^0.7).  Set when one m = 5000 binned sweep
#: took 3.9 s (a benchmark since retired); on the sort-once path it takes
#: 0.06–0.09 s (paper DGP, k = 50, 2-core x86-64 host).
MAX_DEFAULT_SUBSAMPLE_SIZE: int = 5000

#: Floor on the default m: below ~100 points the subsample CV curve is too
#: noisy for the rescaling rate to transfer.
MIN_SUBSAMPLE_SIZE: int = 100

#: Univariate CV rate: ``h_opt ∼ n^(−1/5)``.
RATE_EXPONENT: float = 0.2


def default_subsample_size(n: int) -> int:
    """The default ``m`` for a sample of size ``n`` (``∼ n^0.7``, capped)."""
    n = check_positive_int(n, name="n")
    m = int(np.ceil(float(n) ** 0.7))
    m = min(m, MAX_DEFAULT_SUBSAMPLE_SIZE)
    m = max(m, MIN_SUBSAMPLE_SIZE)
    return min(m, n)


def default_subsamples(n: int, m: int) -> int:
    """The default ``r``: one draw suffices when m = n (nothing to bag)."""
    return 1 if m >= n else DEFAULT_SUBSAMPLES


@dataclass(frozen=True)
class SubsamplePlan:
    """``r`` seeded draws of size ``m`` from ``n`` observations.

    The plan is pure data: it holds no arrays, only the recipe.  Index
    sets are re-derived on demand from ``(root_seed, i)``, so a retry
    replays its draw.
    """

    n: int
    subsample_size: int
    n_subsamples: int
    root_seed: int

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValidationError(f"need n >= 3 observations, got {self.n}")
        if not 3 <= self.subsample_size <= self.n:
            raise ValidationError(
                f"subsample_size must be in [3, n={self.n}], "
                f"got {self.subsample_size}"
            )
        if self.n_subsamples < 1:
            raise ValidationError(
                f"n_subsamples must be >= 1, got {self.n_subsamples}"
            )

    # -- derivations -------------------------------------------------------

    @property
    def scale_factor(self) -> float:
        """``(n/m)^(1/5)`` — grid inflation from full-sample to subsample
        scale (1 at ``m = n``, above 1 otherwise)."""
        return float((self.n / self.subsample_size) ** RATE_EXPONENT)

    def seeds(self) -> tuple[np.random.SeedSequence, ...]:
        """Per-subsample child seed sequences, in index order."""
        return spawn_seeds(self.root_seed, self.n_subsamples)

    def indices(self, i: int) -> np.ndarray:
        """The ``i``-th index set: sorted, without replacement, replayable.

        Sorting keeps the subsample in global row order, which both aids
        locality in the sweep and makes the draw canonical — any code
        path that re-derives it gets the identical array.
        """
        if not 0 <= i < self.n_subsamples:
            raise ValidationError(
                f"subsample index {i} out of range [0, {self.n_subsamples})"
            )
        rng = np.random.default_rng(spawn_seed(self.root_seed, i))
        drawn = rng.choice(self.n, size=self.subsample_size, replace=False)
        return np.sort(drawn)

    def take(
        self, i: int, x: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ``i``-th subsample of a paired dataset."""
        if x.shape[0] != self.n:
            raise ValidationError(
                f"plan was made for n={self.n} but x has {x.shape[0]} rows"
            )
        idx = self.indices(i)
        return x[idx], y[idx]

    def to_dict(self) -> dict[str, int]:
        """JSON-ready recipe (diagnostics / fingerprints)."""
        return {
            "n": self.n,
            "subsample_size": self.subsample_size,
            "n_subsamples": self.n_subsamples,
            "root_seed": self.root_seed,
        }


def plan_subsamples(
    n: int,
    *,
    subsamples: int | None = None,
    subsample_size: int | None = None,
    root_seed: int = 0,
) -> SubsamplePlan:
    """Build a plan, resolving ``None`` sizes to the paper-guided defaults."""
    n = check_positive_int(n, name="n")
    if subsample_size is None:
        m = default_subsample_size(n)
    else:
        m = check_positive_int(subsample_size, name="subsample_size")
        if m > n:
            raise ValidationError(
                f"subsample_size={m} exceeds the sample size n={n}"
            )
    r = default_subsamples(n, m) if subsamples is None else subsamples
    return SubsamplePlan(
        n=n,
        subsample_size=int(m),
        n_subsamples=check_positive_int(r, name="subsamples"),
        root_seed=int(root_seed),
    )


def resolve_plan_options(n: int, options: dict[str, Any]) -> dict[str, Any]:
    """Options with ``subsamples``/``subsample_size``/``root_seed`` made
    explicit.

    :func:`repro.core.api.select_bandwidth` normalises the option dict
    through here *before* computing the selection fingerprint, so the
    serving-cache key always contains the concrete ``(root seed, r, m)``
    — two calls that resolve to the same plan hit the same cache entry
    whether the caller spelled the defaults out or not.
    """
    plan = plan_subsamples(
        n,
        subsamples=options.get("subsamples"),
        subsample_size=options.get("subsample_size"),
        root_seed=int(options.get("root_seed", 0)),
    )
    resolved = dict(options)
    resolved["subsamples"] = plan.n_subsamples
    resolved["subsample_size"] = plan.subsample_size
    resolved["root_seed"] = plan.root_seed
    return resolved
