"""Aggregation of per-subsample bandwidths.

arXiv:2105.04134 aggregates the ``r`` rescaled subsample bandwidths in
log space — bandwidths live on a multiplicative scale, so the mean of
``log h`` (a geometric mean) is the natural centre.  It is computed over
the subsample-index-ordered array, so the aggregate is a pure function
of the (deterministic) per-subsample results: retries and backend choice
cannot move it by a ULP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.exceptions import ValidationError

__all__ = ["SubsampleOutcome", "aggregate_bandwidths"]


@dataclass(frozen=True)
class SubsampleOutcome:
    """One subsample sweep's contribution to the bagged selection.

    ``bandwidth`` is at subsample scale (the argmin on the inflated
    grid); ``rescaled_bandwidth`` is the same grid index mapped back to
    the full-sample grid — an exact grid point, not a float round-trip.
    """

    index: int
    argmin: int
    bandwidth: float
    rescaled_bandwidth: float
    score: float
    attempts: int = 1
    bandwidths: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.float64)
    )
    scores: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.float64))

    def to_diagnostics(self) -> dict[str, Any]:
        """JSON-ready record for ``SelectionResult.diagnostics``."""
        record: dict[str, Any] = {
            "index": self.index,
            "argmin": self.argmin,
            "bandwidth": self.bandwidth,
            "rescaled_bandwidth": self.rescaled_bandwidth,
            "score": self.score,
            "attempts": self.attempts,
        }
        if self.scores.size:
            record["curve"] = {
                "bandwidths": np.asarray(self.bandwidths, dtype=np.float64).tolist(),
                "scores": np.asarray(self.scores, dtype=np.float64).tolist(),
            }
        return record


def aggregate_bandwidths(values: Sequence[float] | np.ndarray) -> float:
    """Collapse per-subsample bandwidths into one (log-space mean)."""
    h = np.asarray(values, dtype=np.float64)
    if h.ndim != 1 or h.size == 0:
        raise ValidationError("need a non-empty 1-D array of bandwidths")
    if not (np.isfinite(h).all() and (h > 0.0).all()):
        raise ValidationError("bandwidths must be positive and finite")
    if bool(np.all(h == h[0])):
        # Unanimous votes pass through exactly: exp(mean(log h)) is a
        # lossy round-trip, and with grid-matched rescaling every vote is
        # an exact grid point the caller may compare against (the m = n
        # degenerate case must reduce to the exact sweep bit-for-bit).
        return float(h[0])
    return float(np.exp(np.mean(np.log(h))))
