"""Result types returned by bandwidth selectors."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.exceptions import SelectionError

__all__ = ["SelectionResult"]


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of one bandwidth selection.

    Attributes
    ----------
    bandwidth:
        The selected (CV-minimising) bandwidth.
    score:
        ``CV_lc`` at the selected bandwidth.
    method:
        Selector identifier, e.g. ``"grid-search"``/``"numerical-optimization"``.
    backend:
        Execution backend, e.g. ``"numpy"``, ``"python"``, ``"multicore"``,
        ``"gpusim"``.
    kernel:
        Kernel name used in the objective.
    n_observations:
        Sample size.
    bandwidths, scores:
        The evaluated grid and its CV curve (grid selectors), or the
        sequence of evaluated points (numerical optimisers).  May be empty
        for rule-of-thumb selectors.
    n_evaluations:
        Number of ``CV_lc`` evaluations performed.  Grid selectors report
        the grid size; numerical optimisers report actual objective calls
        (their cost driver).
    wall_seconds:
        Wall-clock duration of the selection.
    converged:
        False when a numerical optimiser hit its iteration cap or any
        restart failed; grid searches always converge.
    diagnostics:
        Free-form extras (restart trajectories, simulated GPU time,
        worker counts, refinement history...).
    resilience:
        The :class:`~repro.resilience.degrade.ResilienceReport` of the
        run when the selector ran with ``resilience=`` enabled (recorded
        faults, retries, backend degradations); ``None`` otherwise.
    """

    bandwidth: float
    score: float
    method: str
    backend: str
    kernel: str
    n_observations: int
    bandwidths: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.float64)
    )
    scores: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.float64)
    )
    n_evaluations: int = 0
    wall_seconds: float = 0.0
    converged: bool = True
    diagnostics: dict[str, Any] = field(default_factory=dict)
    resilience: Any | None = None

    def __post_init__(self) -> None:
        if not np.isfinite(self.bandwidth) or self.bandwidth <= 0.0:
            raise SelectionError(
                f"selected bandwidth must be positive and finite, got {self.bandwidth}"
            )

    @property
    def cv_curve(self) -> tuple[np.ndarray, np.ndarray]:
        """``(bandwidths, scores)`` pair for plotting the CV curve."""
        return self.bandwidths, self.scores

    def is_boundary_minimum(self, *, rtol: float = 1e-9) -> bool:
        """True when the optimum sits on the edge of the evaluated grid.

        A boundary minimum suggests the grid range should be widened (or,
        at the lower edge, that the data favour less smoothing than the
        grid allows) — the natural trigger for the §IV-A refinement loop.
        The edges are ``diagnostics["grid_minimum"/"grid_maximum"]`` when
        the selector recorded them (a bagged result's ``bandwidths`` are
        per-subsample votes, not the grid), else the evaluated bandwidths.
        """
        lo = self.diagnostics.get("grid_minimum")
        hi = self.diagnostics.get("grid_maximum")
        if lo is None or hi is None:
            if self.bandwidths.size < 2:
                return False
            lo, hi = float(self.bandwidths.min()), float(self.bandwidths.max())
        return bool(
            np.isclose(self.bandwidth, lo, rtol=rtol)
            or np.isclose(self.bandwidth, hi, rtol=rtol)
        )

    def to_dict(self, *, include_curve: bool = True) -> dict[str, Any]:
        """JSON-ready dict (CLI ``--json``, the serving layer, artifacts).

        Arrays become lists; the resilience report is included via its
        own ``to_dict`` when present.  ``include_curve=False`` drops the
        evaluated grid/scores for compact payloads.
        """

        def scrub(value: Any) -> Any:
            if isinstance(value, dict):
                return {str(k): scrub(v) for k, v in value.items()}
            if isinstance(value, (list, tuple)):
                return [scrub(v) for v in value]
            if isinstance(value, np.ndarray):
                return value.tolist()
            if isinstance(value, np.generic):
                return value.item()
            return value

        out: dict[str, Any] = {
            "bandwidth": self.bandwidth,
            "score": self.score,
            "method": self.method,
            "backend": self.backend,
            "kernel": self.kernel,
            "n_observations": self.n_observations,
            "n_evaluations": self.n_evaluations,
            "wall_seconds": self.wall_seconds,
            "converged": self.converged,
            "diagnostics": scrub(self.diagnostics),
        }
        if include_curve:
            out["bandwidths"] = self.bandwidths.tolist()
            out["scores"] = self.scores.tolist()
        if self.resilience is not None and hasattr(self.resilience, "to_dict"):
            out["resilience"] = self.resilience.to_dict()
        else:
            out["resilience"] = None
        return out

    def summary(self) -> str:
        """One-paragraph human-readable description."""
        lines = [
            f"bandwidth selection via {self.method} [{self.backend}]",
            f"  kernel        : {self.kernel}",
            f"  n             : {self.n_observations}",
            f"  h*            : {self.bandwidth:.6g}",
            f"  CV(h*)        : {self.score:.6g}",
            f"  evaluations   : {self.n_evaluations}",
            f"  wall time (s) : {self.wall_seconds:.4f}",
            f"  converged     : {self.converged}",
        ]
        if self.diagnostics:
            keys = ", ".join(sorted(self.diagnostics))
            lines.append(f"  diagnostics   : {keys}")
        if self.resilience is not None:
            rep = self.resilience
            status = "degraded" if getattr(rep, "degraded", False) else "clean"
            lines.append(
                f"  resilience    : {status} "
                f"({len(getattr(rep, 'faults', []))} faults absorbed, "
                f"{getattr(rep, 'retries', 0)} retries)"
            )
        return "\n".join(lines)
