"""Bandwidth grids.

The paper's grid convention (§IV): an evenly spaced array of ``k``
candidate bandwidths whose maximum defaults to the *domain* of the
regressor (``max(X) - min(X)``) and whose minimum defaults to that domain
divided by ``k``.  For the paper's ``X ~ U(0,1)`` data that gives the grid
``{1/k, 2/k, ..., 1}``.

§IV-A also describes the refinement workflow for when 2,048 grid points
(the constant-memory cap) are not precise enough: re-run the search on a
progressively narrower range around the incumbent optimum —
:meth:`BandwidthGrid.refine_around` implements exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.exceptions import BandwidthGridError
from repro.utils.validation import as_float_array, check_positive_int, ensure_bandwidths

__all__ = [
    "BandwidthGrid",
    "GridLike",
    "as_bandwidth_grid",
    "default_grid",
    "ensure_bandwidth_grid",
    "MAX_CONSTANT_MEMORY_BANDWIDTHS",
]

#: Paper §IV-A: the typical GPU constant-memory cache working set is 8 KB,
#: which holds 2,048 float32 bandwidths — the hard cap on grid size for the
#: CUDA program.  CPU backends accept larger grids; the GPU backend raises.
MAX_CONSTANT_MEMORY_BANDWIDTHS: int = 2048


@dataclass(frozen=True)
class BandwidthGrid:
    """An increasing array of candidate bandwidths.

    Construct directly from values, or use :meth:`evenly_spaced` /
    :meth:`for_sample` for the paper's conventions.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", ensure_bandwidths(self.values))

    # -- constructors ------------------------------------------------------

    @classmethod
    def evenly_spaced(cls, minimum: float, maximum: float, k: int) -> "BandwidthGrid":
        """``k`` evenly spaced bandwidths from ``minimum`` to ``maximum``."""
        k = check_positive_int(k, name="k")
        if not (0.0 < minimum <= maximum):
            raise BandwidthGridError(
                f"need 0 < minimum <= maximum, got [{minimum}, {maximum}]"
            )
        if k == 1:
            return cls(np.array([maximum], dtype=float))
        if minimum == maximum:
            raise BandwidthGridError(
                "minimum == maximum but k > 1 would duplicate grid points"
            )
        return cls(np.linspace(minimum, maximum, k))

    @classmethod
    def for_sample(cls, x: np.ndarray, k: int) -> "BandwidthGrid":
        """The paper's default grid for a regressor sample.

        Maximum = domain of ``x``; minimum = domain / k; ``k`` points.
        Equivalent to ``{domain·1/k, ..., domain·k/k}``.
        """
        k = check_positive_int(k, name="k")
        x = as_float_array(x, name="x")
        domain = float(x.max() - x.min())
        if domain <= 0.0:
            raise BandwidthGridError(
                "x has zero domain (all values identical); no bandwidth grid exists"
            )
        return cls.evenly_spaced(domain / k, domain, k)

    # -- protocol ----------------------------------------------------------

    def __len__(self) -> int:
        return int(self.values.shape[0])

    def __iter__(self) -> Iterator[float]:
        return iter(self.values)

    def __getitem__(self, index: int) -> float:
        return float(self.values[index])

    @property
    def minimum(self) -> float:
        """Smallest candidate bandwidth."""
        return float(self.values[0])

    @property
    def maximum(self) -> float:
        """Largest candidate bandwidth."""
        return float(self.values[-1])

    @property
    def spacing(self) -> float:
        """Grid step (0 for a single-point grid)."""
        if len(self) < 2:
            return 0.0
        return float(self.values[1] - self.values[0])

    def fits_constant_memory(self) -> bool:
        """Whether this grid fits the 8 KB constant-memory working set."""
        return len(self) <= MAX_CONSTANT_MEMORY_BANDWIDTHS

    def refine_around(self, h: float, *, shrink: float = 10.0) -> "BandwidthGrid":
        """A new grid of the same size, centred on ``h``, ``shrink``× narrower.

        Implements the paper's §IV-A suggestion: "run the optimization code
        multiple times with progressively smaller ranges of possible
        bandwidths" when more precision is wanted than one grid provides.
        The refined range is clipped below at one original spacing over
        ``shrink`` so every grid point stays strictly positive.
        """
        if shrink <= 1.0:
            raise BandwidthGridError(f"shrink must exceed 1, got {shrink}")
        if not self.minimum <= h <= self.maximum:
            raise BandwidthGridError(
                f"h={h} lies outside the current grid [{self.minimum}, {self.maximum}]"
            )
        half = (self.maximum - self.minimum) / (2.0 * shrink)
        if half <= 0.0:
            return BandwidthGrid(np.array([h]))
        lo = max(h - half, self.spacing / shrink if self.spacing else h / shrink)
        hi = h + half
        return BandwidthGrid.evenly_spaced(lo, hi, len(self))


def default_grid(x: np.ndarray, k: int = 50) -> BandwidthGrid:
    """Shorthand for :meth:`BandwidthGrid.for_sample` with the paper's k=50."""
    return BandwidthGrid.for_sample(x, k)


#: What an explicit ``grid=`` may be: a :class:`BandwidthGrid` or any
#: array-like of bandwidths.
GridLike = BandwidthGrid | Sequence[float] | np.ndarray


def as_bandwidth_grid(grid: GridLike | None) -> BandwidthGrid | None:
    """``grid`` as a :class:`BandwidthGrid`; ``None`` (no explicit grid) stays.

    Lets selectors take any array-like of bandwidths (a list, a tuple, an
    ndarray) where a :class:`BandwidthGrid` is expected, with the same
    validation: a non-increasing or non-positive grid raises
    ``REPRO_BANDWIDTH_GRID`` and an empty one ``REPRO_DATA_SHAPE``.
    """
    if grid is None or isinstance(grid, BandwidthGrid):
        return grid
    return BandwidthGrid(np.asarray(grid))


def ensure_bandwidth_grid(bandwidths: "np.ndarray | BandwidthGrid") -> np.ndarray:
    """Validated contiguous float64 grid array from any grid-like input.

    The one entry point for sweep backends taking raw bandwidth input:
    ``ensure_bandwidths`` already returns a contiguous float64 array, so
    no further ``astype`` is needed (or wanted — a same-dtype cast is a
    dead full-array copy on every sweep).
    """
    if isinstance(bandwidths, BandwidthGrid):
        return bandwidths.values
    return ensure_bandwidths(bandwidths)
