"""Row-chunking helpers for memory-bounded O(n²) sweeps.

The leave-one-out distance matrix for n = 20,000 observations holds 4·10⁸
entries — 3.2 GB in float64 — so the vectorised backends never materialise
it whole.  They process blocks of rows instead, exactly the "be easy on the
memory" idiom from the optimisation guide, and the block size is chosen so
a chunk's working set stays within a target byte budget.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError

__all__ = ["chunk_slices", "suggest_chunk_rows"]

#: Default working-set budget per chunk (256 MiB) — comfortably cache- and
#: RAM-friendly on a laptop while keeping per-chunk numpy overhead amortised.
DEFAULT_CHUNK_BYTES: int = 256 * 1024 * 1024


def chunk_slices(total: int, chunk: int) -> list[slice]:
    """Split ``range(total)`` into consecutive slices of length ``chunk``.

    The final slice may be shorter.  ``chunk`` larger than ``total`` yields
    a single slice covering everything.
    """
    if total < 0:
        raise ValidationError(f"total must be non-negative, got {total}")
    if chunk <= 0:
        raise ValidationError(f"chunk must be positive, got {chunk}")
    return [slice(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]


def suggest_chunk_rows(
    n_cols: int,
    *,
    itemsize: int = 8,
    working_arrays: int = 4,
    budget_bytes: int = DEFAULT_CHUNK_BYTES,
    minimum: int = 16,
    maximum: int = 8192,
) -> int:
    """Pick a row-block size so the chunk working set fits ``budget_bytes``.

    Parameters
    ----------
    n_cols:
        Number of columns each chunk row carries (the sample size ``n`` for
        a distance-matrix sweep).
    itemsize:
        Bytes per element (8 for float64, 4 for the float32 GPU path).
    working_arrays:
        How many chunk-shaped temporaries the sweep keeps alive at once
        (distances, sorted distances, sorted Y, cumulative sums, ...).
    budget_bytes:
        Total byte budget for those temporaries.
    minimum, maximum:
        Clamp for the suggestion; the floor keeps tiny inputs from
        degenerating into per-row python overhead.
    """
    if n_cols <= 0:
        raise ValidationError(f"n_cols must be positive, got {n_cols}")
    per_row = max(n_cols * itemsize * working_arrays, 1)
    rows = budget_bytes // per_row
    return int(np.clip(rows, minimum, maximum))
