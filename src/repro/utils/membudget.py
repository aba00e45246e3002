"""Host-memory budget planner for the fast-grid row blocks.

The paper's own ceiling is memory, not compute: the CUDA program "cannot
exceed n = 20,000" because its n×n global-memory matrices exhaust the
4 GB device.  The host-side analogue of that wall is the m×n distance
slab each vectorised chunk materialises.  This module plans the row-block
size ``B`` from an explicit *byte budget* the same way
:class:`repro.gpusim.memory.GlobalMemory` accounts device allocations:
enumerate the arrays a block keeps alive, charge them against the
budget, and fail loudly (typed ``REPRO_MEM_BUDGET`` error) when no block
size can fit — instead of letting the OS OOM-killer decide.

A sweep's budget comes from an explicit ``memory_budget=`` argument or
the ``REPRO_MEM_BUDGET`` environment variable (:func:`requested_budget`);
with neither, :func:`repro.core.fastgrid.plan_fastgrid_blocks` keeps its
unbudgeted chunk size.  :func:`plan_blocks` takes the resolved byte
count.  Human-friendly strings ("2GB", "512MiB", "64mb") are accepted
everywhere a budget is requested.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

from repro.exceptions import MemoryBudgetError, ValidationError

__all__ = [
    "BlockPlan",
    "MEMORY_BUDGET_ENV",
    "parse_byte_budget",
    "plan_blocks",
    "requested_budget",
    "rows_for_budget",
    "sweep_bytes",
]

#: Environment variable consulted when no explicit budget is given.
MEMORY_BUDGET_ENV = "REPRO_MEM_BUDGET"

#: Binary units; the bare k/M/G forms are treated as binary too (a "2GB"
#: budget that under-provisions by 7% would defeat its purpose).
_UNITS: dict[str, int] = {
    "": 1,
    "b": 1,
    "kb": 1024,
    "kib": 1024,
    "mb": 1024**2,
    "mib": 1024**2,
    "gb": 1024**3,
    "gib": 1024**3,
    "tb": 1024**4,
    "tib": 1024**4,
}

_BUDGET_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*([a-z]*)\s*$")


def parse_byte_budget(value: int | float | str) -> int:
    """Parse a byte budget: an int/float count or a "2GB"-style string."""
    if isinstance(value, bool):  # bool is an int subclass; reject it
        raise ValidationError(f"memory budget must be bytes, got {value!r}")
    if isinstance(value, (int, float)):
        byte_count = int(value)
    else:
        match = _BUDGET_RE.match(str(value).lower())
        if match is None or match.group(2) not in _UNITS:
            raise ValidationError(
                f"unparseable memory budget {value!r}; expected bytes or a "
                "string like '2GB', '512MiB', '64mb'"
            )
        byte_count = int(float(match.group(1)) * _UNITS[match.group(2)])
    if byte_count <= 0:
        raise ValidationError(
            f"memory budget must be positive, got {byte_count} bytes"
        )
    return byte_count


def requested_budget(budget: int | float | str | None = None) -> int | None:
    """Explicit budget, else ``$REPRO_MEM_BUDGET``, else ``None``."""
    if budget is not None:
        return parse_byte_budget(budget)
    env = os.environ.get(MEMORY_BUDGET_ENV)
    if env is not None and env.strip():
        return parse_byte_budget(env)
    return None


def rows_for_budget(
    budget_bytes: int,
    bytes_per_row: int,
    *,
    minimum: int = 1,
    maximum: int | None = None,
) -> int:
    """Largest row count whose working set fits ``budget_bytes``.

    The shared sizing primitive: the blockwise planner and the tiled CUDA
    program's :func:`~repro.cuda_port.tiled.default_tile_rows` both
    funnel through here, so host and device block sizes are chosen by the
    same arithmetic.  Clamped to ``[minimum, maximum]`` — the *caller*
    decides whether falling below ``minimum`` is an error.
    """
    if bytes_per_row <= 0:
        raise ValidationError(
            f"bytes_per_row must be positive, got {bytes_per_row}"
        )
    rows = budget_bytes // bytes_per_row
    if maximum is not None:
        rows = min(rows, maximum)
    return int(max(rows, minimum))


@dataclass(frozen=True)
class BlockPlan:
    """A planned partition of ``range(n)`` into row blocks.

    ``predicted_peak_bytes`` is the planner's model of the sweep's peak
    working set (fixed arrays + one block's temporaries); the blockwise
    test suite holds the real tracemalloc peak to within 1.5× of it.
    ``budget_bytes`` is ``None`` for an unbudgeted plan.
    """

    n: int
    k: int
    block_rows: int
    bytes_per_row: int
    fixed_bytes: int
    budget_bytes: int | None

    @property
    def n_blocks(self) -> int:
        return -(-self.n // self.block_rows)

    @property
    def predicted_peak_bytes(self) -> int:
        return self.fixed_bytes + min(self.block_rows, self.n) * self.bytes_per_row

    def blocks(self) -> list[tuple[int, int]]:
        """The ``(start, stop)`` row ranges, in index order."""
        return [
            (start, min(start + self.block_rows, self.n))
            for start in range(0, self.n, self.block_rows)
        ]

    def to_dict(self) -> dict[str, int | None]:
        """JSON-friendly snapshot (for spans and bench artifacts)."""
        return {
            "n": self.n,
            "k": self.k,
            "block_rows": self.block_rows,
            "n_blocks": self.n_blocks,
            "bytes_per_row": self.bytes_per_row,
            "fixed_bytes": self.fixed_bytes,
            "predicted_peak_bytes": self.predicted_peak_bytes,
            "budget_bytes": self.budget_bytes,
        }


def sweep_bytes(
    n: int,
    k: int,
    *,
    path: str = "binned",
    n_terms: int = 2,
    top_power: int = 2,
    n_octaves: int = 1,
    itemsize: int = 8,
    output_matrix: bool = False,
) -> tuple[int, int]:
    """``(fixed, per_row)``: the fast-grid sweep's working-set model.

    ``fixed`` is what stays resident however the rows are blocked: x and
    y, the grid and the k-length accumulators, plus the n×k contribution
    matrix when ``output_matrix`` is set.  ``per_row`` is one block row's
    temporaries.  Both depend on the window-sum path
    (:func:`repro.core.fastgrid.window_sum_path`):

    * **binned** — each row holds an n-long distance row, the int64
      bin/offset/index triple and one distance-power and weighted-Y row
      per polynomial term: O(n) bytes per row;
    * **sorted** — each row is charged k-length moment gathers, window
      sums and residuals (``8·(top+1) + 4·n_terms + 16`` of them): O(k)
      bytes per row, an upper bound since the gathers live per tile of
      rows.  The price is the sample sorted once and, per grid octave,
      the neighbourhood prefix sums: ``2·top + 1`` rows over at most
      ``4.5·n`` columns (a point sits in at most three neighbourhoods,
      each adds one empty-prefix slot, and padding adds at most 1/8),
      plus four n-long per-position arrays.  Both are charged to
      ``fixed``, together with the transient arrays of building one
      octave.

    Deliberately counts arrays that overlap only briefly — the plan must
    be an upper bound, not a best case.
    """
    fixed = 2 * n * 8 + k * 8 + 4 * k * 8
    if output_matrix:
        fixed += n * k * 8
    if path == "sorted":
        moments = 2 * top_power + 1
        columns = 9 * n // 2
        fixed += 8 * (
            6 * n
            + n_octaves * (moments * columns + 4 * n)
            + max(4, moments) * columns
            + 3 * n
        )
        per_row = (8 * (top_power + 1) + 4 * n_terms + 16) * k * 8
    else:
        per_row = (
            n * (2 * itemsize + 3 * 8)
            + n_terms * n * (itemsize + 8)
            + 16 * k * 8
        )
    return fixed, per_row


def plan_blocks(
    n: int,
    k: int,
    *,
    path: str = "binned",
    n_terms: int = 2,
    top_power: int = 2,
    n_octaves: int = 1,
    itemsize: int = 8,
    budget: int,
    output_matrix: bool = False,
    max_rows: int | None = None,
) -> BlockPlan:
    """Choose a block size B so one block's sweep fits the byte budget.

    Parameters
    ----------
    n, k:
        Sample size and bandwidth-grid size.
    path, n_terms, top_power, n_octaves:
        The window-sum path and the kernel/grid facts its row model
        needs (see :func:`sweep_bytes`; 2 terms and top power 2 for
        Epanechnikov).
    itemsize:
        Bytes per distance element (8 float64, 4 for the float32 path).
    budget:
        Bytes, already resolved (:func:`parse_byte_budget`,
        :func:`requested_budget`).
    output_matrix:
        Charge the n×k float64 per-row contribution matrix against the
        fixed working set (the shared-memory variant materialises it).
    max_rows:
        Optional cap on the chosen block size (e.g. a caller's
        ``block_rows=``).

    Raises
    ------
    MemoryBudgetError
        When the budget cannot hold the fixed arrays plus even a single
        row block (code ``REPRO_MEM_BUDGET``).
    """
    if n <= 0:
        raise ValidationError(f"n must be positive, got {n}")
    if k <= 0:
        raise ValidationError(f"k must be positive, got {k}")
    if n_terms <= 0:
        raise ValidationError(f"n_terms must be positive, got {n_terms}")
    fixed, per_row = sweep_bytes(
        n, k, path=path, n_terms=n_terms, top_power=top_power,
        n_octaves=n_octaves, itemsize=itemsize, output_matrix=output_matrix,
    )
    spare = budget - fixed
    if spare < per_row:
        raise MemoryBudgetError(
            f"memory budget of {budget:,} bytes cannot hold a "
            f"single-row block: fixed working set is {fixed:,} bytes and "
            f"each block row needs {per_row:,} bytes (n={n:,}, k={k}, "
            f"{path} path); raise the budget (memory_budget= / "
            f"${MEMORY_BUDGET_ENV})"
        )
    rows = rows_for_budget(
        spare, per_row, minimum=1, maximum=min(n, max_rows or n)
    )
    return BlockPlan(
        n=n,
        k=k,
        block_rows=rows,
        bytes_per_row=per_row,
        fixed_bytes=fixed,
        budget_bytes=budget,
    )
