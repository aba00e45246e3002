"""Host-memory budgets for the fast-grid row blocks.

The paper's own ceiling is memory, not compute: the CUDA program "cannot
exceed n = 20,000" because its n×n global-memory matrices exhaust the
4 GB device.  The host sweeps instead take an explicit *byte budget*
and fail loudly (typed ``REPRO_MEM_BUDGET`` error) when no block size
can fit it — instead of letting the OS OOM-killer decide.  The working-set
model and the fit itself live with the arrays they count, in
:func:`repro.core.fastgrid.plan_fastgrid_blocks`; this module holds the
budget's spelling and the plan it returns.

A sweep's budget comes from an explicit ``memory_budget=`` argument or
the ``REPRO_MEM_BUDGET`` environment variable (:func:`requested_budget`);
with neither, the planner keeps its unbudgeted chunk size.
Human-friendly strings ("2GB", "512MiB", "64mb") are accepted everywhere
a budget is requested.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

from repro.exceptions import ValidationError

__all__ = [
    "BlockPlan",
    "MEMORY_BUDGET_ENV",
    "parse_byte_budget",
    "requested_budget",
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
