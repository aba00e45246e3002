"""Compiled fast-grid hot path (ROADMAP item 1).

The paper's speed story has three rungs — interpreted R, compiled
sequential C, CUDA — and until this package the repo only had the first:
every backend bottomed out in the same interpreted/numpy sort +
prefix-sum kernel.  :mod:`repro.compiled` adds the second rung: a
numba-jitted scalar-loop implementation of the per-block window sums,
**byte-identical to numpy's binned path in float64**, with a float32
fast path under a documented tolerance contract, selected once at import
by a clean capability probe (``REPRO_COMPILED=0`` is the escape hatch)
and falling back silently to the numpy reference when numba is absent.

Layout::

    capability.py   one-shot probe: env gate + injectable numba import
    kernels.py      dual-use kernel source (plain python OR njit-ed)
    api.py          warmup / window_sums / row-contribution wrappers
    backend.py      registers the `compiled` + `blocked-compiled` backends

Everything downstream — blockwise planning, resilience
(``compiled -> numpy`` degradation on ``REPRO_COMPILED_UNAVAILABLE``),
checkpoints, serving fingerprints, obs spans — composes unchanged,
because the engine swap happens inside
:func:`repro.core.fastgrid.fastgrid_row_contributions` and the float64
bits do not move from the binned path's (the sorted path, which large
numpy-engine sweeps take instead, is a separate fingerprint family).
"""

from repro.compiled.api import (
    compiled_block_sums,
    compiled_row_contributions,
    cv_scores_compiled,
    implementation,
    jit_available,
    refresh,
    require_available,
    warmup,
    window_sums,
)
from repro.compiled.capability import COMPILED_ENV, Capability, capability

__all__ = [
    "COMPILED_ENV",
    "Capability",
    "capability",
    "compiled_block_sums",
    "compiled_row_contributions",
    "cv_scores_compiled",
    "implementation",
    "jit_available",
    "refresh",
    "require_available",
    "warmup",
    "window_sums",
]
