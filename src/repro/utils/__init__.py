"""Shared utilities: validation, timing, chunking, float comparison."""

from repro.utils.chunking import chunk_slices, suggest_chunk_rows
from repro.utils.numeric import FLOAT_ATOL, FLOAT_RTOL, allclose, is_zero, isclose
from repro.utils.rng import (
    derive_rng,
    derive_seed_sequence,
    spawn_rngs,
    spawn_seed,
    spawn_seeds,
)
from repro.utils.timer import Stopwatch, TimingRecord, time_callable
from repro.utils.validation import (
    as_float_array,
    check_paired_samples,
    check_positive_int,
    ensure_bandwidths,
)

__all__ = [
    "FLOAT_ATOL",
    "FLOAT_RTOL",
    "Stopwatch",
    "TimingRecord",
    "allclose",
    "as_float_array",
    "check_paired_samples",
    "check_positive_int",
    "chunk_slices",
    "derive_rng",
    "derive_seed_sequence",
    "ensure_bandwidths",
    "is_zero",
    "isclose",
    "spawn_rngs",
    "spawn_seed",
    "spawn_seeds",
    "suggest_chunk_rows",
    "time_callable",
]
