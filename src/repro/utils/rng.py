"""Centralised seeded-RNG derivation.

Every stochastic component in the library — bagged subsample draws,
fault-injection Bernoulli streams, chaos transports —
derives its generator here, from one of two disciplines:

* :func:`spawn_seeds` — ``count`` independent child sequences of a root
  seed via ``SeedSequence(root, spawn_key=(i,))``.  Child ``i`` is a pure
  function of ``(root, i)``: workers can consume their streams in any
  order, a retried unit re-derives the identical stream, and adding more
  children never perturbs existing ones.  This is the contract bagged
  subsampling's bit-for-bit reproducibility rests on.
* :func:`derive_seed_sequence` — a sequence keyed by a root seed plus
  string/int labels (``derive_seed_sequence(seed, "pool.worker")``).
  String labels are folded in by ``crc32``, **not** ``hash()`` — Python
  salts ``hash()`` per interpreter, which would make the stream
  irreproducible across runs.  Fault injection keys its streams this
  way, so the Bernoulli sequence at each site is a pure function of the
  seed and the event order.

Ad-hoc ``np.random.default_rng(...)`` constructions outside this module
are what repro-lint rule DET003 exists to catch.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.exceptions import ValidationError

__all__ = [
    "derive_rng",
    "derive_seed_sequence",
    "spawn_rngs",
    "spawn_seed",
    "spawn_seeds",
]


def _entropy_word(part: int | str) -> int:
    """One 32-bit entropy word from a label (crc32 for strings)."""
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8")) & 0xFFFFFFFF
    return int(part)


def derive_seed_sequence(root: int, *parts: int | str) -> np.random.SeedSequence:
    """A :class:`~numpy.random.SeedSequence` keyed by ``(root, *parts)``.

    Bit-compatible with the historical ad-hoc constructions it replaced
    (``SeedSequence([seed, crc32(site)])`` in the fault injector), so
    chaos schedules recorded before the consolidation replay unchanged.
    """
    return np.random.SeedSequence(
        [int(root), *(_entropy_word(part) for part in parts)]
    )


def derive_rng(root: int, *parts: int | str) -> np.random.Generator:
    """A fresh generator positioned at the start of the derived stream."""
    return np.random.default_rng(derive_seed_sequence(root, *parts))


def spawn_seed(root: int, index: int) -> np.random.SeedSequence:
    """Child ``index`` of ``root`` — a pure function of ``(root, index)``.

    Uses the numpy-sanctioned ``spawn_key`` mechanism, so children are
    statistically independent of each other *and* of any
    :func:`derive_seed_sequence` stream sharing the root.
    """
    if index < 0:
        raise ValidationError(f"spawn index must be >= 0, got {index}")
    return np.random.SeedSequence(int(root), spawn_key=(int(index),))


def spawn_seeds(root: int, count: int) -> tuple[np.random.SeedSequence, ...]:
    """``count`` independent child sequences of ``root``, in index order.

    ``spawn_seeds(root, count)[i]`` equals ``spawn_seed(root, i)`` — the
    tuple is a convenience view over the per-index derivation, not a
    stateful spawn, so consuming the children out of order (or re-deriving
    one for a retry) cannot change any draw.
    """
    if count < 0:
        raise ValidationError(f"spawn count must be >= 0, got {count}")
    return tuple(spawn_seed(root, i) for i in range(count))


def spawn_rngs(root: int, count: int) -> tuple[np.random.Generator, ...]:
    """Generators over :func:`spawn_seeds`, one per child stream."""
    return tuple(np.random.default_rng(seq) for seq in spawn_seeds(root, count))
