"""Checkpoint/resume for the O(n² log n) grid search.

The fast grid search decomposes into per-observation squared-residual
sums: the CV curve is ``(Σ_blocks block_sums) / n`` over any partition of
the rows.  That makes the sweep checkpointable at *row-block*
granularity: after each completed block the k-vector of partial sums is
appended to an on-disk checkpoint, and a re-run with ``resume=`` replays
the finished blocks from disk instead of recomputing them.

Integrity is fingerprint-based: the checkpoint stores a SHA-256 over the
inputs that determine the partial sums — ``x``, ``y``, the grid, the
kernel name, the arithmetic dtype, and the block size.  A resume against
different inputs raises :class:`~repro.exceptions.CheckpointError` rather
than silently splicing incompatible sums.  Because the stored values are
the *exact* float64 block sums and the engine always accumulates blocks
in index order, a resumed run is bit-for-bit identical to an unfaulted
one.

Writes are atomic (temp file + ``os.replace``) so a crash mid-write
leaves the previous checkpoint intact — which is the whole point.

The format version is part of the fingerprint and stored beside it.  A
file from another version is never resumed: it is restarted, and
overwritten on the next flush.  Version 2 is the first whose sorted-path
blocks are ranges of positions in the sample sorted by x; a version-1
file's block sums cover ranges of observation indices, so resuming them
would count some observations twice and miss others.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path

import numpy as np

from repro.exceptions import CheckpointError, ValidationError

__all__ = ["SweepCheckpoint", "sweep_fingerprint"]

_FORMAT_VERSION = 2


class _NewerFormatError(CheckpointError):
    """A checkpoint written by a newer version: never restarted over."""


def sweep_fingerprint(
    x: np.ndarray,
    y: np.ndarray,
    bandwidths: np.ndarray,
    kernel_name: str,
    dtype: str,
    block_rows: int,
) -> str:
    """SHA-256 hex digest of everything that determines the block sums."""
    digest = hashlib.sha256()
    digest.update(f"v{_FORMAT_VERSION}|{kernel_name}|{dtype}|{block_rows}|".encode())
    for arr in (x, y, bandwidths):
        a = np.ascontiguousarray(np.asarray(arr, dtype=np.float64))
        digest.update(str(a.shape).encode())
        digest.update(a.tobytes())
    return digest.hexdigest()


class SweepCheckpoint:
    """Resumable store of completed row-block partial sums.

    One instance corresponds to one sweep configuration (fingerprint).
    ``record_block`` persists each completed block; ``get_block`` replays
    one on resume.  ``path=None`` gives an in-memory checkpoint — the
    engine then keeps uniform code paths with zero I/O.
    """

    def __init__(
        self,
        path: str | Path | None,
        *,
        fingerprint: str,
        n: int,
        k: int,
        block_rows: int,
        flush_every: int = 1,
    ):
        if flush_every < 1:
            raise ValidationError(f"flush_every must be >= 1, got {flush_every}")
        self.path = Path(path) if path is not None else None
        self.fingerprint = fingerprint
        self.n = int(n)
        self.k = int(k)
        self.block_rows = int(block_rows)
        self.flush_every = int(flush_every)
        self._blocks: dict[int, np.ndarray] = {}
        self._resumed_starts: frozenset[int] = frozenset()
        self._dirty = 0

    # -- construction ------------------------------------------------------

    @classmethod
    def open(
        cls,
        path: str | Path | None,
        *,
        fingerprint: str,
        n: int,
        k: int,
        block_rows: int,
        flush_every: int = 1,
        on_mismatch: str = "raise",
    ) -> "SweepCheckpoint":
        """Load a matching checkpoint from ``path``, or start a fresh one.

        A file that exists but was written for different inputs raises
        :class:`CheckpointError` — resuming across datasets would corrupt
        the CV sums undetectably.  A file of an older format version is
        restarted whatever ``on_mismatch`` says: it is not user error,
        and its block sums cannot be resumed.  A file of a *newer* format
        version raises whatever ``on_mismatch`` says, so this version
        never overwrites it.  ``on_mismatch="restart"`` instead
        starts a fresh (empty) checkpoint that will overwrite the stale
        file on the next flush — the engine uses this after a backend
        degradation, where the previous backend's checkpoint is simply a
        different sweep, not user error.
        """
        if on_mismatch not in ("raise", "restart"):
            raise ValidationError(
                f"on_mismatch must be 'raise' or 'restart', got {on_mismatch!r}"
            )
        ckpt = cls(
            path,
            fingerprint=fingerprint,
            n=n,
            k=k,
            block_rows=block_rows,
            flush_every=flush_every,
        )
        if path is not None and Path(path).exists():
            try:
                ckpt._load()
            except CheckpointError as exc:
                if on_mismatch == "raise" or isinstance(exc, _NewerFormatError):
                    raise
                ckpt._blocks = {}
                ckpt._resumed_starts = frozenset()
        return ckpt

    def _load(self) -> None:
        assert self.path is not None
        try:
            with np.load(self.path, allow_pickle=False) as payload:
                # Version 1 stored no version of its own.
                version = (
                    int(payload["version"]) if "version" in payload.files else 1
                )
                stored_fp = str(payload["fingerprint"])
                starts = np.asarray(payload["starts"], dtype=np.int64)
                sums = np.asarray(payload["sums"], dtype=np.float64)
        except (OSError, KeyError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint {self.path} is unreadable: {exc}"
            ) from exc
        if version > _FORMAT_VERSION:
            raise _NewerFormatError(
                f"checkpoint {self.path} has format version {version}, newer "
                f"than this version's {_FORMAT_VERSION}; resume it with the "
                "version that wrote it, or point --resume elsewhere"
            )
        if version < _FORMAT_VERSION:
            return
        if stored_fp != self.fingerprint:
            raise CheckpointError(
                f"checkpoint {self.path} belongs to a different sweep "
                f"(stored fingerprint {stored_fp[:12]}..., expected "
                f"{self.fingerprint[:12]}...); delete it or point --resume "
                "elsewhere"
            )
        if sums.ndim != 2 or sums.shape[0] != starts.shape[0] or sums.shape[1] != self.k:
            raise CheckpointError(
                f"checkpoint {self.path} has malformed block sums "
                f"{sums.shape} for k={self.k}"
            )
        self._blocks = {int(s): sums[i].copy() for i, s in enumerate(starts)}
        self._resumed_starts = frozenset(self._blocks)

    # -- queries -----------------------------------------------------------

    @property
    def completed_starts(self) -> list[int]:
        """Sorted start indices of blocks already recorded."""
        return sorted(self._blocks)

    @property
    def resumed_starts(self) -> frozenset[int]:
        """Blocks that were replayed from disk (vs recorded this run)."""
        return self._resumed_starts

    def has_block(self, start: int) -> bool:
        """Whether block ``start`` is already complete."""
        return int(start) in self._blocks

    def get_block(self, start: int) -> np.ndarray:
        """The stored partial sums of block ``start`` (float64 copy)."""
        try:
            return self._blocks[int(start)].copy()
        except KeyError:
            raise CheckpointError(f"block {start} is not checkpointed") from None

    # -- recording ---------------------------------------------------------

    def record_block(self, start: int, sums: np.ndarray) -> None:
        """Persist one completed block (flushes per ``flush_every``)."""
        arr = np.asarray(sums, dtype=np.float64)
        if arr.shape != (self.k,):
            raise ValidationError(
                f"block sums must have shape ({self.k},), got {arr.shape}"
            )
        self._blocks[int(start)] = arr.copy()
        self._dirty += 1
        if self.path is not None and self._dirty >= self.flush_every:
            self.flush()

    def flush(self) -> None:
        """Atomically write the checkpoint file (temp file + rename)."""
        if self.path is None:
            self._dirty = 0
            return
        starts = np.array(sorted(self._blocks), dtype=np.int64)
        sums = (
            np.stack([self._blocks[int(s)] for s in starts])
            if starts.size
            else np.empty((0, self.k), dtype=np.float64)
        )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            prefix=self.path.name + ".", suffix=".tmp", dir=self.path.parent
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez(
                    handle,
                    version=np.int64(_FORMAT_VERSION),
                    fingerprint=np.array(self.fingerprint),
                    starts=starts,
                    sums=sums,
                    n=np.int64(self.n),
                    k=np.int64(self.k),
                    block_rows=np.int64(self.block_rows),
                )
            os.replace(tmp_name, self.path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self._dirty = 0

    def discard(self) -> None:
        """Delete the on-disk checkpoint (after a completed sweep)."""
        self._blocks.clear()
        self._dirty = 0
        if self.path is not None and self.path.exists():
            self.path.unlink()
