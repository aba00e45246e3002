"""Fingerprint-keyed two-tier artifact cache for bandwidth selection.

Every expensive artifact in the pipeline is a pure function of the
inputs that produced it: the CV score curve is determined by
``(x, y, grid, kernel, dtype)``; the selected bandwidth additionally by
the method and its options; a row block's partial sums by the block
bounds.  The cache therefore keys everything on the SHA-256 dataset
fingerprint already used by the checkpoint layer
(:func:`repro.resilience.checkpoint.sweep_fingerprint`) — a hit is
*bit-for-bit* equivalent to recomputing, because the stored values are
the exact float64 outputs of a previous run with identical inputs.

Two tiers:

* **memory** — an LRU of deserialised artifacts under a byte budget, so
  a hot serving loop never touches disk;
* **disk** — one file per artifact (``<kind>-<fingerprint>.npz``, atomic
  temp-file + ``os.replace`` writes, mirroring the checkpoint store),
  surviving process restarts and shared between replicas on one host.

Three artifact kinds map onto the paper's cost model:

==============  ========================================================
``selection``   a full :class:`~repro.core.result.SelectionResult` —
                skips the whole selection (sweep + argmin)
``curve``       the k-vector CV score curve for one exact grid — skips
                the O(n² log n) sweep but re-runs the (cheap) argmin
``blocks``      per-row-block partial sums — the unit the resilient
                engine checkpoints; lets a partially warm sweep recompute
                only missing blocks
==============  ========================================================

Reads never raise on corrupt entries: an unreadable or
fingerprint-mismatched file counts as a miss (and is evicted), because a
cache must degrade to "recompute" — never to "fail the request".
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.exceptions import CacheError, ValidationError
from repro.core.result import SelectionResult
from repro.resilience.checkpoint import sweep_fingerprint

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "curve_fingerprint",
    "selection_fingerprint",
    "sweep_path",
]

#: v2: keys carry the window-sum path (``sorted``/``binned``), so entries
#: written before the sorted path existed never serve a sorted-path sweep.
_FORMAT_VERSION = 2

#: Artifact namespaces (file prefixes / stats keys).
_KINDS = ("selection", "curve", "blocks")


# -- fingerprints -----------------------------------------------------------

#: Backends whose sweeps may take the sorted window-sum path
#: (:func:`repro.core.fastgrid.window_sum_path`); every other backend —
#: python, gpusim* — keeps the binned bits.
_SORTED_CAPABLE: frozenset[str] = frozenset(
    {"numpy", "blocked-shm", "distributed"}
)


def sweep_path(
    n: int,
    k: int,
    kernel_name: str,
    *,
    backend: str = "numpy",
    dtype: str = "float64",
) -> str:
    """The window-sum path (``"sorted"`` or ``"binned"``) a sweep runs.

    Its bits differ between the two paths (within the tolerance contract
    in DESIGN.md), so both fingerprints below carry it: a warm entry is
    only ever served to a request that would recompute the same bits.
    """
    from repro.core.fastgrid import window_sum_path

    if backend not in _SORTED_CAPABLE:
        return "binned"
    if dtype == "default":
        dtype = "float64"
    return window_sum_path(n, k, kernel_name, dtype)


def curve_fingerprint(
    x: np.ndarray,
    y: np.ndarray,
    bandwidths: np.ndarray,
    kernel_name: str,
    *,
    backend: str = "numpy",
    dtype: str = "float64",
) -> str:
    """Key for one exact CV curve: data, grid, kernel, and arithmetic.

    The backend is part of the key because backends differ in summation
    order and precision (the gpusim path accumulates in float32); two
    backends' curves for the same data are *close*, not identical, and a
    bit-for-bit cache must not conflate them.  The window-sum path
    (:func:`sweep_path`) is keyed too.
    """
    path = sweep_path(
        len(x), len(bandwidths), kernel_name, backend=backend, dtype=dtype
    )
    base = sweep_fingerprint(x, y, bandwidths, kernel_name, dtype, 0)
    digest = hashlib.sha256()
    digest.update(f"curve|v{_FORMAT_VERSION}|{backend}|{path}|".encode())
    digest.update(base.encode())
    return digest.hexdigest()


def selection_fingerprint(
    x: np.ndarray,
    y: np.ndarray,
    bandwidths: np.ndarray,
    kernel_name: str,
    *,
    method: str = "grid",
    backend: str = "numpy",
    dtype: str = "float64",
    options: dict[str, Any] | None = None,
) -> str:
    """Key for a full selection: the curve key plus selector configuration.

    ``options`` covers anything that steers the selector beyond the grid
    (``refine_rounds``, ``n_restarts``, ...); entries are serialised via
    ``repr`` in sorted key order, which is deterministic for the scalar
    option values the selectors accept.  The window-sum path
    (:func:`sweep_path`) is keyed too; a bagged selection sweeps
    subsamples of ``options["subsample_size"]`` points, so that size
    decides it.
    """
    opts = options or {}
    swept = opts.get("subsample_size") if method == "bagged" else None
    path = sweep_path(
        int(swept or len(x)), len(bandwidths), kernel_name, backend=backend,
        dtype=str(opts.get("dtype", dtype)),
    )
    base = sweep_fingerprint(x, y, bandwidths, kernel_name, dtype, 0)
    digest = hashlib.sha256()
    digest.update(
        f"selection|v{_FORMAT_VERSION}|{method}|{backend}|{path}|".encode()
    )
    digest.update(base.encode())
    for key in sorted(opts):
        digest.update(f"{key}={opts[key]!r}|".encode())
    return digest.hexdigest()


# -- stats ------------------------------------------------------------------


@dataclass
class CacheStats:
    """Counters for one :class:`ArtifactCache` instance."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    memory_evictions: int = 0
    disk_evictions: int = 0
    corrupt_entries: int = 0
    #: Per-kind hit counts, e.g. ``{"selection": 3, "curve": 1}``.
    hits_by_kind: dict[str, int] = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when the cache is untouched)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def record_hit(self, kind: str) -> None:
        self.hits += 1
        self.hits_by_kind[kind] = self.hits_by_kind.get(kind, 0) + 1

    def to_dict(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "hit_rate": self.hit_rate,
            "memory_evictions": self.memory_evictions,
            "disk_evictions": self.disk_evictions,
            "corrupt_entries": self.corrupt_entries,
            "hits_by_kind": dict(self.hits_by_kind),
        }


# -- serialisation ----------------------------------------------------------


def _json_safe(value: Any) -> Any:
    """Recursively coerce numpy scalars/arrays so json.dumps accepts them."""
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    return value


def _result_to_arrays(result: SelectionResult) -> dict[str, np.ndarray]:
    """Flatten a SelectionResult into npz-storable arrays + JSON metadata."""
    meta = {
        "bandwidth": result.bandwidth,
        "score": result.score,
        "method": result.method,
        "backend": result.backend,
        "kernel": result.kernel,
        "n_observations": result.n_observations,
        "n_evaluations": result.n_evaluations,
        "wall_seconds": result.wall_seconds,
        "converged": result.converged,
        "diagnostics": _json_safe(result.diagnostics),
    }
    return {
        "meta": np.array(json.dumps(meta)),
        "bandwidths": np.asarray(result.bandwidths, dtype=np.float64),
        "scores": np.asarray(result.scores, dtype=np.float64),
    }


def _arrays_to_result(payload: dict[str, np.ndarray]) -> SelectionResult:
    meta = json.loads(str(payload["meta"]))
    diagnostics = dict(meta["diagnostics"])
    diagnostics["cache"] = "hit"
    return SelectionResult(
        bandwidth=float(meta["bandwidth"]),
        score=float(meta["score"]),
        method=str(meta["method"]),
        backend=str(meta["backend"]),
        kernel=str(meta["kernel"]),
        n_observations=int(meta["n_observations"]),
        bandwidths=np.asarray(payload["bandwidths"], dtype=np.float64),
        scores=np.asarray(payload["scores"], dtype=np.float64),
        n_evaluations=int(meta["n_evaluations"]),
        wall_seconds=float(meta["wall_seconds"]),
        converged=bool(meta["converged"]),
        diagnostics=diagnostics,
    )


# -- the cache --------------------------------------------------------------


class ArtifactCache:
    """Two-tier (memory LRU + disk) artifact store keyed by fingerprint.

    Parameters
    ----------
    directory:
        Disk tier root (created on first write).  ``None`` disables the
        disk tier — the cache is then memory-only and process-local.
    max_memory_bytes:
        Byte budget for the in-memory LRU (default 64 MiB).  Artifacts
        larger than the whole budget bypass the memory tier.
    max_disk_bytes:
        Byte budget for the disk tier (default 512 MiB); least recently
        *modified* files are deleted first when over budget.
    max_entries:
        Entry-count cap for the memory tier (a second LRU bound so a
        flood of tiny artifacts cannot monopolise the dict).

    All public methods are thread-safe: the serving scheduler calls the
    cache from executor threads while the event loop reads stats.
    """

    def __init__(
        self,
        directory: str | Path | None = None,
        *,
        max_memory_bytes: int = 64 * 1024 * 1024,
        max_disk_bytes: int = 512 * 1024 * 1024,
        max_entries: int = 1024,
    ) -> None:
        if max_memory_bytes < 0 or max_disk_bytes < 0:
            raise ValidationError("cache byte budgets must be >= 0")
        if max_entries < 1:
            raise ValidationError(f"max_entries must be >= 1, got {max_entries}")
        self.directory = Path(directory) if directory is not None else None
        self.max_memory_bytes = int(max_memory_bytes)
        self.max_disk_bytes = int(max_disk_bytes)
        self.max_entries = int(max_entries)
        self.stats = CacheStats()
        self._lock = threading.RLock()
        #: key -> (payload dict, approximate bytes), LRU order.
        self._memory: OrderedDict[str, tuple[dict[str, np.ndarray], int]] = (
            OrderedDict()
        )
        self._memory_bytes = 0

    # -- selection results -------------------------------------------------

    def put_selection(self, fingerprint: str, result: SelectionResult) -> None:
        """Store a full selection outcome under its fingerprint."""
        self._put("selection", fingerprint, _result_to_arrays(result))

    def get_selection(self, fingerprint: str) -> SelectionResult | None:
        """The cached :class:`SelectionResult`, or ``None`` on a miss.

        The returned result carries ``diagnostics["cache"] == "hit"`` so
        callers (and the serving metrics) can distinguish warm answers.
        """
        payload = self._get("selection", fingerprint)
        if payload is None:
            return None
        try:
            return _arrays_to_result(payload)
        except (KeyError, ValueError, TypeError, json.JSONDecodeError):
            self._note_corrupt("selection", fingerprint)
            return None

    # -- CV score curves ---------------------------------------------------

    def put_curve(
        self, fingerprint: str, bandwidths: np.ndarray, scores: np.ndarray
    ) -> None:
        """Store one exact CV curve (grid values + float64 scores)."""
        grid = np.asarray(bandwidths, dtype=np.float64)
        vals = np.asarray(scores, dtype=np.float64)
        if grid.shape != vals.shape:
            raise CacheError(
                f"curve grid/scores shapes differ: {grid.shape} vs {vals.shape}"
            )
        self._put("curve", fingerprint, {"bandwidths": grid, "scores": vals})

    def get_curve(self, fingerprint: str) -> np.ndarray | None:
        """The cached float64 score curve, or ``None`` on a miss."""
        payload = self._get("curve", fingerprint)
        if payload is None:
            return None
        try:
            return np.asarray(payload["scores"], dtype=np.float64).copy()
        except (KeyError, ValueError):
            self._note_corrupt("curve", fingerprint)
            return None

    # -- per-block partial sums -------------------------------------------

    def put_blocks(
        self, fingerprint: str, starts: np.ndarray, sums: np.ndarray
    ) -> None:
        """Store per-row-block partial sums (the checkpoint artifact)."""
        starts_arr = np.asarray(starts, dtype=np.int64)
        sums_arr = np.asarray(sums, dtype=np.float64)
        if sums_arr.ndim != 2 or sums_arr.shape[0] != starts_arr.shape[0]:
            raise CacheError(
                f"blocks payload malformed: {starts_arr.shape[0]} starts "
                f"vs sums of shape {sums_arr.shape}"
            )
        self._put(
            "blocks", fingerprint, {"starts": starts_arr, "sums": sums_arr}
        )

    def get_blocks(self, fingerprint: str) -> dict[int, np.ndarray] | None:
        """Cached ``{start: k-vector}`` block sums, or ``None`` on a miss."""
        payload = self._get("blocks", fingerprint)
        if payload is None:
            return None
        try:
            starts = np.asarray(payload["starts"], dtype=np.int64)
            sums = np.asarray(payload["sums"], dtype=np.float64)
            return {int(s): sums[i].copy() for i, s in enumerate(starts)}
        except (KeyError, ValueError, IndexError):
            self._note_corrupt("blocks", fingerprint)
            return None

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def describe(self) -> dict[str, Any]:
        """Snapshot of occupancy and stats (for ``repro info`` / /metrics)."""
        with self._lock:
            disk_entries, disk_bytes = self._disk_usage()
            return {
                "directory": str(self.directory) if self.directory else None,
                "memory_entries": len(self._memory),
                "memory_bytes": self._memory_bytes,
                "max_memory_bytes": self.max_memory_bytes,
                "disk_entries": disk_entries,
                "disk_bytes": disk_bytes,
                "max_disk_bytes": self.max_disk_bytes,
                "stats": self.stats.to_dict(),
            }

    def flush(self) -> int:
        """Persist memory-tier entries missing from the disk tier.

        The write path is normally write-through, but an entry can be
        memory-only when the disk tier evicted it under budget pressure
        or a write failed transiently.  Called on graceful shutdown so
        a restarted replica finds the warm artifacts on disk; returns
        the number of entries written.  A ``None`` directory (memory-
        only cache) flushes nothing.
        """
        if self.directory is None:
            return 0
        written = 0
        with self._lock:
            for key, (payload, _) in self._memory.items():
                if self._disk_path(key).exists():
                    continue
                try:
                    self._disk_write(key, payload)
                except CacheError:
                    continue  # unwritable tier: shutdown must not fail
                written += 1
            if written:
                self._disk_enforce_budget()
        return written

    def clear(self) -> None:
        """Drop both tiers (stats are preserved)."""
        with self._lock:
            self._memory.clear()
            self._memory_bytes = 0
            for path in self._disk_files():
                self._unlink_quietly(path)

    # -- tier plumbing -----------------------------------------------------

    def _put(self, kind: str, fingerprint: str, payload: dict[str, np.ndarray]) -> None:
        assert kind in _KINDS
        key = f"{kind}-{fingerprint}"
        size = sum(arr.nbytes for arr in payload.values())
        with self._lock:
            self.stats.puts += 1
            self._memory_insert(key, payload, size)
            if self.directory is not None:
                self._disk_write(key, payload)
                self._disk_enforce_budget()

    def _get(self, kind: str, fingerprint: str) -> dict[str, np.ndarray] | None:
        key = f"{kind}-{fingerprint}"
        with self._lock:
            entry = self._memory.get(key)
            if entry is not None:
                self._memory.move_to_end(key)
                self.stats.record_hit(kind)
                return entry[0]
            payload = self._disk_read(key)
            if payload is None:
                self.stats.misses += 1
                return None
            # Promote to the memory tier so repeat hits stay RAM-speed.
            size = sum(arr.nbytes for arr in payload.values())
            self._memory_insert(key, payload, size)
            self.stats.record_hit(kind)
            return payload

    def _note_corrupt(self, kind: str, fingerprint: str) -> None:
        """Deserialisation failed after a tier hit: evict and count."""
        key = f"{kind}-{fingerprint}"
        with self._lock:
            self.stats.corrupt_entries += 1
            entry = self._memory.pop(key, None)
            if entry is not None:
                self._memory_bytes -= entry[1]
            if self.directory is not None:
                self._unlink_quietly(self.directory / f"{key}.npz")

    # -- memory tier -------------------------------------------------------

    def _memory_insert(
        self, key: str, payload: dict[str, np.ndarray], size: int
    ) -> None:
        if size > self.max_memory_bytes:
            return  # larger than the whole budget: disk tier only
        old = self._memory.pop(key, None)
        if old is not None:
            self._memory_bytes -= old[1]
        self._memory[key] = (payload, size)
        self._memory_bytes += size
        while self._memory and (
            self._memory_bytes > self.max_memory_bytes
            or len(self._memory) > self.max_entries
        ):
            _, (_, evicted_size) = self._memory.popitem(last=False)
            self._memory_bytes -= evicted_size
            self.stats.memory_evictions += 1

    # -- disk tier ---------------------------------------------------------

    def _disk_path(self, key: str) -> Path:
        assert self.directory is not None
        return self.directory / f"{key}.npz"

    def _disk_files(self) -> list[Path]:
        if self.directory is None or not self.directory.is_dir():
            return []
        return sorted(self.directory.glob("*.npz"))

    def _disk_usage(self) -> tuple[int, int]:
        entries = 0
        total = 0
        for path in self._disk_files():
            try:
                total += path.stat().st_size
                entries += 1
            except OSError:
                continue
        return entries, total

    def _disk_write(self, key: str, payload: dict[str, np.ndarray]) -> None:
        assert self.directory is not None
        target = self._disk_path(key)
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                prefix=target.name + ".", suffix=".tmp", dir=target.parent
            )
        except OSError as exc:
            raise CacheError(
                f"cache directory {self.directory} is unwritable: {exc}"
            ) from exc
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez(handle, **payload)
            os.replace(tmp_name, target)
        except BaseException:
            self._unlink_quietly(Path(tmp_name))
            raise

    def _disk_read(self, key: str) -> dict[str, np.ndarray] | None:
        if self.directory is None:
            return None
        path = self._disk_path(key)
        if not path.exists():
            return None
        try:
            with np.load(path, allow_pickle=False) as stored:
                payload = {name: np.asarray(stored[name]) for name in stored.files}
        except (OSError, ValueError, KeyError, EOFError) as exc:
            # A torn or foreign file is a miss, not a failure: evict it so
            # the slot is rewritten by the next put.
            del exc
            with self._lock:
                self.stats.corrupt_entries += 1
            self._unlink_quietly(path)
            return None
        # Touch so LRU-by-mtime eviction sees the read.
        try:
            os.utime(path)
        except OSError:
            pass
        return payload

    def _disk_enforce_budget(self) -> None:
        if self.directory is None:
            return
        files = self._disk_files()
        sized: list[tuple[float, int, Path]] = []
        total = 0
        for path in files:
            try:
                stat = path.stat()
            except OSError:
                continue
            sized.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        sized.sort()  # oldest mtime first
        for _, size, path in sized:
            if total <= self.max_disk_bytes:
                break
            self._unlink_quietly(path)
            total -= size
            self.stats.disk_evictions += 1

    @staticmethod
    def _unlink_quietly(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass
