"""Zero-copy shared-memory workspaces for the blocked-shm worker pool.

A plain process pool ships its inputs to every worker by pickling them
into the ``fork`` snapshot and its per-block partials back through a
pipe.  At n = 20,000 that is harmless; at n = 100,000 with a large grid
the per-call serialisation starts to rival the sweep itself.  This
module removes both copies: the parent places X, Y, the bandwidth grid
(and, for the out-of-core backend, the per-row contribution matrix) in
POSIX shared memory (``multiprocessing.shared_memory``), workers attach
by *name* at fork time, and the only thing crossing the pipe per block
is a ``(start, stop)`` pair — O(1) IPC regardless of n.

Ownership is strictly parental:

* the **parent** creates every segment and is the only process that ever
  ``unlink``-s it (a workspace is a context manager, so the segments die
  with the sweep even on error paths);
* **workers** attach by name only.  They are forked *after* the parent
  creates the segments, so they inherit the parent's already-running
  ``multiprocessing.resource_tracker`` process: the attach-time
  re-registration is an idempotent set-add in that shared tracker, and
  the parent's single ``unlink`` retires the entry exactly once.  (On
  Python < 3.13 there is no ``track=False`` escape hatch; sending an
  explicit unregister from a worker would instead *remove* the parent's
  entry from the shared tracker and make the final unlink complain.)

Every segment name carries the :data:`SEGMENT_PREFIX` so the chaos suite
can assert that ``/dev/shm`` holds no ``repro-shm-*`` litter after a
fault-riddled run.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Iterator, Mapping

import numpy as np

from repro.exceptions import SharedSegmentError, ValidationError

__all__ = [
    "SEGMENT_PREFIX",
    "SegmentSpec",
    "SharedArray",
    "ShmWorkspace",
    "attach_workspace",
    "current_workspace",
    "detach_workspace",
]

#: Prefix of every segment this module creates (visible in ``/dev/shm``).
SEGMENT_PREFIX = "repro-shm"


@dataclass(frozen=True)
class SegmentSpec:
    """Picklable identity of one shared segment: name, shape, dtype."""

    name: str
    shape: tuple[int, ...]
    dtype: str

    @property
    def nbytes(self) -> int:
        count = 1
        for dim in self.shape:
            count *= int(dim)
        return count * np.dtype(self.dtype).itemsize


class SharedArray:
    """One named shared segment viewed as a numpy array."""

    def __init__(
        self,
        segment: shared_memory.SharedMemory,
        spec: SegmentSpec,
        *,
        owner: bool,
    ):
        self._segment = segment
        self.spec = spec
        self.owner = owner
        self.array: np.ndarray = np.ndarray(
            spec.shape, dtype=spec.dtype, buffer=segment.buf
        )

    @classmethod
    def create(cls, tag: str, shape: tuple[int, ...], dtype: str) -> "SharedArray":
        """Allocate a fresh segment named ``repro-shm-<tag>-<nonce>``."""
        spec = SegmentSpec(name="", shape=tuple(int(d) for d in shape), dtype=dtype)
        if spec.nbytes <= 0:
            raise ValidationError(
                f"shared segment {tag!r} would be empty (shape {shape})"
            )
        for _ in range(8):
            name = f"{SEGMENT_PREFIX}-{tag}-{secrets.token_hex(4)}"
            try:
                segment = shared_memory.SharedMemory(
                    name=name, create=True, size=spec.nbytes
                )
            except FileExistsError:  # pragma: no cover - 2^32 nonce space
                continue
            return cls(segment, SegmentSpec(name, spec.shape, spec.dtype), owner=True)
        raise SharedSegmentError(
            f"could not allocate a unique segment for {tag!r}"
        )  # pragma: no cover

    @classmethod
    def attach(cls, spec: SegmentSpec) -> "SharedArray":
        """Attach to an existing segment by spec (worker side)."""
        try:
            segment = shared_memory.SharedMemory(name=spec.name)
        except FileNotFoundError as exc:
            raise SharedSegmentError(
                f"shared segment {spec.name!r} has vanished (unlinked or "
                "/dev/shm purged); the zero-copy substrate is gone"
            ) from exc
        return cls(segment, spec, owner=False)

    def close(self) -> None:
        """Drop this process's mapping; owners also unlink the name."""
        # Release the array's exported buffer before closing the mmap,
        # else SharedMemory.close() raises BufferError.
        self.array = np.ndarray(0, dtype=self.spec.dtype)
        try:
            self._segment.close()
        except BufferError:  # pragma: no cover - stray external view
            pass
        if self.owner:
            try:
                self._segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            self.owner = False


class ShmWorkspace:
    """A named set of shared arrays shipped to pool workers by manifest.

    The parent builds one with :meth:`create`, passes
    :meth:`manifest` through the pool initializer, and workers
    reconstruct their view with :func:`attach_workspace`.  Closing the
    parent's workspace unlinks every segment exactly once.
    """

    def __init__(self, arrays: dict[str, SharedArray], *, owner: bool):
        self._arrays = arrays
        self.owner = owner
        self._closed = False

    @classmethod
    def create(
        cls,
        inputs: Mapping[str, np.ndarray],
        outputs: Mapping[str, tuple[tuple[int, ...], str]] | None = None,
    ) -> "ShmWorkspace":
        """Copy ``inputs`` into fresh segments; allocate zeroed ``outputs``.

        ``outputs`` maps name -> (shape, dtype) for result buffers the
        workers fill in place (e.g. the n-by-k row-contribution matrix).
        """
        arrays: dict[str, SharedArray] = {}
        try:
            for tag, values in inputs.items():
                data = np.ascontiguousarray(values)
                shared = SharedArray.create(tag, data.shape, str(data.dtype))
                shared.array[...] = data
                arrays[tag] = shared
            for tag, (shape, dtype) in (outputs or {}).items():
                shared = SharedArray.create(tag, tuple(shape), dtype)
                shared.array[...] = 0
                arrays[tag] = shared
        except BaseException:
            for shared in arrays.values():
                shared.close()
            raise
        workspace = cls(arrays, owner=True)
        _set_current(workspace)
        return workspace

    @classmethod
    def attach(cls, manifest: Mapping[str, SegmentSpec]) -> "ShmWorkspace":
        """Worker-side reconstruction from a pickled manifest."""
        arrays: dict[str, SharedArray] = {}
        try:
            for tag, spec in manifest.items():
                arrays[tag] = SharedArray.attach(spec)
        except BaseException:
            for shared in arrays.values():
                shared.close()
            raise
        return cls(arrays, owner=False)

    def manifest(self) -> dict[str, SegmentSpec]:
        """The picklable segment directory workers attach from."""
        return {tag: shared.spec for tag, shared in self._arrays.items()}

    def __getitem__(self, tag: str) -> np.ndarray:
        if self._closed:
            raise SharedSegmentError(
                f"workspace is closed; segment {tag!r} is gone"
            )
        try:
            return self._arrays[tag].array
        except KeyError:
            raise SharedSegmentError(
                f"workspace has no segment named {tag!r}"
            ) from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._arrays)

    def close(self) -> None:
        """Close (and, for the owner, unlink) every segment.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for shared in self._arrays.values():
            shared.close()
        if _CURRENT is self:
            _set_current(None)

    def __enter__(self) -> "ShmWorkspace":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()


# -- the process-current workspace ------------------------------------------
#
# Workers receive the manifest through the pool initializer, which runs
# once per fork (including rebuild() reforks) and parks the attached
# workspace here; the top-level block functions then find their arrays
# without any per-call argument traffic.  The parent parks its own
# (owning) workspace here too, so the single-worker serial fallback —
# which runs block functions in the parent process — resolves the same
# way.

_CURRENT: ShmWorkspace | None = None


def _set_current(workspace: ShmWorkspace | None) -> None:
    global _CURRENT
    _CURRENT = workspace


def attach_workspace(manifest: Mapping[str, SegmentSpec]) -> None:
    """Pool-initializer entry point: attach and install the workspace.

    Safe to run repeatedly (each :meth:`WorkerPool.rebuild` refork calls
    it again); a previously installed workspace is detached first.
    """
    detach_workspace()
    _set_current(ShmWorkspace.attach(manifest))


def current_workspace() -> ShmWorkspace:
    """The process's installed workspace; typed error when absent."""
    if _CURRENT is None or _CURRENT._closed:
        raise SharedSegmentError(
            "no shared-memory workspace is attached in this process"
        )
    return _CURRENT


def detach_workspace() -> None:
    """Drop the installed workspace, closing a worker-side attachment."""
    global _CURRENT
    if _CURRENT is not None and not _CURRENT.owner:
        _CURRENT.close()
    _CURRENT = None
