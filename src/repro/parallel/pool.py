"""A small process-pool wrapper for embarrassingly parallel row sweeps.

This substrate plays the role of the paper's "Multicore R" program
(data.table + parallel): it fans row blocks of the per-observation
leave-one-out work out over OS processes, and its caller folds what they
return (:mod:`repro.core.blockwise`).  Three properties drive the
design:

* **Reusability.**  A numerical optimiser calls the CV objective dozens of
  times; forking a fresh pool per call would swamp the computation (and is
  precisely why the multicore program has a ~1.4 s floor at small n in
  Table I).  :class:`WorkerPool` therefore wraps one long-lived
  ``multiprocessing.Pool`` usable as a context manager across many calls.
* **Picklability.**  Work units are top-level functions plus plain
  ndarray/scalar args, nothing closure-captured.
* **Explicit lifecycle.**  A pool has exactly one life: once
  :meth:`close` (or :meth:`terminate`) retires it, re-entry raises a typed
  :class:`~repro.exceptions.PoolStateError` instead of a raw
  ``multiprocessing`` error or — worse — silently forking a fresh set of
  workers behind the caller's back.  Crashed pools are replaced via
  :meth:`rebuild`, which the resilience layer drives.

Every work-unit submission passes through the fault-injection hooks in
:mod:`repro.resilience.faults`: under an active chaos plan, the parent
pre-draws a per-unit directive and ships it with the unit, so injected
worker crashes/timeouts are raised *inside the child* and replay
deterministically regardless of worker scheduling.  When the parent is
tracing, :meth:`WorkerPool.starmap` also ships each unit's span tree home
and grafts it under the caller's active span, so a caller only opens
its own span around the call.
"""

from __future__ import annotations

import multiprocessing as mp
import multiprocessing.pool
import os
from typing import Any, Callable, Iterable, Sequence

from repro.exceptions import PoolStateError, ValidationError
from repro.obs.tracer import (
    Tracer,
    current_tracer,
    reset_worker_context,
    use_tracer,
)
from repro.resilience import faults

__all__ = ["WorkerPool", "available_workers"]


def traced_work_unit(func: Callable, *args: Any) -> tuple:
    """Run ``func(*args)`` under a fresh local tracer; ship spans home.

    The picklable wrapper :meth:`WorkerPool.starmap` uses when the
    *parent* is tracing: the worker records its own span tree
    (fork-started workers share the parent's ``CLOCK_MONOTONIC`` origin,
    so timestamps align) and the parent grafts it back with
    :meth:`repro.obs.Tracer.adopt`.

    Returns ``(result, spans, counters, maxima)``.
    """
    tracer = Tracer()
    with use_tracer(tracer):
        result = func(*args)
    return result, tracer.export_spans(), tracer.counters(), tracer.maxima()


def _compose_initializer(
    user_init: Callable[..., None] | None, user_args: tuple
) -> None:
    """Worker bootstrap: reset inherited trace state, then user init.

    Top-level (hence picklable) so the pool can re-run it on every fork —
    including the reforks done by :meth:`WorkerPool.rebuild`, which must
    re-register the *same* user initializer and initargs (shared-memory
    workspaces re-attach through exactly this path).
    """
    # reset_worker_context: forked children inherit the parent's
    # contextvars; a stale active tracer/span there would record into a
    # dead copy, so workers start traced-off.
    reset_worker_context()
    if user_init is not None:
        user_init(*user_args)


def available_workers(requested: int | None = None) -> int:
    """Resolve a worker count: explicit request, else CPU count.

    The paper's machine had 16 CPU cores; ours may have fewer — the bench
    harness records the count it actually used.
    """
    if requested is not None:
        if requested <= 0:
            raise ValidationError(f"workers must be positive, got {requested}")
        return requested
    return os.cpu_count() or 1


class WorkerPool:
    """Long-lived process pool with serial fallback and fault hooks.

    Example
    -------
    >>> from repro.parallel import WorkerPool
    >>> def square(v):
    ...     return v * v
    >>> with WorkerPool(workers=2) as pool:      # doctest: +SKIP
    ...     pool.map(square, [1, 2, 3])
    [1, 4, 9]
    """

    def __init__(
        self,
        workers: int | None = None,
        *,
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
    ):
        self.workers = available_workers(workers)
        #: Per-worker bootstrap run on every fork — stored on the pool so
        #: :meth:`rebuild` re-registers it (and its args) on the fresh
        #: worker set instead of silently dropping it.
        self.initializer = initializer
        self.initargs = tuple(initargs)
        self._pool: mp.pool.Pool | None = None
        self._closed = False
        #: Times the worker set was torn down and reforked (see rebuild()).
        self.rebuilds = 0

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "WorkerPool":
        self.open()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        # On exception, don't wait for stragglers: the computation is
        # abandoned, so the workers are too (close() would join() them).
        if exc_type is not None:
            self.terminate()
        else:
            self.close()

    def open(self) -> None:
        """Start the worker processes (idempotent while the pool lives).

        Raises
        ------
        PoolStateError
            When the pool has been retired by :meth:`close` or
            :meth:`terminate`.  A retired pool stays retired — construct a
            new :class:`WorkerPool` instead of resurrecting one whose
            workers already exited.
        """
        if self._closed:
            raise PoolStateError(
                "re-entry of a closed worker pool; its processes have "
                "exited — construct a new WorkerPool instead"
            )
        if self._pool is None:
            self._pool = mp.get_context("fork").Pool(
                self.workers,
                initializer=_compose_initializer,
                initargs=(self.initializer, self.initargs),
            )

    def close(self) -> None:
        """Gracefully retire the pool: finish queued work, join, forget.

        Idempotent: closing a closed (or never-opened) pool is a no-op.
        """
        if self._closed:
            return
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None
        self._closed = True

    def terminate(self) -> None:
        """Retire the pool immediately, abandoning in-flight work.

        The SIGTERM path: used when an exception is unwinding or a block
        timed out and its worker may never return.  Idempotent.
        """
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
        self._closed = True

    def rebuild(self) -> None:
        """Replace the worker set: terminate survivors, fork a fresh pool.

        The recovery path after a worker crash or hang — the pool object
        (and whatever holds a reference to it) stays valid while the OS
        processes underneath are swapped out.  Counts in :attr:`rebuilds`.
        """
        if self._closed:
            raise PoolStateError("cannot rebuild a closed worker pool")
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
        self.rebuilds += 1
        self.open()

    @property
    def is_open(self) -> bool:
        """Whether worker processes are currently alive."""
        return self._pool is not None

    @property
    def is_closed(self) -> bool:
        """Whether the pool has been retired (close/terminate called)."""
        return self._closed

    # -- execution ---------------------------------------------------------

    def starmap(self, func: Callable, args_list: Sequence[tuple]) -> list:
        """``starmap`` over the pool; falls back to serial when 1 worker.

        When the caller is tracing, each unit runs under
        :func:`traced_work_unit` and its spans and counters are grafted
        under the caller's active span, in unit order.  The wrapper only
        ferries span trees home: same work, same order, so results are
        bit-for-bit the untraced ones.
        """
        func, args_list = self._under_fault_plan(func, list(args_list))
        tracer = current_tracer()
        if not tracer.enabled:
            return self._run(func, args_list)
        parent_id = tracer.active_span_id()
        results = []
        for value, spans, counters, maxima in self._run(
            traced_work_unit, [(func, *args) for args in args_list]
        ):
            tracer.adopt(spans, parent_id=parent_id)
            tracer.merge_counters(counters, maxima)
            results.append(value)
        return results

    def _run(self, func: Callable, args_list: list[tuple]) -> list:
        """The units' results in order: serial on 1 worker, else pooled."""
        if self.workers == 1 or len(args_list) <= 1:
            return [func(*args) for args in args_list]
        self.open()
        assert self._pool is not None
        return self._pool.starmap(func, args_list)

    def map(self, func: Callable, items: Iterable) -> list:
        """``map`` over the pool; falls back to serial when 1 worker."""
        return self.starmap(func, [(item,) for item in items])

    def _under_fault_plan(
        self, func: Callable, args_list: list[tuple]
    ) -> tuple[Callable, list[tuple]]:
        """Wrap work units with pre-drawn fault directives (chaos runs only)."""
        directives = faults.draw_many(
            "pool.worker", len(args_list), getattr(func, "__name__", "work-unit")
        )
        if all(kind is None for kind in directives):
            return func, args_list
        wrapped = [
            (kind, func, *args) for kind, args in zip(directives, args_list)
        ]
        return faults.faulty_call, wrapped
