"""A small process-pool wrapper for embarrassingly parallel row sweeps.

This substrate plays the role of the paper's "Multicore R" program
(data.table + parallel): it fans the per-observation leave-one-out work
out over OS processes and sums the partial results.  Three properties
drive the design:

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
deterministically regardless of worker scheduling.
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
from repro.parallel.partition import balanced_blocks
from repro.resilience import faults

__all__ = ["WorkerPool", "available_workers", "parallel_sum", "traced_work_unit"]


def traced_work_unit(func: Callable, *args: Any) -> tuple:
    """Run ``func(*args)`` under a fresh local tracer; ship spans home.

    The picklable wrapper the pool uses when the *parent* is tracing:
    the worker records its own span tree (fork-started workers share the
    parent's ``CLOCK_MONOTONIC`` origin, so timestamps align) and the
    parent grafts it back with :meth:`repro.obs.Tracer.adopt`.

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
    """Long-lived process pool with a sum-reduce convenience.

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

    @property
    def is_healthy(self) -> bool:
        """Best-effort liveness check of the underlying worker processes.

        ``False`` means at least one worker died (segfault, OOM kill) —
        the pool should be :meth:`rebuild`-t before more work is sent.
        """
        if self._pool is None:
            return not self._closed
        procs = getattr(self._pool, "_pool", None)
        if not procs:
            return True
        return all(proc.is_alive() for proc in procs)

    def ensure_healthy(self) -> bool:
        """Rebuild if any worker died; returns True when a rebuild happened."""
        if self._pool is not None and not self.is_healthy:
            self.rebuild()
            return True
        return False

    # -- execution ---------------------------------------------------------

    def starmap(self, func: Callable, args_list: Sequence[tuple]) -> list:
        """``starmap`` over the pool; falls back to serial when 1 worker."""
        args_list = list(args_list)
        func, args_list = self._under_fault_plan(func, args_list)
        if self.workers == 1 or len(args_list) <= 1:
            return [func(*args) for args in args_list]
        self.open()
        assert self._pool is not None
        return self._pool.starmap(func, args_list)

    def map(self, func: Callable, items: Iterable) -> list:
        """``map`` over the pool; falls back to serial when 1 worker."""
        return self.starmap(func, [(item,) for item in items])

    def apply_async(
        self, func: Callable, args: tuple = ()
    ) -> "mp.pool.AsyncResult":
        """Submit one work unit; returns the ``AsyncResult`` future.

        The resilience engine's submission primitive: per-unit results can
        be collected with a deadline (``.get(timeout)``) and retried
        individually.  Always runs on the pool (opening it on demand) so a
        hung unit cannot block the parent.
        """
        self.open()
        assert self._pool is not None
        kind = faults.draw("pool.worker", getattr(func, "__name__", "work-unit"))
        if kind is not None:
            return self._pool.apply_async(faults.faulty_call, (kind, func, *args))
        return self._pool.apply_async(func, args)

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

    def sum_over_blocks(
        self,
        func: Callable,
        total: int,
        *,
        shared_args: tuple = (),
        block_args: Callable[[int, int], tuple] | None = None,
    ) -> Any:
        """Sum ``func(*shared_args, start, stop)`` over a row partition.

        ``total`` rows are split into one balanced block per worker.  The
        default call signature appends ``(start, stop)`` to
        ``shared_args``; pass ``block_args`` to customise.  When the
        parent is tracing, each unit runs under :func:`traced_work_unit`
        (same work, same order — the wrapper only ferries span trees
        home, so results are bit-for-bit the untraced ones).
        """
        blocks = balanced_blocks(total, self.workers)
        if block_args is None:
            args_list = [shared_args + (start, stop) for start, stop in blocks]
        else:
            args_list = [block_args(start, stop) for start, stop in blocks]
        tracer = current_tracer()
        if not tracer.enabled:
            partials = self.starmap(func, args_list)
        else:
            with tracer.span(
                "pool.sum_over_blocks", blocks=len(blocks), workers=self.workers
            ) as parent:
                wrapped = [(func,) + tuple(args) for args in args_list]
                outputs = self.starmap(traced_work_unit, wrapped)
                partials = []
                for value, spans, counters, maxima in outputs:
                    partials.append(value)
                    tracer.adopt(spans, parent_id=parent.span_id)
                    tracer.merge_counters(counters, maxima)
        result = partials[0]
        for part in partials[1:]:
            result = result + part
        return result


def parallel_sum(
    func: Callable,
    total: int,
    *,
    shared_args: tuple = (),
    workers: int | None = None,
) -> Any:
    """One-shot :meth:`WorkerPool.sum_over_blocks` with pool lifecycle.

    Convenience for single grid searches; optimisation loops should hold a
    :class:`WorkerPool` open across objective calls instead.
    """
    with WorkerPool(workers) as pool:
        return pool.sum_over_blocks(func, total, shared_args=shared_args)
