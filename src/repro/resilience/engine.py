"""The resilient execution engine for the CV grid search.

The engine turns the paper's per-observation decomposition into a fault
boundary.  ``CV_lc`` over a bandwidth grid is ``(Σ_blocks s_b) / n``
where ``s_b`` is the k-vector of squared-residual sums over a row block —
so the engine runs the sweep *block by block*, and around every block it
places the full resilience stack:

1. **retry** — transient faults (worker crash, timeout, kernel-launch
   failure, corrupt result) recompute the block under the
   :class:`~repro.resilience.policy.RetryPolicy`, rebuilding a crashed
   pool transparently;
2. **checkpoint** — completed blocks stream to a
   :class:`~repro.resilience.checkpoint.SweepCheckpoint`, so a killed run
   resumes without recomputing them;
3. **degrade** — structural faults (device OOM, constant-memory
   exhaustion) walk the :func:`~repro.resilience.degrade.fallback_chain`
   to the next backend;
4. **verify** — every block's partial sums pass a finiteness check, so
   NaN/Inf corruption is recomputed instead of silently poisoning the
   whole CV curve.

Because blocks are accumulated in index order and the checkpoint stores
exact float64 sums, a run that absorbed faults (or resumed mid-sweep)
produces *bit-for-bit* the same CV scores as an undisturbed one — the
property the chaos suite in ``tests/resilience/`` asserts.

Backends fall into two execution shapes:

* **block-sweep** (``numpy``, ``multicore``, ``gpusim-tiled``,
  ``blocked``, ``blocked-shm``): the engine owns the row loop; the
  backend determines how one block is computed (in-process, on the pool,
  on the simulated device with tile-buffer residency, or on a
  shared-memory pool with budget-planned block sizes);
* **whole-call** (``gpusim`` monolithic, ``python``, dense kernels,
  user-registered backends): the backend is atomic; retry/degrade wrap
  the entire call and resume is unavailable (the monolithic CUDA program
  has no partial result to save — which is exactly why the tiled variant
  sits next in the chain).
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.exceptions import (
    BlockTimeoutError,
    DataCorruptionError,
    ValidationError,
    error_code,
)
from repro.kernels import Kernel, get_kernel
from repro.obs.tracer import current_tracer
from repro.parallel.pool import WorkerPool, traced_work_unit
from repro.utils.validation import check_paired_samples, ensure_bandwidths
from repro.resilience import faults
from repro.resilience.checkpoint import SweepCheckpoint, sweep_fingerprint
from repro.resilience.degrade import (
    ResilienceReport,
    fallback_chain,
    is_degradable,
    is_retryable,
)
from repro.resilience.policy import (
    RetryBudgetExceeded,
    RetryPolicy,
    run_with_retry,
)

__all__ = [
    "ResilienceConfig",
    "ResilientEngine",
    "default_block_rows",
    "resilient_cv_scores",
]

#: Codes after which a pool must be reforked before retrying.
_POOL_FATAL_CODES = frozenset({"REPRO_WORKER_CRASH", "REPRO_BLOCK_TIMEOUT"})

#: Backends the engine can drive block-by-block (resumable).
_BLOCK_BACKENDS = frozenset(
    {"numpy", "multicore", "gpusim-tiled", "blocked", "blocked-shm"}
)

#: The blockwise family sizes its blocks from the memory-budget planner.
_BUDGETED_BACKENDS = frozenset({"blocked", "blocked-shm"})


def default_block_rows(n: int) -> int:
    """Deterministic checkpoint granularity: ≤16 blocks, ≥64 rows each.

    A function of ``n`` alone — NOT of the worker count or machine — so a
    checkpoint written on one host resumes on any other.
    """
    if n <= 0:
        raise ValidationError(f"n must be positive, got {n}")
    return max(64, -(-n // 16))


@dataclass(frozen=True)
class ResilienceConfig:
    """Tuning for one resilient selection.

    Parameters
    ----------
    policy:
        Retry/backoff/deadline policy (see :class:`RetryPolicy`).
    fallback:
        Walk the backend degradation chain on structural faults; when
        False the requested backend is the only one tried.
    checkpoint:
        Path for the resumable sweep checkpoint (``None`` = in-memory
        only).  The same path works for writing and resuming.
    keep_checkpoint:
        Keep the checkpoint file after a successful sweep (default:
        deleted, so stale sums can never leak into a later run).
    block_rows:
        Row-block size (default :func:`default_block_rows`).
    flush_every:
        Checkpoint write frequency, in completed blocks.
    sleep:
        Injectable sleeper for the backoff (tests pass a no-op).
    """

    policy: RetryPolicy = RetryPolicy()
    fallback: bool = True
    checkpoint: str | Path | None = None
    keep_checkpoint: bool = False
    block_rows: int | None = None
    flush_every: int = 1
    sleep: Callable[[float], None] | None = None

    def __post_init__(self) -> None:
        if self.block_rows is not None and self.block_rows <= 0:
            raise ValidationError(
                f"block_rows must be positive, got {self.block_rows}"
            )

    @classmethod
    def coerce(
        cls,
        value: "ResilienceConfig | bool | None",
        *,
        resume: str | Path | None = None,
    ) -> "ResilienceConfig | None":
        """Normalise the public ``resilience=`` argument.

        ``True`` means defaults; ``None``/``False`` means disabled —
        unless ``resume`` is given, which enables resilience on its own.
        """
        if isinstance(value, cls):
            cfg: ResilienceConfig | None = value
        elif value is True:
            cfg = cls()
        elif value is None or value is False:
            cfg = None
        else:
            raise ValidationError(
                f"resilience must be a ResilienceConfig, True, or None; "
                f"got {value!r}"
            )
        if resume is not None:
            cfg = replace(cfg if cfg is not None else cls(), checkpoint=resume)
        return cfg


class ResilientEngine:
    """Drives one (or more) grid sweeps under the resilience stack.

    One engine accumulates one :class:`ResilienceReport` across every
    sweep it runs — a selector with refinement rounds reuses the engine so
    the report covers the whole selection.
    """

    def __init__(self, config: ResilienceConfig | None = None):
        self.config = config if config is not None else ResilienceConfig()
        self.report = ResilienceReport()
        self._jitter_rng = self.config.policy.jitter_rng()

    # -- public ------------------------------------------------------------

    def cv_scores(
        self,
        x: np.ndarray,
        y: np.ndarray,
        bandwidths: np.ndarray,
        kernel: str | Kernel,
        *,
        backend: str = "numpy",
        backend_options: dict[str, Any] | None = None,
        checkpoint_enabled: bool = True,
    ) -> np.ndarray:
        """CV scores for the grid, surviving whatever faults it can.

        Walks the fallback chain from ``backend``; within each candidate,
        block faults are retried per the policy.  Raises only when every
        eligible backend failed structurally or a fault was not absorbable
        (validation errors, retry budget exhausted on the terminal
        backend).
        """
        kern = get_kernel(kernel)
        x, y = check_paired_samples(x, y)
        grid = ensure_bandwidths(bandwidths)
        options = dict(backend_options or {})
        if not self.report.backend_requested:
            self.report.backend_requested = backend
        chain = fallback_chain(backend) if self.config.fallback else (backend,)
        tracer = current_tracer()

        with tracer.span(
            "resilient-sweep",
            backend=backend,
            fallback=self.config.fallback,
            chain=len(chain),
        ):
            last_exc: BaseException | None = None
            for position, candidate in enumerate(chain):
                try:
                    with tracer.span(
                        "candidate", backend=candidate, position=position
                    ):
                        scores = self._run_candidate(
                            candidate,
                            x,
                            y,
                            grid,
                            kern,
                            options,
                            checkpoint_enabled=checkpoint_enabled,
                            degraded=position > 0,
                        )
                except Exception as exc:
                    self.report.record_attempt(
                        candidate, error_code(exc) or type(exc).__name__
                    )
                    self.report.record_fault(f"backend:{candidate}", exc)
                    if is_degradable(exc) and position < len(chain) - 1:
                        tracer.counter("resilience.degraded")
                        last_exc = exc
                        continue
                    raise
                self.report.record_attempt(candidate, "ok")
                self.report.backend_used = candidate
                return scores
        raise last_exc if last_exc is not None else AssertionError("empty chain")

    # -- candidate dispatch ------------------------------------------------

    def _run_candidate(
        self,
        candidate: str,
        x: np.ndarray,
        y: np.ndarray,
        grid: np.ndarray,
        kern: Kernel,
        options: dict[str, Any],
        *,
        checkpoint_enabled: bool,
        degraded: bool,
    ) -> np.ndarray:
        if candidate in _BLOCK_BACKENDS and kern.supports_fast_grid:
            return self._block_sweep(
                candidate,
                x,
                y,
                grid,
                kern,
                options,
                checkpoint_enabled=checkpoint_enabled,
                degraded=degraded,
            )
        return self._whole_call(candidate, x, y, grid, kern, options)

    def _whole_call(
        self,
        candidate: str,
        x: np.ndarray,
        y: np.ndarray,
        grid: np.ndarray,
        kern: Kernel,
        options: dict[str, Any],
    ) -> np.ndarray:
        from repro.core.backends import get_backend

        backend_fn = get_backend(candidate)

        def attempt() -> np.ndarray:
            raw = np.asarray(
                backend_fn(x, y, grid, kern, **options), dtype=np.float64
            )
            checked = faults.corrupt("data.block", raw, f"{candidate}:scores")
            if not np.all(np.isfinite(checked)):
                raise DataCorruptionError(
                    f"non-finite CV scores from backend {candidate!r}"
                )
            return checked

        def on_retry(exc: BaseException, attempt_no: int) -> None:
            self.report.record_fault(f"{candidate}:whole-call", exc)
            self.report.retries += 1

        return run_with_retry(
            attempt,
            policy=self.config.policy,
            retryable=is_retryable,
            on_retry=on_retry,
            sleep=self._sleep,
            rng=self._jitter_rng,
            label=f"backend {candidate!r}",
        )

    # -- the block sweep ---------------------------------------------------

    def _block_sweep(
        self,
        candidate: str,
        x: np.ndarray,
        y: np.ndarray,
        grid: np.ndarray,
        kern: Kernel,
        options: dict[str, Any],
        *,
        checkpoint_enabled: bool,
        degraded: bool,
    ) -> np.ndarray:
        n = int(x.shape[0])
        k = int(grid.shape[0])
        policy = self.config.policy
        dtype = str(
            options.get(
                "dtype", "float32" if candidate == "gpusim-tiled" else "float64"
            )
        )
        block_rows = self.config.block_rows
        if block_rows is None and candidate in _BUDGETED_BACKENDS:
            from repro.core.blockwise import plan_for

            # Budget-planned granularity, capped at the checkpoint default
            # so a roomy budget never coarsens resumability.  blocked and
            # blocked-shm share the plan (output_matrix is irrelevant here:
            # the engine collects k-vector partials, never the row matrix),
            # which is what makes shm -> blocked degradation bit-exact.
            plan = plan_for(
                n,
                k,
                kern.name,
                dtype=dtype,
                memory_budget=options.get("memory_budget"),
            )
            block_rows = min(default_block_rows(n), plan.block_rows)
        elif block_rows is None:
            block_rows = default_block_rows(n)
        blocks = [(s, min(s + block_rows, n)) for s in range(0, n, block_rows)]
        self.report.blocks_total += len(blocks)

        ckpt_path = self.config.checkpoint if checkpoint_enabled else None
        ckpt = SweepCheckpoint.open(
            ckpt_path,
            fingerprint=sweep_fingerprint(x, y, grid, kern.name, dtype, block_rows),
            n=n,
            k=k,
            block_rows=block_rows,
            flush_every=self.config.flush_every,
            # A user-pointed checkpoint for *this* configuration must match
            # or fail loudly; once degraded, the old backend's checkpoint
            # is simply a different sweep — restart it.
            on_mismatch="restart" if degraded else "raise",
        )
        if ckpt.path is not None:
            self.report.checkpoint_path = str(ckpt.path)

        pool: WorkerPool | None = None
        owns_pool = False
        workspace = None
        if candidate == "multicore":
            pool = options.get("pool")
            if pool is None:
                pool = WorkerPool(options.get("workers"))
                owns_pool = True
        elif candidate == "blocked-shm":
            from repro.parallel import shm as shm_mod

            # An unlinked/purged segment surfaces here as a structural
            # REPRO_SHM_SEGMENT fault, degrading to the bit-identical
            # process-local "blocked" candidate.
            faults.fire("shm.segment", f"workspace[n={n},k={k}]")
            workspace = shm_mod.ShmWorkspace.create(
                inputs={"x": x, "y": y, "grid": grid}
            )
            # The initializer (and its manifest) is stored on the pool, so
            # a rebuild() after a worker death re-attaches the same
            # segments in the fresh workers.
            pool = WorkerPool(
                options.get("workers"),
                initializer=shm_mod.attach_workspace,
                initargs=(workspace.manifest(),),
            )
            owns_pool = True
        try:
            try:
                results = self._sweep_blocks(
                    candidate, x, y, grid, kern, options, blocks, dtype, ckpt,
                    pool,
                )
            except BaseException:
                ckpt.flush()  # persist whatever completed before the failure
                if owns_pool and pool is not None:
                    pool.terminate()
                raise
            if owns_pool and pool is not None:
                pool.close()
        finally:
            if workspace is not None:
                workspace.close()
        ckpt.flush()
        total = np.zeros(k, dtype=np.float64)
        for start in sorted(results):
            total += results[start]
        if not self.config.keep_checkpoint:
            ckpt.discard()
        return total / n

    def _sweep_blocks(
        self,
        candidate: str,
        x: np.ndarray,
        y: np.ndarray,
        grid: np.ndarray,
        kern: Kernel,
        options: dict[str, Any],
        blocks: list[tuple[int, int]],
        dtype: str,
        ckpt: SweepCheckpoint,
        pool: WorkerPool | None,
    ) -> dict[int, np.ndarray]:
        """Wave-based block loop: submit pending, collect, retry failures."""
        policy = self.config.policy
        tracer = current_tracer()
        results: dict[int, np.ndarray] = {}
        pending: list[tuple[int, int]] = []
        for start, stop in blocks:
            if ckpt.has_block(start):
                results[start] = ckpt.get_block(start)
                self.report.blocks_resumed += 1
            else:
                pending.append((start, stop))
        if self.report.blocks_resumed:
            tracer.counter(
                "resilience.blocks_resumed", float(self.report.blocks_resumed)
            )

        attempts: dict[int, int] = {start: 0 for start, _ in pending}
        wave_no = 0
        while pending:
            with tracer.span(
                "wave", index=wave_no, backend=candidate, blocks=len(pending)
            ):
                wave = [
                    (start, stop, self._submit_block(
                        candidate, x, y, grid, kern, options, start, stop,
                        dtype, pool,
                    ))
                    for start, stop in pending
                ]
                failed: list[tuple[int, int]] = []
                needs_rebuild = False
                for start, stop, collect in wave:
                    label = f"{candidate}:rows[{start}:{stop})"
                    try:
                        sums = collect()
                        sums = faults.corrupt("data.block", sums, label)
                        if not np.all(np.isfinite(sums)):
                            raise DataCorruptionError(
                                f"non-finite partial sums in {label}"
                            )
                    except Exception as exc:
                        if not is_retryable(exc):
                            raise
                        attempts[start] += 1
                        self.report.record_fault(label, exc)
                        self.report.blocks_recomputed += 1
                        if attempts[start] > policy.max_retries:
                            raise RetryBudgetExceeded(
                                f"block {label} failed {attempts[start]} "
                                f"time(s); last error: {exc}"
                            ) from exc
                        needs_rebuild |= error_code(exc) in _POOL_FATAL_CODES
                        failed.append((start, stop))
                    else:
                        results[start] = sums
                        ckpt.record_block(start, sums)
                if failed:
                    self.report.retries += len(failed)
                    tracer.counter("resilience.retries", float(len(failed)))
                    if needs_rebuild and pool is not None:
                        pool.rebuild()
                        self.report.pool_rebuilds += 1
                        tracer.counter("resilience.pool_rebuilds")
                    round_no = max(attempts[start] for start, _ in failed)
                    pause = policy.delay(round_no, self._jitter_rng)
                    if pause > 0.0:
                        self._sleep(pause)
                pending = failed
            wave_no += 1
        return results

    def _submit_block(
        self,
        candidate: str,
        x: np.ndarray,
        y: np.ndarray,
        grid: np.ndarray,
        kern: Kernel,
        options: dict[str, Any],
        start: int,
        stop: int,
        dtype: str,
        pool: WorkerPool | None,
    ) -> Callable[[], np.ndarray]:
        """Start one block computation; returns its collector thunk.

        Pool submissions happen eagerly (so a wave actually runs in
        parallel); serial backends compute inside the collector.
        """
        from repro.core.fastgrid import fastgrid_block_sums

        if candidate == "multicore":
            assert pool is not None
            block_args = (x, y, grid, kern.name, start, stop, dtype)
            return self._pool_collector(
                pool, fastgrid_block_sums, block_args, start, stop
            )

        if candidate == "blocked-shm":
            from repro.core.blockwise import shm_block_sums

            assert pool is not None
            # Parent-drawn worker-death directive for the shm pool: the
            # injected crash/timeout is raised inside the child, so retry
            # and pool-rebuild behave exactly as for a real dead worker.
            kind = faults.draw("shm.worker", f"rows[{start}:{stop})")
            block_args = (kern.name, start, stop, dtype)
            return self._pool_collector(
                pool, shm_block_sums, block_args, start, stop, fault_kind=kind
            )

        if candidate == "gpusim-tiled":
            return lambda: self._tiled_block(
                x, y, grid, kern, options, start, stop
            )

        return lambda: np.asarray(
            fastgrid_block_sums(x, y, grid, kern.name, start, stop, dtype),
            dtype=np.float64,
        )

    def _pool_collector(
        self,
        pool: WorkerPool,
        func: Callable[..., Any],
        block_args: tuple,
        start: int,
        stop: int,
        *,
        fault_kind: str | None = None,
    ) -> Callable[[], np.ndarray]:
        """Submit one block to a pool; return its deadline-ed collector."""
        traced = current_tracer().enabled
        unit: Callable[..., Any] = func
        unit_args: tuple = block_args
        if traced:
            unit, unit_args = traced_work_unit, (func,) + block_args
        if fault_kind is not None:
            unit, unit_args = faults.faulty_call, (fault_kind, unit) + unit_args
        future = pool.apply_async(unit, unit_args)
        timeout = self.config.policy.block_timeout

        def collect_pool() -> np.ndarray:
            tracer = current_tracer()
            with tracer.span("block-collect", start=start, stop=stop) as cspan:
                try:
                    value = future.get(timeout)
                except multiprocessing.TimeoutError:
                    raise BlockTimeoutError(
                        f"rows[{start}:{stop}) missed its {timeout}s deadline"
                    ) from None
                if traced and tracer.enabled:
                    value, spans, counters, maxima = value
                    tracer.adopt(spans, parent_id=cspan.span_id)
                    tracer.merge_counters(counters, maxima)
            return np.asarray(value, dtype=np.float64)

        return collect_pool

    def _tiled_block(
        self,
        x: np.ndarray,
        y: np.ndarray,
        grid: np.ndarray,
        kern: Kernel,
        options: dict[str, Any],
        start: int,
        stop: int,
    ) -> np.ndarray:
        """One tile on the simulated device: reserve, compute, free.

        Device residency is the tiled program's: two t×n float32 tile
        buffers charged against capacity (so an injected or genuine
        ``cudaMalloc`` failure surfaces here), with the arithmetic carried
        out by the float32 block sums — the same summations the tiled
        CUDA kernel performs.
        """
        from repro.core.fastgrid import fastgrid_block_sums
        from repro.gpusim.device import get_device
        from repro.gpusim.memory import GlobalMemory

        device = get_device(options.get("device"))
        gmem = GlobalMemory(device)
        n = int(x.shape[0])
        t = stop - start
        try:
            gmem.reserve((t, n), np.float32, label="absdiff-tile")
            gmem.reserve((t, n), np.float32, label="y-tile")
            sums = fastgrid_block_sums(
                x, y, grid, kern.name, start, stop, "float32"
            )
        finally:
            gmem.free_all()
        return np.asarray(sums, dtype=np.float64)

    # -- plumbing ----------------------------------------------------------

    def _sleep(self, seconds: float) -> None:
        self.report.sleeps.append(float(seconds))
        sleeper = self.config.sleep if self.config.sleep is not None else time.sleep
        sleeper(seconds)


def resilient_cv_scores(
    x: np.ndarray,
    y: np.ndarray,
    bandwidths: np.ndarray,
    kernel: str | Kernel = "epanechnikov",
    *,
    backend: str = "numpy",
    config: ResilienceConfig | None = None,
    backend_options: dict[str, Any] | None = None,
) -> tuple[np.ndarray, ResilienceReport]:
    """One-shot resilient sweep; returns ``(scores, report)``."""
    engine = ResilientEngine(config)
    scores = engine.cv_scores(
        x, y, bandwidths, kernel, backend=backend, backend_options=backend_options
    )
    return scores, engine.report


def resilient_parallel_sum(
    pool: WorkerPool,
    func: Callable[..., Any],
    total: int,
    *,
    shared_args: tuple = (),
    policy: RetryPolicy,
    report: ResilienceReport,
    sleep: Callable[[float], None] | None = None,
    rng: np.random.Generator | None = None,
) -> Any:
    """:func:`WorkerPool.sum_over_blocks` under retry + pool rebuild.

    The numerical optimiser's objective calls this instead of the bare
    pool method, so a crashed or hung worker costs one retry rather than
    the whole optimisation.
    """

    def attempt() -> Any:
        return pool.sum_over_blocks(func, total, shared_args=shared_args)

    def on_retry(exc: BaseException, attempt_no: int) -> None:
        report.record_fault("objective", exc)
        report.retries += 1
        if error_code(exc) in _POOL_FATAL_CODES:
            pool.rebuild()
            report.pool_rebuilds += 1

    return run_with_retry(
        attempt,
        policy=policy,
        retryable=is_retryable,
        on_retry=on_retry,
        sleep=sleep,
        rng=rng,
        label="parallel objective evaluation",
    )
