"""Deterministic, seeded fault injection.

The chaos harness for the whole library: a :class:`FaultInjector` holds a
set of :class:`FaultSpec` rules keyed by *site* — a short dotted string
naming an instrumented failure point — and decides, deterministically,
whether the ``i``-th event at that site fails.  Instrumented sites:

==================  =====================================================
``pool.worker``     a :class:`~repro.parallel.WorkerPool` work unit
                    (crash or timeout, raised inside the child process)
``gpusim.malloc``   a simulated ``cudaMalloc``
                    (:class:`~repro.exceptions.DeviceMemoryError`)
``gpusim.launch``   a simulated kernel launch
                    (:class:`~repro.exceptions.KernelExecutionError`)
``data.block``      a block of partial CV sums (NaN/Inf corruption,
                    applied by :func:`corrupt` in the resilient engine)
``shm.segment``     a shared-memory workspace attach/create
                    (:class:`~repro.exceptions.SharedSegmentError` — an
                    externally unlinked or purged ``/dev/shm`` segment)
``shm.worker``      a shared-memory pool work unit (crash or timeout,
                    raised inside the child like ``pool.worker``)
``bagged.subsample``  one subsample sweep of the bagged selector
                    (crash or timeout; the deterministic re-draw on
                    retry is what the bagged chaos suite exercises)
==================  =====================================================

Two trigger mechanisms, combinable per spec:

* ``at`` — explicit 0-based event indices, exactly reproducible;
* ``rate`` — per-event probability drawn from a generator seeded via
  :func:`repro.utils.rng.derive_seed_sequence` with the site name, so
  the Bernoulli sequence at each site is a pure function of the seed
  and the event order (NOT of wall clock, process id, or Python hash
  randomisation — string labels are folded in by crc32, not the
  per-process-salted ``hash()``).

Injection decisions are always drawn in the *parent* process (the pool
wraps work units with the decision already made), so a multi-process run
replays identically regardless of worker scheduling.

Usage::

    plan = FaultInjector([FaultSpec("pool.worker", "crash", at=(1,))], seed=7)
    with inject_faults(plan):
        result = select_bandwidth(x, y, backend="blocked-shm", resilience=True)
    plan.log    # [FaultEvent(site='pool.worker', kind='crash', index=1, ...)]
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.exceptions import (
    BlockTimeoutError,
    DeviceMemoryError,
    KernelExecutionError,
    SharedSegmentError,
    ValidationError,
    WorkerCrashError,
)
from repro.utils.rng import derive_seed_sequence

__all__ = [
    "FaultSpec",
    "FaultEvent",
    "FaultInjector",
    "inject_faults",
    "active_injector",
    "fire",
    "draw",
    "draw_many",
    "corrupt",
    "faulty_call",
    "KNOWN_SITES",
    "KNOWN_KINDS",
]

#: Instrumented failure points.
KNOWN_SITES = (
    "pool.worker",
    "gpusim.malloc",
    "gpusim.launch",
    "data.block",
    "shm.segment",
    "shm.worker",
    "bagged.subsample",
)

#: Fault kinds and the exception each one raises (``nan``/``inf`` corrupt
#: data instead of raising; detection is the engine's job).
KNOWN_KINDS = ("crash", "timeout", "oom", "launch", "unlink", "nan", "inf")

_RAISING_KINDS: dict[str, Callable[[str], Exception]] = {
    "crash": lambda ctx: WorkerCrashError(f"injected worker crash at {ctx}"),
    "timeout": lambda ctx: BlockTimeoutError(f"injected block timeout at {ctx}"),
    "oom": lambda ctx: DeviceMemoryError(f"injected cudaMalloc failure at {ctx}"),
    "launch": lambda ctx: KernelExecutionError(
        f"injected kernel-launch failure at {ctx}"
    ),
    "unlink": lambda ctx: SharedSegmentError(
        f"injected shared-segment unlink at {ctx}"
    ),
}


@dataclass(frozen=True)
class FaultSpec:
    """One injection rule: *what* fails, *where*, and *when*.

    Parameters
    ----------
    site:
        Instrumented site name (see :data:`KNOWN_SITES`).
    kind:
        Fault class (see :data:`KNOWN_KINDS`).
    at:
        Explicit 0-based event indices at that site that trigger the fault.
    rate:
        Additional per-event trigger probability in ``[0, 1]``, drawn from
        the injector's site-seeded generator.
    max_triggers:
        Stop firing after this many triggers (``None`` = unbounded).  A
        retried block *advances* the site counter, so a spec with
        ``at=(2,)`` fails the third event once and lets the retry through —
        exactly a transient fault.
    """

    site: str
    kind: str
    at: tuple[int, ...] = ()
    rate: float = 0.0
    max_triggers: int | None = None

    def __post_init__(self) -> None:
        if self.site not in KNOWN_SITES:
            raise ValidationError(
                f"unknown fault site {self.site!r}; known: {', '.join(KNOWN_SITES)}"
            )
        if self.kind not in KNOWN_KINDS:
            raise ValidationError(
                f"unknown fault kind {self.kind!r}; known: {', '.join(KNOWN_KINDS)}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValidationError(f"rate must be in [0, 1], got {self.rate}")
        object.__setattr__(self, "at", tuple(int(i) for i in self.at))


@dataclass(frozen=True)
class FaultEvent:
    """A fault that actually fired (one entry in :attr:`FaultInjector.log`)."""

    site: str
    kind: str
    index: int
    context: str = ""


def _site_seed(seed: int, site: str) -> np.random.SeedSequence:
    # Bit-compatible with the pre-consolidation SeedSequence([seed,
    # crc32(site)]) construction: recorded chaos schedules replay as-is.
    return derive_seed_sequence(seed, site)


class FaultInjector:
    """Replayable fault plan: ``(seed, site, event index) -> fault or None``.

    Each site keeps its own event counter and its own seeded generator, so
    adding a spec at one site never perturbs the trigger sequence at
    another.  Calling :meth:`reset` (or re-entering :func:`inject_faults`)
    rewinds every counter, replaying the identical fault sequence.
    """

    def __init__(self, specs: Sequence[FaultSpec] = (), *, seed: int = 0):
        self.seed = int(seed)
        self.specs: tuple[FaultSpec, ...] = tuple(specs)
        self.log: list[FaultEvent] = []
        self._counters: dict[str, int] = {}
        self._triggered: dict[int, int] = {}
        self._rngs: dict[str, np.random.Generator] = {}

    # -- lifecycle ---------------------------------------------------------

    def reset(self) -> None:
        """Rewind all counters/generators; the next run replays exactly."""
        self.log.clear()
        self._counters.clear()
        self._triggered.clear()
        self._rngs.clear()

    def _rng(self, site: str) -> np.random.Generator:
        if site not in self._rngs:
            self._rngs[site] = np.random.default_rng(_site_seed(self.seed, site))
        return self._rngs[site]

    # -- decisions ---------------------------------------------------------

    def draw(self, site: str, context: str = "") -> FaultSpec | None:
        """Consume one event at ``site``; return the spec that fires, if any.

        Exactly one uniform variate is drawn per event at a site with any
        rate-based spec, so the decision sequence is a pure function of
        ``(seed, site, event order)``.
        """
        index = self._counters.get(site, 0)
        self._counters[site] = index + 1
        site_specs = [s for s in self.specs if s.site == site]
        rated = any(s.rate > 0.0 for s in site_specs)
        u = float(self._rng(site).random()) if rated else 1.0
        for spec in site_specs:
            remaining = spec.max_triggers is None or (
                self._triggered.get(id(spec), 0) < spec.max_triggers
            )
            if not remaining:
                continue
            if index in spec.at or (spec.rate > 0.0 and u < spec.rate):
                self._triggered[id(spec)] = self._triggered.get(id(spec), 0) + 1
                self.log.append(FaultEvent(site, spec.kind, index, context))
                return spec
        return None

    def fire(self, site: str, context: str = "") -> None:
        """Raise the site's injected exception if this event triggers."""
        spec = self.draw(site, context)
        if spec is None:
            return
        make = _RAISING_KINDS.get(spec.kind)
        if make is None:
            raise ValidationError(
                f"fault kind {spec.kind!r} does not raise; use corrupt() "
                f"at site {site!r}"
            )
        raise make(context or site)

    def corrupt(self, site: str, values: np.ndarray, context: str = "") -> np.ndarray:
        """Return ``values``, NaN/Inf-poisoned when this event triggers."""
        spec = self.draw(site, context)
        if spec is None:
            return values
        poisoned = np.array(values, dtype=np.float64, copy=True)
        poison = np.nan if spec.kind != "inf" else np.inf
        if poisoned.size:
            # Deterministic position: spread the poison from a fixed slot.
            poisoned.flat[poisoned.size // 2] = poison
        return poisoned


# -- the process-global active plan ----------------------------------------

_ACTIVE: FaultInjector | None = None


def active_injector() -> FaultInjector | None:
    """The currently installed injector (``None`` outside chaos runs)."""
    return _ACTIVE


@contextmanager
def inject_faults(injector: FaultInjector) -> Iterator[FaultInjector]:
    """Install ``injector`` as the process-global fault plan.

    Counters are reset on entry so each ``with`` block replays the same
    fault sequence.  Nesting is rejected: two overlapping plans would
    interleave counters and destroy replayability.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise ValidationError("fault injection is already active; do not nest")
    injector.reset()
    _ACTIVE = injector
    try:
        yield injector
    finally:
        _ACTIVE = None


# -- hook-site helpers (no-ops when no plan is active) ----------------------


def fire(site: str, context: str = "") -> None:
    """Hook call for raising sites (``gpusim.malloc``, ``gpusim.launch``)."""
    if _ACTIVE is not None:
        _ACTIVE.fire(site, context)


def draw(site: str, context: str = "") -> str | None:
    """Draw one decision; returns the fault kind or ``None``."""
    if _ACTIVE is None:
        return None
    spec = _ACTIVE.draw(site, context)
    return None if spec is None else spec.kind


def draw_many(site: str, count: int, context: str = "") -> list[str | None]:
    """Draw ``count`` decisions in order (one per pool work unit)."""
    if _ACTIVE is None:
        return [None] * count
    return [draw(site, f"{context}[{i}]") for i in range(count)]


def corrupt(site: str, values: np.ndarray, context: str = "") -> np.ndarray:
    """Hook call for the data-corruption site (``data.block``)."""
    if _ACTIVE is None:
        return values
    return _ACTIVE.corrupt(site, values, context)


def faulty_call(kind: str | None, func: Callable[..., Any], *args: Any) -> Any:
    """Execute ``func(*args)`` under a pre-drawn fault directive.

    Top-level (hence picklable) so :class:`~repro.parallel.WorkerPool` can
    ship it to a forked worker with the parent's decision baked in; the
    injected exception is raised *inside the child*, travelling back
    through the pool exactly like a real worker failure would.
    """
    if kind == "crash":
        raise WorkerCrashError("injected worker crash (simulated dead child)")
    if kind == "timeout":
        raise BlockTimeoutError("injected worker stall (simulated hung child)")
    return func(*args)
