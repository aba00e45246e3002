"""Analytical GPU timing model.

The functional simulator executes the paper's program *correctly* at any
size the host can afford, but a Python interpreter cannot reproduce GPU
*wall-clock* at n = 20,000 (4·10⁸ pairwise operations per grid sweep).
Run time is therefore modelled analytically, in the style of a
roofline/little's-law estimate, and calibrated so the Tesla-S1070 profile
reproduces the shape of the paper's Tables I–II (see EXPERIMENTS.md for
paper-vs-model numbers).

Model per execution phase::

    compute_seconds = ops · cycles_per_op / (active_cores · clock)
    memory_seconds  = transactions · transaction_bytes / bandwidth
    phase_seconds   = max(compute, memory)        # perfect overlap

with two GT200-specific realities baked in:

* **Uncoalesced access.**  The paper's main kernel has each thread
  quicksort its own row of an n×n matrix in *global memory*; neighbouring
  threads touch addresses n elements apart, so every 4-byte access costs
  a full memory transaction (128 B segments on CC 1.3, no cache).  That —
  not arithmetic — dominates the program, which is why the speedup over
  sequential C is ~2.5× rather than ~240×.
* **Divergence penalty.**  Data-dependent branch patterns (quicksort
  partitions, window sweeps) serialise warps; a scalar multiplier
  calibrated once against Table I covers it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ValidationError
from repro.gpusim.device import DeviceSpec, get_device

__all__ = ["PhaseTime", "SimulatedRuntime", "TimingModel"]

#: CC 1.x global-memory transaction size for scattered 4-byte accesses.
UNCOALESCED_TRANSACTION_BYTES = 128

#: Per-kernel-launch driver overhead (seconds).
LAUNCH_OVERHEAD_SECONDS = 5e-6


@dataclass(frozen=True)
class PhaseTime:
    """Modelled time of one phase of a device program."""

    name: str
    compute_seconds: float
    memory_seconds: float

    @property
    def seconds(self) -> float:
        """Phase time under perfect compute/memory overlap."""
        return max(self.compute_seconds, self.memory_seconds)

    @property
    def bound(self) -> str:
        """Which resource limits the phase: ``"compute"`` or ``"memory"``."""
        return "compute" if self.compute_seconds >= self.memory_seconds else "memory"


@dataclass(frozen=True)
class SimulatedRuntime:
    """Total modelled run time with a per-phase breakdown."""

    phases: tuple[PhaseTime, ...]
    overhead_seconds: float

    @property
    def total_seconds(self) -> float:
        """Overhead plus the sum of all phase times."""
        return self.overhead_seconds + sum(p.seconds for p in self.phases)

    def phase(self, name: str) -> PhaseTime:
        """Look up a phase by name."""
        for p in self.phases:
            if p.name == name:
                return p
        raise ValidationError(f"no phase named {name!r}")

    def breakdown(self) -> str:
        """Human-readable table of the phase times."""
        lines = [f"{'phase':<18} {'seconds':>10} {'bound':>8}"]
        lines.append(f"{'(overhead)':<18} {self.overhead_seconds:>10.4f} {'-':>8}")
        for p in self.phases:
            lines.append(f"{p.name:<18} {p.seconds:>10.4f} {p.bound:>8}")
        lines.append(f"{'TOTAL':<18} {self.total_seconds:>10.4f}")
        return "\n".join(lines)


class TimingModel:
    """Roofline-style time estimates for a :class:`DeviceSpec`.

    Parameters
    ----------
    device:
        Device model (defaults to the paper's Tesla S1070).
    divergence_penalty:
        Scalar multiplier on both compute and memory terms covering warp
        divergence and partition-camping effects; 1.5 reproduces Table I
        on the Tesla profile.
    transaction_bytes:
        Memory transaction size charged per *uncoalesced* scalar access.
    """

    def __init__(
        self,
        device: str | DeviceSpec | None = None,
        *,
        divergence_penalty: float = 1.5,
        transaction_bytes: int = UNCOALESCED_TRANSACTION_BYTES,
    ):
        self.device = get_device(device)
        if divergence_penalty < 1.0:
            raise ValidationError("divergence_penalty must be >= 1")
        self.divergence_penalty = float(divergence_penalty)
        if transaction_bytes <= 0:
            raise ValidationError("transaction_bytes must be positive")
        self.transaction_bytes = int(transaction_bytes)

    # -- primitive costs ----------------------------------------------------

    def compute_seconds(self, ops: float, *, threads: int | None = None) -> float:
        """Time to retire ``ops`` scalar operations across the device.

        When fewer threads than cores are resident, only ``threads`` cores
        contribute (SPMD occupancy below saturation) — this is what makes
        the GPU *slower* than sequential C at small n in Table I.
        """
        if ops < 0:
            raise ValidationError("ops must be non-negative")
        cores = self.device.total_cores
        if threads is not None:
            # Round threads up to whole warps: a 10-thread launch still
            # occupies one 32-lane warp.
            warps = -(-max(threads, 1) // self.device.warp_size)
            cores = min(cores, warps * self.device.warp_size)
        rate = cores * self.device.clock_ghz * 1e9 / self.device.cycles_per_op
        return self.divergence_penalty * ops / rate

    def memory_seconds_coalesced(self, nbytes: float) -> float:
        """Streaming time for ``nbytes`` of fully coalesced traffic."""
        if nbytes < 0:
            raise ValidationError("nbytes must be non-negative")
        return self.divergence_penalty * nbytes / self.device.bytes_per_second

    def memory_seconds_uncoalesced(self, accesses: float) -> float:
        """Time for scattered scalar accesses: one transaction each."""
        if accesses < 0:
            raise ValidationError("accesses must be non-negative")
        return self.memory_seconds_coalesced(accesses * self.transaction_bytes)

    # -- phase assembly ------------------------------------------------------

    def phase(
        self,
        name: str,
        *,
        ops: float = 0.0,
        threads: int | None = None,
        coalesced_bytes: float = 0.0,
        uncoalesced_accesses: float = 0.0,
    ) -> PhaseTime:
        """Build a :class:`PhaseTime` from raw work counts."""
        return PhaseTime(
            name=name,
            compute_seconds=self.compute_seconds(ops, threads=threads),
            memory_seconds=(
                self.memory_seconds_coalesced(coalesced_bytes)
                + self.memory_seconds_uncoalesced(uncoalesced_accesses)
            ),
        )

    def launch_overhead(self, launches: int) -> float:
        """Driver overhead for ``launches`` kernel launches."""
        if launches < 0:
            raise ValidationError("launches must be non-negative")
        return launches * LAUNCH_OVERHEAD_SECONDS
