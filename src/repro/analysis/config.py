"""Project-layout configuration for the lint rules.

Module-scoped rules (hot-path allocation, API validation, device
determinism) decide whether they apply to a file by matching its path
*relative to the package root* against glob patterns.  The defaults
below encode this repository's layout; every field is read by a rule
(``tests/test_stale_registries.py`` checks this).
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatch

__all__ = ["LintConfig", "DEFAULT_CONFIG"]


@dataclass(frozen=True)
class LintConfig:
    """Knobs shared by the rule set.

    Path patterns are ``fnmatch`` globs matched against the
    package-relative posix path (e.g. ``core/fastgrid.py``).
    """

    # -- module classification --------------------------------------------
    #: O(n²)-sweep modules where per-iteration allocation is a perf bug.
    hot_path_modules: tuple[str, ...] = (
        "core/fastgrid.py",
        "core/loocv.py",
        "kde/lscv.py",
        "gpusim/*.py",
        "cuda_port/*.py",
    )
    #: Public entry-point modules whose array args must be validated.
    api_modules: tuple[str, ...] = (
        "core/api.py",
        "kde/*.py",
        "regression/*.py",
        "multivariate/*.py",
    )
    #: Simulated-device modules that must stay deterministic.
    gpu_modules: tuple[str, ...] = (
        "gpusim/*.py",
        "cuda_port/*.py",
    )
    #: ROB001: layers allowed to absorb broad exceptions.  The resilience
    #: layer classifies them by REPRO_* code into retry/degrade/propagate;
    #: the two serving boundary modules convert every fault into a typed
    #: per-request outcome (an HTTP status / a failed future) instead of
    #: crashing the shared event loop.
    resilience_modules: tuple[str, ...] = (
        "resilience/*.py",
        "serving/scheduler.py",
        "serving/server.py",
    )
    #: SRV001: event-loop modules where blocking calls stall all requests.
    serving_modules: tuple[str, ...] = ("serving/*.py",)
    #: DET001: reduction-path modules where iteration order is part
    #: of the bit-identical-fold contract every parallel backend inherits.
    determinism_modules: tuple[str, ...] = (
        "core/*.py",
        "kde/*.py",
        "multivariate/*.py",
        "utils/*.py",
        "parallel/*.py",
        "resilience/*.py",
    )
    #: CON001/002: modules that own process/shared-memory lifecycles.
    concurrency_modules: tuple[str, ...] = (
        "bagged/*.py",
        "parallel/*.py",
        "resilience/*.py",
        "serving/*.py",
        "core/*.py",
        "obs/*.py",
    )

    # -- NUM004: allocations that must name their dtype -------------------
    explicit_dtype_calls: tuple[str, ...] = (
        "numpy.empty",
        "numpy.zeros",
        "numpy.ones",
        "numpy.full",
    )

    # -- NUM003: allocating calls that may not sit inside a loop ----------
    loop_allocation_calls: tuple[str, ...] = (
        "numpy.empty",
        "numpy.zeros",
        "numpy.ones",
        "numpy.full",
        "numpy.arange",
        "numpy.concatenate",
        "numpy.stack",
        "numpy.vstack",
        "numpy.hstack",
        "numpy.column_stack",
    )

    # -- OBS001: tracing calls that may not sit inside a hot loop ---------
    #: Terminal names of the ``repro.obs`` recording primitives.  A call
    #: whose last dotted segment matches (``tracer.span``,
    #: ``current_tracer``, ``t.counter``…) inside a For/While of a
    #: hot-path module is a per-iteration clock read + ring-buffer append.
    tracing_call_names: tuple[str, ...] = (
        "span",
        "counter",
        "record_max",
        "current_tracer",
        "use_tracer",
    )

    # -- NUM002: the validation funnel ------------------------------------
    #: Terminal names of the helpers in ``repro.utils.validation`` /
    #: ``repro.multivariate.validation`` that count as validating.
    validator_names: tuple[str, ...] = (
        "as_float_array",
        "check_paired_samples",
        "ensure_bandwidths",
        "check_positive_int",
        "as_design_matrix",
        "check_multivariate_sample",
        "ensure_bandwidth_vector",
    )
    #: Parameter names that signal "this argument is a data array".
    array_param_names: tuple[str, ...] = ("x", "y", "at", "data", "bandwidths")

    # -- PAR001: process-pool submission points ---------------------------
    pool_method_names: tuple[str, ...] = (
        "map",
        "starmap",
        "apply",
        "apply_async",
        "imap",
        "imap_unordered",
    )
    #: A method call counts as a pool submission when the receiver's
    #: dotted name contains one of these substrings (case-insensitive).
    pool_receiver_hints: tuple[str, ...] = ("pool",)

    # -- SRV001: calls that must not run on the serving event loop --------
    serving_blocking_calls: tuple[str, ...] = (
        "time.sleep",
        "subprocess.run",
        "subprocess.check_call",
        "subprocess.check_output",
        "urllib.request.urlopen",
        "socket.create_connection",
        "requests.get",
        "requests.post",
    )

    # -- GPU001: nondeterminism sources banned on the device --------------
    banned_call_prefixes: tuple[str, ...] = ("time.", "random.")
    #: ``numpy.random.*`` members that are allowed (seeded construction).
    allowed_numpy_random: tuple[str, ...] = (
        "Generator",
        "SeedSequence",
        "default_rng",  # only with an explicit seed; the rule checks args
    )

    # -- DET003: seeded-RNG discipline ------------------------------------
    #: Modules where every random stream must derive from an explicit
    #: seed (``repro.utils.rng``).  Library-wide by default — the bagged
    #: selector's bit-for-bit claim is only as strong as the least
    #: disciplined draw site.  Tests are exempt simply because the lint
    #: scans the package, not the test tree.
    seeded_rng_modules: tuple[str, ...] = ("*",)

    # -- DET001: order-sensitive reduction sinks --------------------------
    #: Terminal names of the strict-fold primitives: any value that
    #: reaches one of these must arrive in deterministic order.
    fold_call_names: tuple[str, ...] = ("fold_rows", "compensated_sum")

    # -- CON001/002: resource-owning constructors -------------------------
    #: Terminal (class.method or class) names that allocate a shared
    #: memory segment the caller must close+unlink on every path.
    shm_create_call_names: tuple[str, ...] = (
        "SharedMemory",
        "ShmWorkspace.create",
        "SharedArray.create",
    )
    #: Pool classes whose instances need with/try-finally lifecycles.
    pool_class_names: tuple[str, ...] = ("WorkerPool",)

    def matches(self, rel_path: str, patterns: tuple[str, ...]) -> bool:
        """Whether ``rel_path`` (posix, package-relative) matches any glob."""
        return any(fnmatch(rel_path, pat) for pat in patterns)


DEFAULT_CONFIG = LintConfig()
