"""Determinism rules: DET001 (unordered iteration into a strict fold),
DET002 (completion-order collection primitives), DET003 (process-global
or unseeded RNG in library code).

The whole library's cross-backend story rests on one contract
(``utils/numeric.fold_rows``): partial results are folded **in index
order**, so the CV curve is bit-identical at every worker count and
block size.  Floating-point addition is not associative — feeding the
fold from a container whose iteration order is not the index order
(sets; dicts filled in completion order) silently re-associates the sum
and the differential harness starts flagging one-ULP drifts that no
unit test pins down.

DET001 uses the dtype lattice for its one exemption: integer folds are
exact, so summing ``nbytes`` over a dict is fine — order only matters
once a float enters the accumulation.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.dtypeflow import (
    DType,
    FunctionAnalysis,
    analyse_function,
    analyse_module_level,
)
from repro.analysis.engine import ModuleContext
from repro.analysis.findings import Finding
from repro.analysis.rules.base import Rule, register_rule

__all__ = ["SeededRngRule", "UnorderedCollectionRule", "UnorderedFoldRule"]

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)

#: dict/set view methods whose iteration order follows the container's.
_VIEW_METHODS = frozenset({"keys", "values", "items"})


def _terminal_name(ctx: ModuleContext, call: ast.Call) -> str | None:
    """Last dotted segment of the called name (``pool.imap_unordered`` →
    ``imap_unordered``)."""
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    if isinstance(call.func, ast.Name):
        return call.func.id
    return None


class _OrderTracker:
    """Names bound to unordered containers within one scope.

    A flow-insensitive approximation: one pass collects every name
    assigned an unordered expression anywhere in the scope.  Rebinding a
    name to something ordered does not clear it — acceptable here
    because the rule's job is "this value *may* arrive in hash/completion
    order", and the fix (``sorted(...)``) is cheap.
    """

    def __init__(self, ctx: ModuleContext, scope: ast.AST):
        self.ctx = ctx
        self.unordered: set[str] = set()
        # Iterate to a fixed point so ``a = {…}; b = a`` marks both.
        changed = True
        while changed:
            changed = False
            for node in ast.walk(scope):
                if not isinstance(node, ast.Assign):
                    continue
                if not self._is_unordered(node.value):
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id not in self.unordered:
                        self.unordered.add(target.id)
                        changed = True

    def _is_unordered(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.unordered
        if isinstance(node, ast.Call):
            name = self.ctx.canonical_name(node.func)
            if name in ("set", "frozenset"):
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _VIEW_METHODS
                and self._is_unordered(node.func.value)
            ):
                return True
        return False

    def iteration_is_unordered(self, node: ast.expr) -> bool:
        """Whether iterating ``node`` yields elements in unstable order.

        Sets always; dict *views* only when the dict itself is marked
        unordered (dicts preserve insertion order — the hazard is a dict
        *filled* in completion order, which DET002 catches at the fill).
        """
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.unordered
        if isinstance(node, ast.Call):
            name = self.ctx.canonical_name(node.func)
            if name in ("set", "frozenset"):
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _VIEW_METHODS
            ):
                return self._is_unordered(node.func.value)
        return False


def _scopes(ctx: ModuleContext) -> Iterator[tuple[ast.AST, list[ast.stmt]]]:
    """(scope node, body) for the module and every function in it."""
    yield ctx.tree, [
        stmt
        for stmt in ctx.tree.body
        if not isinstance(stmt, _FUNC_NODES + (ast.ClassDef,))
    ]
    for node in ast.walk(ctx.tree):
        if isinstance(node, _FUNC_NODES):
            yield node, node.body


def _walk_scope(body: list[ast.stmt]) -> Iterator[ast.AST]:
    """Walk statements without descending into nested function scopes
    (each nested def is visited by its own :func:`_scopes` entry)."""
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, _FUNC_NODES + (ast.Lambda,)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _analysis_for(
    ctx: ModuleContext, scope: ast.AST
) -> FunctionAnalysis | None:
    """Dtype analysis of ``scope`` (None when the module has no index)."""
    if ctx.module_info is None:
        return None
    if isinstance(scope, _FUNC_NODES):
        return analyse_function(scope, ctx.module_info, ctx.project)
    return analyse_module_level(ctx.module_info, ctx.project)


def _all_int(analysis: FunctionAnalysis | None, call: ast.Call) -> bool:
    """Whether every argument of ``call`` is provably integer.

    Integer addition is exact and associative, so order-of-arrival does
    not change an int fold; only float folds are order-sensitive.
    """
    if analysis is None or not call.args:
        return False
    return all(
        analysis.dtype_of(arg) is DType.INT
        for arg in call.args
        if not isinstance(arg, (ast.GeneratorExp, ast.ListComp))
    ) and all(
        analysis.dtype_of(arg.elt) is DType.INT
        for arg in call.args
        if isinstance(arg, (ast.GeneratorExp, ast.ListComp))
    )


@register_rule
class UnorderedFoldRule(Rule):
    """DET001 — strict-fold inputs must not come from unordered iteration.

    ``fold_rows``/``compensated_sum`` exist to make float reductions
    bit-reproducible; iterating a set (hash order) or a completion-filled
    dict on the way in re-associates the sum per run.
    """

    rule_id = "DET001"
    summary = "set/dict-order iteration feeds a strict float fold"
    rationale = (
        "fold_rows/compensated_sum are order contracts: float addition "
        "is non-associative, so hash- or completion-ordered inputs give "
        "a different bit pattern per run and break the partition-"
        "invariant CV curve (ROADMAP item 2).  Iterate sorted(...) or "
        "index order instead.  Provably-integer folds are exempt: int "
        "addition is exact."
    )

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.in_modules(ctx.config.determinism_modules)

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        fold_names = set(ctx.config.fold_call_names)
        for scope, body in _scopes(ctx):
            tracker = _OrderTracker(ctx, scope)
            analysis: FunctionAnalysis | None = None
            analysed = False
            for node in _walk_scope(body):
                fold_call = self._fold_fed_unordered(
                    ctx, tracker, node, fold_names
                )
                if fold_call is None:
                    continue
                if not analysed:
                    analysis = _analysis_for(ctx, scope)
                    analysed = True
                if _all_int(analysis, fold_call):
                    continue
                yield self.finding(
                    ctx,
                    node,
                    "strict fold fed from unordered iteration; float "
                    "folds are order contracts — iterate sorted(...) "
                    "or index order",
                )

    def _fold_fed_unordered(
        self,
        ctx: ModuleContext,
        tracker: _OrderTracker,
        node: ast.AST,
        fold_names: set[str],
    ) -> ast.Call | None:
        """The offending fold call under ``node``, if any.

        Two shapes: a for-loop over an unordered source whose body calls
        a fold, and a fold call whose argument is (or iterates) an
        unordered container.
        """
        if isinstance(node, (ast.For, ast.AsyncFor)):
            if not tracker.iteration_is_unordered(node.iter):
                return None
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.Call)
                    and _terminal_name(ctx, sub) in fold_names
                ):
                    return sub
            return None
        if isinstance(node, ast.Call) and _terminal_name(ctx, node) in fold_names:
            for arg in node.args:
                if tracker.iteration_is_unordered(arg):
                    return node
                if isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
                    if any(
                        tracker.iteration_is_unordered(gen.iter)
                        for gen in arg.generators
                    ):
                        return node
        return None


@register_rule
class SeededRngRule(Rule):
    """DET003 — library randomness must derive from an explicit seed.

    Every replayable contract in the repo — the bagged subsample draws,
    fault-injection schedules, chaos transports, retry jitter — rests on
    streams that are pure functions of a root seed
    (:mod:`repro.utils.rng`).  ``np.random.seed()`` mutates hidden
    process-global state that any import can clobber, and a no-argument
    ``default_rng()`` reseeds from the OS on every call; either one in a
    library module makes a "same seed, same answer" claim unverifiable.
    GPU/device modules are covered by GPU001's stricter variant of the
    same check and are excluded here to keep findings single-sourced.
    """

    rule_id = "DET003"
    summary = "process-global or unseeded numpy RNG in library code"
    rationale = (
        "np.random.seed() mutates shared global state and argless "
        "default_rng() seeds from the OS — both break the bit-for-bit "
        "replay contracts (bagged draws, fault schedules, chaos "
        "transports).  Derive streams from an explicit root via "
        "repro.utils.rng (derive_rng / spawn_seeds) instead."
    )

    def applies_to(self, ctx: ModuleContext) -> bool:
        # GPU001 already polices device modules (with a wider net);
        # excluding them here keeps each draw site to one finding.
        return ctx.in_modules(ctx.config.seeded_rng_modules) and not ctx.in_modules(
            ctx.config.gpu_modules
        )

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = ctx.call_name(node)
            if name == "numpy.random.seed":
                yield self.finding(
                    ctx,
                    node,
                    "np.random.seed() mutates the process-global RNG any "
                    "import can clobber; derive a stream from an explicit "
                    "root with repro.utils.rng instead",
                )
            elif (
                name == "numpy.random.default_rng"
                and not node.args
                and not node.keywords
            ):
                yield self.finding(
                    ctx,
                    node,
                    "default_rng() without a seed draws fresh OS entropy "
                    "per call; pass a seed (e.g. repro.utils.rng."
                    "spawn_seed) so the stream replays",
                )


@register_rule
class UnorderedCollectionRule(Rule):
    """DET002 — no completion-order collection in the fan-in paths.

    ``imap_unordered``/``as_completed`` yield results in *completion*
    order — scheduler noise becomes data order, and anything folded from
    it inherits a per-run bit pattern.  The repo's fan-ins (the
    blocked-shm row matrix, the wave loop in resilience) key every
    partial by row or block index and fold in that order; new collection
    sites must do the same, starting from an ordered primitive.
    """

    rule_id = "DET002"
    summary = "completion-order collection primitive (imap_unordered/as_completed)"
    rationale = (
        "Completion order is scheduler noise; collecting with it makes "
        "the fold order — and therefore the float bit pattern — vary "
        "per run.  Use the ordered variant (imap/map) or key results by "
        "index and iterate sorted(...) before folding."
    )

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.in_modules(ctx.config.collection_modules)

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        banned = set(ctx.config.unordered_collection_calls)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if _terminal_name(ctx, node) not in banned:
                continue
            yield self.finding(
                ctx,
                node,
                f"{_terminal_name(ctx, node)}() yields results in "
                "completion order; collect ordered (imap/map) or key by "
                "index and sort before the fold",
            )
