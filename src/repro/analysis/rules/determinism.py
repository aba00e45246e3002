"""Determinism rules: DET001 (unordered iteration into a strict fold) and
DET003 (process-global or unseeded RNG in library code).

The whole library's cross-backend story rests on one contract
(``utils/numeric.fold_rows``): partial results are folded **in index
order**, so the CV curve is bit-identical at every worker count and
block size.  Floating-point addition is not associative — feeding the
fold from a container whose iteration order is not the index order
(sets; dicts filled in completion order) silently re-associates the sum
and the differential harness starts flagging one-ULP drifts that no
unit test pins down.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.engine import ModuleContext
from repro.analysis.findings import Finding
from repro.analysis.rules.base import Rule, register_rule

__all__ = ["SeededRngRule", "UnorderedFoldRule"]

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)

#: dict/set view methods whose iteration order follows the container's.
_VIEW_METHODS = frozenset({"keys", "values", "items"})


def _terminal_name(call: ast.Call) -> str | None:
    """Last dotted segment of the called name (``numeric.fold_rows`` →
    ``fold_rows``)."""
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
        unordered (dicts preserve insertion order; a plain dict is only
        as unordered as whatever filled it).
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
        "invariant CV curve.  Iterate sorted(...) or index order "
        "instead."
    )

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.in_modules(ctx.config.determinism_modules)

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        fold_names = set(ctx.config.fold_call_names)
        for scope, body in _scopes(ctx):
            tracker = _OrderTracker(ctx, scope)
            for node in _walk_scope(body):
                if not self._fold_fed_unordered(tracker, node, fold_names):
                    continue
                yield self.finding(
                    ctx,
                    node,
                    "strict fold fed from unordered iteration; float "
                    "folds are order contracts — iterate sorted(...) "
                    "or index order",
                )

    @staticmethod
    def _fold_fed_unordered(
        tracker: _OrderTracker,
        node: ast.AST,
        fold_names: set[str],
    ) -> bool:
        """Whether ``node`` feeds a fold from unordered iteration.

        Two shapes: a for-loop over an unordered source whose body calls
        a fold, and a fold call whose argument is (or iterates) an
        unordered container.
        """
        if isinstance(node, (ast.For, ast.AsyncFor)):
            return tracker.iteration_is_unordered(node.iter) and any(
                isinstance(sub, ast.Call) and _terminal_name(sub) in fold_names
                for sub in ast.walk(node)
            )
        if not (isinstance(node, ast.Call) and _terminal_name(node) in fold_names):
            return False
        return any(
            tracker.iteration_is_unordered(arg)
            or (
                isinstance(arg, (ast.GeneratorExp, ast.ListComp))
                and any(
                    tracker.iteration_is_unordered(gen.iter)
                    for gen in arg.generators
                )
            )
            for arg in node.args
        )


@register_rule
class SeededRngRule(Rule):
    """DET003 — library randomness must derive from an explicit seed.

    Every replayable contract in the repo — the bagged subsample draws,
    fault-injection schedules, chaos transports — rests on streams that
    are pure functions of a root seed (:mod:`repro.utils.rng`).
    ``np.random.seed()`` mutates hidden
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
