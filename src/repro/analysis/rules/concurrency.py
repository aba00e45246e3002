"""Concurrency-lifecycle rules: CON001 (shared-memory segments) and
CON002 (worker-pool lifecycles).

The zero-copy substrate (``parallel/shm.py``) and the fork pool
(``parallel/pool.py``) have strict ownership stories: the parent creates
and unlinks every segment, pools are closed or terminated on every exit
path.  These rules encode the ownership story as checkable shape: a
resource-owning constructor call must either be a ``with`` context,
hand ownership off (returned, stored into a container/attribute, passed
to another owner), or have its cleanup reachable from a ``try``'s
handler or ``finally`` — i.e. on the *error* path, not just the happy
path.

Heuristics are deliberately shape-based (no interprocedural escape
analysis): a resource that escapes the function is *someone else's*
lifecycle and is never flagged.  False negatives are acceptable; false
positives on the repo's own correct patterns are not — the shapes above
were derived from ``shm.py``/``pool.py``/``blockwise.py``/``selectors.py``.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.engine import ModuleContext
from repro.analysis.findings import Finding
from repro.analysis.rules.base import Rule, register_rule

__all__ = ["PoolLifecycleRule", "ShmLifecycleRule"]

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _matches_suffix(canonical: str | None, names: tuple[str, ...]) -> bool:
    """Whether a canonical dotted name ends with one of ``names`` on a
    dotted boundary (``repro.parallel.shm.ShmWorkspace.create`` matches
    ``ShmWorkspace.create``)."""
    if canonical is None:
        return False
    return any(
        canonical == name or canonical.endswith("." + name) for name in names
    )


def _extract_call(
    ctx: ModuleContext, value: ast.expr, names: tuple[str, ...]
) -> ast.Call | None:
    """The constructor call matching ``names`` inside an assignment RHS.

    Sees through the repo's conditional-ownership idioms:
    ``pool or WorkerPool(w)`` and ``WorkerPool(w) if cond else None``.
    """
    candidates: list[ast.expr] = [value]
    if isinstance(value, ast.BoolOp):
        candidates = list(value.values)
    elif isinstance(value, ast.IfExp):
        candidates = [value.body, value.orelse]
    for expr in candidates:
        if isinstance(expr, ast.Call) and _matches_suffix(
            ctx.canonical_name(expr.func), names
        ):
            return expr
    return None


def _enclosing_scope(ctx: ModuleContext, node: ast.AST) -> ast.AST:
    for anc in ctx.ancestors(node):
        if isinstance(anc, _FUNC_NODES):
            return anc
    return ctx.tree


def _carries(node: ast.AST, name: str) -> bool:
    """Whether ``node`` carries ``name`` itself onward.

    ``name.method(...)`` carries the method's result, not the resource,
    so a ``Name`` that is only the receiver of an attribute call does
    not count.
    """
    receivers = {
        id(sub.func.value)
        for sub in ast.walk(node)
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
    }
    return any(
        isinstance(sub, ast.Name) and sub.id == name and id(sub) not in receivers
        for sub in ast.walk(node)
    )


def _escapes(scope: ast.AST, name: str) -> bool:
    """Whether ``name`` leaves the scope's ownership.

    Escape routes (each hands the resource to another owner): returned
    or yielded; stored into a container slot or an attribute; passed as
    an argument to another call.  A method call *on* the name
    (``name.close()``, ``return name.starmap(...)``) is not an escape.
    """
    for node in ast.walk(scope):
        if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
            if node.value is not None and _carries(node.value, name):
                return True
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    if _carries(node.value, name):
                        return True
        elif isinstance(node, ast.Call):
            for arg in node.args:
                if isinstance(arg, ast.Name) and arg.id == name:
                    return True
            for kw in node.keywords:
                if isinstance(kw.value, ast.Name) and kw.value.id == name:
                    return True
    return False


def _calls_method(scope: ast.AST, name: str, methods: tuple[str, ...]) -> bool:
    """Whether the scope calls ``name.<method>()`` for one of ``methods``."""
    return any(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in methods
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == name
        for node in ast.walk(scope)
    )


def _cleanup_on_error_path(
    scope: ast.AST, name: str, cleanup_methods: tuple[str, ...]
) -> bool:
    """Whether ``name.<cleanup>()`` is reachable when an exception unwinds.

    Accepted shapes: the cleanup call sits in a ``finally`` or an
    ``except`` handler of some Try in the scope, or the name itself is a
    ``with`` context (``with pool:``).  Cleanup only on the straight-line
    path does NOT count — that is exactly the leak-on-error bug.
    """
    for node in ast.walk(scope):
        if isinstance(node, ast.Try):
            protected: list[ast.stmt] = list(node.finalbody)
            for handler in node.handlers:
                protected.extend(handler.body)
            if any(
                _calls_method(stmt, name, cleanup_methods) for stmt in protected
            ):
                return True
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if (
                    isinstance(item.context_expr, ast.Name)
                    and item.context_expr.id == name
                ):
                    return True
    return False


class _LifecycleRule(Rule):
    """Shared machinery for the create-without-cleanup rules."""

    create_names_attr = ""
    cleanup_methods: tuple[str, ...] = ()
    #: Calls that start the resource's lifecycle: a scope that makes one
    #: owns the resource even when it also passes it to a helper.
    owner_methods: tuple[str, ...] = ()

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.in_modules(ctx.config.concurrency_modules)

    def _creation_sites(
        self, ctx: ModuleContext, names: tuple[str, ...]
    ) -> Iterator[tuple[ast.Assign, str, ast.Call]]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Assign):
                continue
            call = _extract_call(ctx, node.value, names)
            if call is None:
                continue
            if len(node.targets) != 1 or not isinstance(
                node.targets[0], ast.Name
            ):
                # Attribute/container targets transfer ownership to the
                # holder; tuple targets don't occur for constructors.
                continue
            yield node, node.targets[0].id, call

    def _leaks(self, ctx: ModuleContext, site: ast.Assign, name: str) -> bool:
        scope = _enclosing_scope(ctx, site)
        if _cleanup_on_error_path(scope, name, self.cleanup_methods):
            return False
        if _calls_method(scope, name, self.owner_methods):
            return True
        return not _escapes(scope, name)


@register_rule
class ShmLifecycleRule(_LifecycleRule):
    """CON001 — shared-memory creation must close+unlink on every path.

    A segment that is neither with-managed, handed off, nor cleaned up
    under a ``try`` outlives its process in ``/dev/shm`` the first time
    an exception unwinds — the exact litter the chaos suite sweeps for.
    """

    rule_id = "CON001"
    summary = "shared-memory segment created without error-path cleanup"
    rationale = (
        "POSIX shared memory outlives the process: a segment created "
        "outside with/try-finally leaks into /dev/shm whenever an "
        "exception unwinds, and leaked names eventually collide or "
        "exhaust the tmpfs.  Ownership is parental and explicit — "
        "create under a context manager or close()+unlink() in a "
        "finally/except."
    )
    cleanup_methods = ("close", "unlink")

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for site, name, call in self._creation_sites(
            ctx, ctx.config.shm_create_call_names
        ):
            canonical = ctx.canonical_name(call.func) or ""
            if canonical.rsplit(".", 1)[-1] == "SharedMemory":
                # Bare SharedMemory(...) owns the name only when it
                # *creates* it; attaching (create absent/False) needs no
                # unlink and is the worker-side pattern.
                if not any(
                    kw.arg == "create"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                    for kw in call.keywords
                ):
                    continue
            if self._leaks(ctx, site, name):
                yield self.finding(
                    ctx,
                    site,
                    f"segment {name!r} has no close()+unlink() on the "
                    "error path; use a with block or try/finally "
                    "(parent-owns-and-unlinks contract)",
                )


@register_rule
class PoolLifecycleRule(_LifecycleRule):
    """CON002 — worker pools need with/try-finally lifecycles.

    A pool abandoned by an unwinding exception keeps its forked workers
    (and their shm attachments) alive until interpreter exit; under
    pytest or the serving daemon that is a fork bomb in slow motion.
    A pool the function opens itself is its own to close, even when it
    also passes the pool to a helper.
    """

    rule_id = "CON002"
    summary = "worker pool constructed without with/try-finally lifecycle"
    rationale = (
        "Forked workers survive their parent's exception: a pool that "
        "is not with-managed or closed/terminated in a finally/except "
        "strands processes (and any shared-memory attachments they "
        "hold) until interpreter exit."
    )
    cleanup_methods = ("close", "terminate", "join")
    owner_methods = ("open",)

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for site, name, _call in self._creation_sites(
            ctx, ctx.config.pool_class_names
        ):
            if self._leaks(ctx, site, name):
                yield self.finding(
                    ctx,
                    site,
                    f"pool {name!r} is not closed/terminated on the error "
                    "path; use `with WorkerPool(...)` or try/finally",
                )
