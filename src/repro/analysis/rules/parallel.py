"""Parallel safety: PAR001 (work units must be picklable)."""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.engine import ModuleContext
from repro.analysis.findings import Finding
from repro.analysis.rules.base import Rule, register_rule

__all__ = ["PicklableWorkUnitRule"]


def _contains_lambda(node: ast.AST) -> bool:
    return any(isinstance(sub, ast.Lambda) for sub in ast.walk(node))


@register_rule
class PicklableWorkUnitRule(Rule):
    """PAR001 — pool submissions take module-level functions only.

    ``WorkerPool`` fans work out over OS processes; lambdas and closures
    are unpicklable, so submitting one crashes at runtime — but only on
    the multiprocess path, which the serial fallback (1 worker, 1 item)
    silently skips.  The crash therefore hides until production scale.
    """

    rule_id = "PAR001"
    summary = "lambda/closure submitted to a process pool"
    rationale = (
        "multiprocessing pickles the work unit; lambdas and nested "
        "functions fail to pickle, and the serial fallback masks the "
        "crash until the pool actually fans out."
    )

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            if not self._is_pool_submission(ctx, node):
                continue
            work_unit = node.args[0]
            if _contains_lambda(work_unit):
                yield self.finding(
                    ctx,
                    node,
                    "lambda submitted to a process pool is unpicklable; "
                    "use a module-level function",
                )
            elif (
                isinstance(work_unit, ast.Name)
                and work_unit.id in ctx.nested_functions
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"nested function {work_unit.id!r} submitted to a "
                    "process pool is unpicklable; move it to module level",
                )

    @staticmethod
    def _is_pool_submission(ctx: ModuleContext, node: ast.Call) -> bool:
        cfg = ctx.config
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in cfg.pool_method_names:
            receiver = ctx.dotted_name(func.value)
            if receiver is not None:
                lowered = receiver.lower()
                return any(hint in lowered for hint in cfg.pool_receiver_hints)
        return False
