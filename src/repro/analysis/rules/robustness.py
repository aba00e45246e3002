"""Robustness hygiene: ROB001 (broad excepts).

The resilience layer is the one place allowed to catch-and-classify
arbitrary failures: it routes them by their stable ``REPRO_*`` error code
into retry, degrade, or propagate.  Anywhere else, a broad handler that
does not re-raise turns a typed, actionable failure into a silent wrong
answer — the worst outcome for a numerical reproduction.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.engine import ModuleContext
from repro.analysis.findings import Finding
from repro.analysis.rules.base import Rule, register_rule

__all__ = ["BroadExceptRule"]

#: Exception names that catch (nearly) everything.
_BROAD_NAMES = frozenset({"Exception", "BaseException"})


@register_rule
class BroadExceptRule(Rule):
    """ROB001 — broad ``except`` without re-raise, outside the resilience layer.

    ``except:`` / ``except Exception:`` / ``except BaseException:`` may
    only appear where the handler re-raises (typically wrapping the
    original in a typed :class:`~repro.exceptions.ReproError`) or inside
    the resilience layer, whose job is exactly to classify arbitrary
    failures by error code.  A swallowing broad handler elsewhere converts
    device OOMs, worker crashes, and data corruption into silently wrong
    CV sums.
    """

    rule_id = "ROB001"
    summary = "broad except handler that swallows the exception"
    rationale = (
        "Only the resilience layer may absorb arbitrary exceptions — it "
        "classifies them by REPRO_* code into retry/degrade/propagate. "
        "Elsewhere a broad handler that does not re-raise hides worker "
        "crashes and device failures as silently wrong results."
    )

    def applies_to(self, ctx: ModuleContext) -> bool:
        return not ctx.in_modules(ctx.config.resilience_modules)

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            label = self._broad_label(ctx, node)
            if label is None:
                continue
            if self._reraises(node):
                continue
            yield self.finding(
                ctx,
                node,
                f"{label} swallows the exception; catch a typed ReproError "
                "subclass, re-raise, or move the recovery into "
                "repro.resilience",
            )

    def _broad_label(self, ctx: ModuleContext, node: ast.ExceptHandler) -> str | None:
        """The offending form, or None when the handler is narrow."""
        if node.type is None:
            return "bare 'except:'"
        exprs = (
            list(node.type.elts)
            if isinstance(node.type, ast.Tuple)
            else [node.type]
        )
        for expr in exprs:
            name = ctx.canonical_name(expr)
            if name is not None and name.rpartition(".")[2] in _BROAD_NAMES:
                return f"'except {name}'"
        return None

    @staticmethod
    def _reraises(node: ast.ExceptHandler) -> bool:
        """Whether any path in the handler body raises.

        A handler that wraps-and-raises (``raise ReproError(...) from exc``)
        or propagates (``raise``) is classification, not swallowing —
        conservative: one ``raise`` anywhere in the handler body counts,
        excluding raises inside functions *defined* in the handler.
        """
        stack: list[ast.AST] = list(node.body)
        while stack:
            child = stack.pop()
            if isinstance(child, ast.Raise):
                return True
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            stack.extend(ast.iter_child_nodes(child))
        return False
