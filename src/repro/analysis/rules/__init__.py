"""Rule registry: importing this package registers every built-in rule."""

from __future__ import annotations

from repro.analysis.rules.base import RULE_REGISTRY, Rule, default_rules, register_rule
from repro.analysis.rules.api import ValidationFunnelRule
from repro.analysis.rules.concurrency import PoolLifecycleRule, ShmLifecycleRule
from repro.analysis.rules.determinism import SeededRngRule, UnorderedFoldRule
from repro.analysis.rules.gpu import DeviceDeterminismRule
from repro.analysis.rules.hotpath import LoopAllocationRule
from repro.analysis.rules.numeric import ExplicitDtypeRule, FloatEqualityRule
from repro.analysis.rules.obs import LoopTracingRule
from repro.analysis.rules.parallel import PicklableWorkUnitRule
from repro.analysis.rules.robustness import BroadExceptRule
from repro.analysis.rules.serving import AsyncBlockingCallRule

__all__ = [
    "RULE_REGISTRY",
    "Rule",
    "default_rules",
    "register_rule",
    "FloatEqualityRule",
    "ValidationFunnelRule",
    "LoopAllocationRule",
    "LoopTracingRule",
    "ExplicitDtypeRule",
    "PicklableWorkUnitRule",
    "DeviceDeterminismRule",
    "BroadExceptRule",
    "AsyncBlockingCallRule",
    "UnorderedFoldRule",
    "SeededRngRule",
    "ShmLifecycleRule",
    "PoolLifecycleRule",
]
