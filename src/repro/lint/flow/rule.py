"""The ``taint`` rule pack: Byzantine payload flow tracking.

Wraps the flow engine (:mod:`repro.lint.flow.analysis`) as an ordinary
:class:`repro.lint.engine.Rule`, so findings go through the standard
waiver/report pipeline and the pack participates in ``--rules``
filtering and ``--list-rules`` like every other pack.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from repro.lint.config import in_scope
from repro.lint.engine import Project
from repro.lint.findings import Finding
from repro.lint.flow.analysis import (
    RULE_DEAD_SANITIZER,
    RULE_UNKNOWN_SANITIZER,
    RULE_UNVERIFIED_SINK,
    FlowContext,
    analyze_module,
)
from repro.lint.flow.registry import DEFAULT_REGISTRY


class TaintFlowRule:
    """Interprocedural taint tracking from Byzantine inputs to sinks."""

    pack = "taint"
    rule_ids: Tuple[str, ...] = (
        RULE_UNVERIFIED_SINK,
        RULE_UNKNOWN_SANITIZER,
        RULE_DEAD_SANITIZER,
    )

    def run(self, project: Project) -> Iterable[Finding]:
        """Analyze every in-scope module and yield taint findings."""
        ctx = FlowContext(project, DEFAULT_REGISTRY,
                          in_scope=lambda dotted: in_scope(self.pack, dotted))
        for module in project.scoped(self.pack):
            yield from analyze_module(ctx, module)
