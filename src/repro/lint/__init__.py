"""Protocol-aware static analysis for the reproduction (``repro.lint``).

The correctness of this reproduction rests on properties the Python type
system cannot see:

* **determinism** — every protocol module must be free of entropy,
  wall-clock reads, and unordered-collection iteration, or the
  simulator's logical clock (and every adversarial-scheduler experiment)
  is meaningless;
* **quorum arithmetic** — every wait threshold must be consistent with
  the optimal-resilience assumption ``n > 3t`` (paper, Section 2):
  reachable by the ``n - t`` honest parties and, for quorums, pairwise
  intersecting in at least ``t + 1`` parties;
* **wire-registry completeness** — every dataclass that crosses the wire
  must be registered with
  :func:`repro.common.serialization.register_wire_type`, or the
  communication-complexity metrics silently diverge from the paper's
  bit-length definition;
* **handler completeness** — every message type that is ever sent must
  have a receive site (a handler or a wait condition) somewhere, and
  vice versa;
* **Byzantine taint flow** — every ``Message.payload`` field is
  adversary-controlled until it passes a verification step
  (commitment / Merkle / signature check, ``isinstance`` guard); the
  ``taint`` pack tracks payload data interprocedurally to protocol
  state writes, erasure decoding, operation completion, and re-sends
  (see :mod:`repro.lint.flow`).

Supporting machinery: SARIF 2.1.0 export (:mod:`repro.lint.sarif`),
baseline snapshots that gate CI on *new* findings only
(:mod:`repro.lint.baseline`), a whole-run incremental cache keyed by
file content hashes (:mod:`repro.lint.cache`), and dead-waiver
detection (``waiver-dead``) on full runs.

The framework is purely AST-based (scanned code is never imported) and
pluggable: see :class:`repro.lint.engine.Rule` and ``docs/LINTING.md``.
Run it as ``python -m repro.lint src/repro``, via the ``repro-lint``
console script, or as ``python -m repro.cli lint``.  Findings can be
waived per line with ``# lint: disable=<rule-id>`` comments.
"""

from __future__ import annotations

from repro.lint.engine import (
    RULE_WAIVER_DEAD,
    Finding,
    LintReport,
    ModuleInfo,
    Project,
    Rule,
    run_lint,
)
from repro.lint.rules import all_rules

__all__ = [
    "Finding",
    "LintReport",
    "ModuleInfo",
    "Project",
    "RULE_WAIVER_DEAD",
    "Rule",
    "all_rules",
    "run_lint",
]
