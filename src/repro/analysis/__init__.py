"""Analysis tools: atomicity checking, history recording, complexity model."""

from repro.analysis.complexity import ComplexityModel, Prediction
from repro.analysis.consistency import (
    ConsistencyViolation,
    check_regularity,
    check_safety,
)
from repro.analysis.history import HistoryRecorder
from repro.analysis.invariants import (
    install_commit_invariant,
    make_register_invariant,
)
from repro.analysis.linearizability import (
    INITIAL_WRITE_OID,
    HistoryOp,
    check_atomicity,
)

__all__ = [
    "ComplexityModel",
    "Prediction",
    "ConsistencyViolation",
    "check_regularity",
    "check_safety",
    "HistoryRecorder",
    "install_commit_invariant",
    "make_register_invariant",
    "INITIAL_WRITE_OID",
    "HistoryOp",
    "check_atomicity",
]
