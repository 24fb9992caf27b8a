"""Safety and regularity checkers (Lamport's weaker conditions)."""

import pytest

from repro.analysis.consistency import (
    ConsistencyViolation,
    check_regularity,
    check_safety,
)
from repro.analysis.linearizability import HistoryOp


def W(oid, value, invoke=None, complete=None):
    return HistoryOp(kind="write", oid=oid, value=value, invoke=invoke,
                     complete=complete)


def R(oid, value, invoke=None, complete=None):
    return HistoryOp(kind="read", oid=oid, value=value, invoke=invoke,
                     complete=complete)


SEQUENTIAL = [W("w1", b"a", 1, 2), R("r1", b"a", 3, 4)]


def test_sequential_passes_both():
    check_regularity(SEQUENTIAL)
    check_safety(SEQUENTIAL)


def test_initial_value_read():
    check_regularity([R("r1", b"", 1, 2)])
    check_safety([R("r1", b"init", 1, 2)], initial_value=b"init")


def test_unknown_value_fails_both():
    for checker in (check_regularity, check_safety):
        with pytest.raises(ConsistencyViolation):
            checker([R("r1", b"ghost", 1, 2)])


def test_stale_read_fails_both():
    history = [W("w1", b"a", 1, 2), W("w2", b"b", 3, 4),
               R("r1", b"a", 5, 6)]
    with pytest.raises(ConsistencyViolation):
        check_regularity(history)
    with pytest.raises(ConsistencyViolation):
        check_safety(history)


def test_concurrent_read_regular_allows_either():
    history = [W("w1", b"a", 1, 2), W("w2", b"b", 3, 10)]
    check_regularity(history + [R("r1", b"a", 4, 5)])
    check_regularity(history + [R("r1", b"b", 4, 5)])


def test_new_old_inversion_is_regular_but_not_atomic():
    """The canonical gap between regular and atomic."""
    history = [
        W("w1", b"a", 1, 2),
        W("w2", b"b", 3, 20),
        R("r1", b"b", 4, 5),
        R("r2", b"a", 6, 7),
    ]
    check_regularity(history)  # both reads concurrent with w2: allowed
    from repro.analysis.linearizability import check_atomicity
    from repro.common.errors import AtomicityViolation
    with pytest.raises(AtomicityViolation):
        check_atomicity(history)


def test_safe_allows_garbage_under_concurrency_but_not_unwritten():
    history = [
        W("w1", b"a", 1, 2),
        W("w2", b"b", 3, 20),
        R("r1", b"a", 4, 5),   # concurrent with w2: any written value ok
    ]
    check_safety(history)
    with pytest.raises(ConsistencyViolation):
        check_safety([W("w1", b"a", 1, 2), W("w2", b"b", 3, 20),
                      R("r1", b"zzz", 4, 5)])


def test_safe_rejects_stale_uncontended_read():
    history = [W("w1", b"a", 1, 2), R("r1", b"", 3, 4)]
    with pytest.raises(ConsistencyViolation):
        check_safety(history)


def test_regular_rejects_initial_after_completed_write():
    with pytest.raises(ConsistencyViolation):
        check_regularity([W("w1", b"a", 1, 2), R("r1", b"", 3, 4)])


def test_concurrent_writes_multiple_latest():
    """Two overlapping writes both completing before the read: either
    may be 'latest' (neither is strictly after the other)."""
    history = [W("w1", b"a", 1, 10), W("w2", b"b", 2, 11)]
    check_regularity(history + [R("r1", b"a", 12, 13)])
    check_regularity(history + [R("r1", b"b", 12, 13)])
    check_safety(history + [R("r1", b"a", 12, 13)])


def test_duplicate_values_rejected():
    with pytest.raises(ValueError):
        check_regularity([W("w1", b"x", 1, 2), W("w2", b"x", 3, 4)])


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        check_safety([HistoryOp(kind="rmw", oid="x", value=b"v")])


def test_atomic_protocol_histories_are_regular_too():
    """Sanity: the hierarchy holds on real runs."""
    from repro.analysis.history import HistoryRecorder
    from repro.cluster import run_register_case

    _, cluster = run_register_case("atomic", 4, 1, clients=3, writes=4,
                                   reads=4, seed=3)
    history = HistoryRecorder(cluster, "reg").operations()
    check_regularity(history)
    check_safety(history)
