"""The atomicity checker itself: accepts valid histories, rejects bad."""

import pytest
from hypothesis import given, strategies as st

from repro.analysis.linearizability import (
    HistoryOp,
    check_atomicity,
)
from repro.common.errors import AtomicityViolation


def W(oid, value, invoke=None, complete=None):
    return HistoryOp(kind="write", oid=oid, value=value, invoke=invoke,
                     complete=complete)


def R(oid, value, invoke=None, complete=None):
    return HistoryOp(kind="read", oid=oid, value=value, invoke=invoke,
                     complete=complete)


def test_empty_history():
    assert check_atomicity([]) == []


def test_sequential_write_read():
    order = check_atomicity([
        W("w1", b"a", 1, 2),
        R("r1", b"a", 3, 4),
    ])
    assert order == ["w1", "r1"]


def test_read_of_initial_value():
    check_atomicity([R("r1", b"", 1, 2)])
    check_atomicity([R("r1", b"init", 1, 2)], initial_value=b"init")


def test_unknown_value_rejected():
    with pytest.raises(AtomicityViolation):
        check_atomicity([R("r1", b"ghost", 1, 2)])


def test_stale_read_rejected():
    """w1 completes, then w2 completes, then a read returns w1's value."""
    with pytest.raises(AtomicityViolation):
        check_atomicity([
            W("w1", b"a", 1, 2),
            W("w2", b"b", 3, 4),
            R("r1", b"a", 5, 6),
        ])


def test_read_from_future_write_rejected():
    with pytest.raises(AtomicityViolation):
        check_atomicity([
            R("r1", b"a", 1, 2),
            W("w1", b"a", 3, 4),
        ])


def test_concurrent_write_read_either_value_ok():
    base = [W("w1", b"a", 1, 2), W("w2", b"b", 3, 10)]
    check_atomicity(base + [R("r1", b"a", 4, 5)])
    check_atomicity(base + [R("r1", b"b", 4, 5)])


def test_new_old_inversion_rejected():
    """Two sequential reads during one write must not go new-then-old."""
    history = [
        W("w1", b"a", 1, 2),
        W("w2", b"b", 3, 20),
        R("r1", b"b", 4, 5),
        R("r2", b"a", 6, 7),
    ]
    with pytest.raises(AtomicityViolation):
        check_atomicity(history)


def test_old_new_order_accepted():
    history = [
        W("w1", b"a", 1, 2),
        W("w2", b"b", 3, 20),
        R("r1", b"a", 4, 5),
        R("r2", b"b", 6, 7),
    ]
    order = check_atomicity(history)
    assert order.index("r1") < order.index("r2")


def test_byzantine_write_no_interval_flexible():
    """A write without an interval can be linearized anywhere needed."""
    history = [
        W("w1", b"a", 1, 2),
        W("byz", b"evil"),         # no interval: Byzantine effect
        R("r1", b"evil", 3, 4),
        R("r2", b"evil", 5, 6),
    ]
    check_atomicity(history)


def test_byzantine_write_cannot_save_real_time_violation():
    history = [
        W("w1", b"a", 1, 2),
        W("byz", b"evil"),
        R("r1", b"evil", 3, 4),
        R("r2", b"a", 5, 6),       # stale again after evil was read
    ]
    with pytest.raises(AtomicityViolation):
        check_atomicity(history)


def test_duplicate_write_values_rejected():
    with pytest.raises(ValueError):
        check_atomicity([W("w1", b"same", 1, 2), W("w2", b"same", 3, 4)])


def test_write_of_initial_value_rejected():
    with pytest.raises(ValueError):
        check_atomicity([W("w1", b"", 1, 2)])


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        check_atomicity([HistoryOp(kind="cas", oid="x", value=b"v")])


def test_interleaved_writers():
    history = [
        W("w1", b"a", 1, 10),
        W("w2", b"b", 2, 11),
        R("r1", b"a", 12, 13),
    ]
    with pytest.raises(AtomicityViolation):
        # r1 is stale only if w2 is ordered after w1... both orders must
        # be considered: w2 < w1 < r1 makes this valid.
        check_atomicity(history + [R("r2", b"b", 14, 15)])


def test_concurrent_reads_same_point():
    history = [
        W("w1", b"a", 1, 2),
        R("r1", b"a", 3, 6),
        R("r2", b"a", 4, 5),
    ]
    check_atomicity(history)


def test_witness_order_is_a_permutation():
    history = [
        W("w1", b"a", 1, 2),
        R("r1", b"a", 3, 4),
        W("w2", b"b", 5, 6),
        R("r2", b"b", 7, 8),
    ]
    order = check_atomicity(history)
    assert sorted(order) == ["r1", "r2", "w1", "w2"]


@given(st.integers(min_value=1, max_value=8))
def test_property_sequential_histories_always_atomic(count):
    """Strictly sequential alternating write/read histories linearize."""
    history = []
    time = 0
    for index in range(count):
        value = b"v%d" % index
        history.append(W(f"w{index}", value, time, time + 1))
        history.append(R(f"r{index}", value, time + 2, time + 3))
        time += 4
    order = check_atomicity(history)
    assert len(order) == 2 * count


def _pair_scan_edges(clusters):
    """The precedence graph by its definition: an edge ``C1 -> C2`` for
    every pair of operations of two clusters where one precedes the
    other."""
    member_of = {operation.oid: cluster_oid
                 for cluster_oid, members in clusters.items()
                 for operation in members}
    edges = {cluster_oid: set() for cluster_oid in clusters}
    operations = [operation for members in clusters.values()
                  for operation in members]
    for first in operations:
        for second in operations:
            if first is not second and first.precedes(second) \
                    and member_of[first.oid] != member_of[second.oid]:
                edges[member_of[first.oid]].add(member_of[second.oid])
    return edges


def _random_history(rng):
    """Writes (a few without an interval, as a Byzantine writer's) and
    reads of a written, the initial or now and then an unknown value,
    at random logical times: atomic or not."""
    def interval():
        invoke = rng.randrange(40)
        return invoke, invoke + rng.randrange(1, 12)

    history = []
    values = [b""]
    for index in range(rng.randrange(6)):
        value = b"v%d" % index
        values.append(value)
        if rng.random() < 0.15:
            history.append(W(f"w{index}", value))
        else:
            history.append(W(f"w{index}", value, *interval()))
    for index in range(rng.randrange(8)):
        value = rng.choice(values) if rng.random() < 0.97 else b"ghost"
        history.append(R(f"r{index}", value, *interval()))
    rng.shuffle(history)
    return history


def _verdict(history):
    try:
        return check_atomicity(history)
    except AtomicityViolation as violation:
        return str(violation)


def test_cluster_edges_match_the_pair_scan_oracle(monkeypatch):
    """Cluster-level edges (earliest completion against latest
    invocation) give the pair scan's witness orders and violation
    messages on random histories, atomic or not."""
    import random

    from repro.analysis import linearizability
    rng = random.Random(7)
    histories = [_random_history(rng) for _ in range(3000)]
    verdicts = [_verdict(history) for history in histories]
    monkeypatch.setattr(linearizability, "_precedence_edges",
                        _pair_scan_edges)
    assert [_verdict(history) for history in histories] == verdicts
    outcomes = {type(verdict) for verdict in verdicts}
    assert outcomes == {list, str}  # both atomic and violating histories
