"""History recording from cluster runs."""

import pytest

from repro.analysis.history import (
    STATUS_OK,
    STATUS_STALLED,
    STATUS_VIOLATION,
    HistoryRecorder,
    effected_writes,
    run_verdict,
)
from repro.cluster import build_cluster
from repro.common.errors import LivenessError
from repro.config import SystemConfig
from repro.core.atomic import AtomicClient
from repro.core.atomic_ns import AtomicNSClient
from repro.faults.byzantine_clients import byzantine_client
from repro.net.schedulers import RandomScheduler

TAG = "reg"


def _skipping(client_cls):
    return byzantine_client(client_cls, "skip-ts")


def _cluster(protocol="atomic", **kwargs):
    config = SystemConfig(n=4, t=1)
    return build_cluster(config, protocol=protocol, num_clients=2,
                         scheduler=RandomScheduler(0), **kwargs)


def test_operations_from_handles():
    cluster = _cluster()
    cluster.write(1, TAG, "w1", b"x")
    cluster.read(2, TAG, "r1")
    recorder = HistoryRecorder(cluster, TAG)
    operations = recorder.operations()
    assert {op.oid for op in operations} == {"w1", "r1"}
    write = next(op for op in operations if op.oid == "w1")
    assert write.invoke < write.complete


def test_other_register_excluded():
    cluster = _cluster()
    cluster.write(1, TAG, "w1", b"x")
    cluster.write(1, "other", "w2", b"y")
    operations = HistoryRecorder(cluster, TAG).operations()
    assert {op.oid for op in operations} == {"w1"}


def test_unfinished_operation_raises():
    cluster = _cluster()
    cluster.client(1).invoke_write(TAG, "w1", b"x")  # not yet run
    recorder = HistoryRecorder(cluster, TAG)
    with pytest.raises(LivenessError):
        recorder.operations()
    # ...unless explicitly tolerated.
    assert recorder.operations(require_done=False) == []


def test_byzantine_write_included_only_if_effected():
    cluster = _cluster(client_overrides={2: _skipping(AtomicClient)})
    recorder = HistoryRecorder(cluster, TAG)
    recorder.record_byzantine_write("skip", b"evil")
    # Not yet executed: the write did not take effect.
    assert all(op.oid != "skip" for op in recorder.operations())
    cluster.client(2).invoke_write(TAG, "skip", b"evil")
    cluster.run()
    included = [op for op in recorder.operations() if op.oid == "skip"]
    assert len(included) == 1
    assert included[0].invoke is None and included[0].complete is None


def test_byzantine_variant_write_joins_only_once_effected():
    """A Byzantine variant's handles are no honest operations: its
    stalled write raises no :class:`LivenessError`, and its effected
    write joins the history with no real-time interval, exactly as a
    :meth:`~HistoryRecorder.record_byzantine_write` one does."""
    stalled = _cluster("atomic_ns",
                       client_overrides={2: _skipping(AtomicNSClient)})
    handle = stalled.client(2).invoke_write(TAG, "skip", b"evil")
    stalled.run()
    assert not handle.done
    assert HistoryRecorder(stalled, TAG).operations() == []

    effected = _cluster(client_overrides={2: _skipping(AtomicClient)})
    invoked = effected.client(2).invoke_write(TAG, "skip", b"evil")
    assert HistoryRecorder(effected, TAG).operations() == []
    effected.run()
    assert invoked.done
    (write,) = HistoryRecorder(effected, TAG).operations()
    assert (write.oid, write.value) == ("skip", b"evil")
    assert write.invoke is None and write.complete is None


def test_check_end_to_end_with_byzantine_write():
    cluster = _cluster(client_overrides={2: _skipping(AtomicClient)})
    cluster.write(1, TAG, "w1", b"honest")
    cluster.client(2).invoke_write(TAG, "skip", b"evil")
    cluster.run()
    read = cluster.read(1, TAG, "r1")
    recorder = HistoryRecorder(cluster, TAG)
    order = recorder.check()
    assert read.result in (b"honest", b"evil")
    assert "skip" in order


def _handles(cluster):
    return {handle.oid: handle for client in cluster.clients
            for handle in client.operations}


def test_verdict_of_a_clean_run_is_ok():
    cluster = _cluster()
    cluster.write(1, TAG, "w1", b"x")
    cluster.read(2, TAG, "r1")
    assert run_verdict(cluster, _handles(cluster), TAG) == (
        STATUS_OK, "atomic and wait-free")


def test_verdict_of_an_unfinished_operation_is_stalled():
    cluster = _cluster()
    cluster.write(1, TAG, "w1", b"x")
    cluster.client(2).invoke_read(TAG, "r1")  # never delivered
    status, detail = run_verdict(cluster, _handles(cluster), TAG)
    assert status == STATUS_STALLED
    assert detail == "1/2 operations never terminated: r1"


def test_verdict_violation_outranks_a_stall():
    cluster = _cluster()
    cluster.write(1, TAG, "w1", b"x")
    read = cluster.read(2, TAG, "r1")
    read.result = b"never written"
    cluster.client(1).invoke_write(TAG, "w2", b"y")  # never delivered
    status, _ = run_verdict(cluster, _handles(cluster), TAG)
    assert status == STATUS_VIOLATION


def test_effected_writes_count_only_honest_servers():
    cluster = _cluster()
    cluster.write(1, TAG, "w1", b"x")
    cluster.write(1, "other", "w2", b"y")
    cluster.run()
    everyone = [server.pid for server in cluster.servers]
    assert effected_writes(cluster, TAG) == {"w1"}
    assert effected_writes(cluster, TAG, everyone[1:]) == {"w1"}
    assert effected_writes(cluster, TAG, []) == set()
