"""Protocol Atomic end-to-end: liveness, atomicity, register semantics."""

import pytest

from repro.analysis.history import HistoryRecorder
from repro.cluster import build_cluster, run_register_case
from repro.common.errors import ProtocolError
from repro.config import SystemConfig
from repro.core.timestamps import Timestamp
from repro.net.schedulers import (
    FifoScheduler,
    RandomScheduler,
    SlowPartiesScheduler,
)
from repro.workloads.generator import (
    random_workload,
    run_workload,
)
from repro.common.ids import server_id


def _cluster(n=4, t=1, seed=0, protocol="atomic", clients=2, k=None,
             commitment="vector", scheduler=None, initial=b""):
    config = SystemConfig(n=n, t=t, k=k, commitment=commitment, seed=seed)
    return build_cluster(config, protocol=protocol, num_clients=clients,
                         scheduler=scheduler or RandomScheduler(seed),
                         initial_value=initial)


def test_write_then_read():
    cluster = _cluster()
    cluster.write(1, "reg", "w1", b"first value")
    read = cluster.read(2, "reg", "r1")
    assert read.result == b"first value"
    assert read.timestamp == Timestamp(1, "w1")


def test_read_initial_value():
    cluster = _cluster(initial=b"genesis")
    read = cluster.read(1, "reg", "r1")
    assert read.result == b"genesis"
    assert read.timestamp == Timestamp(0, "")


def test_overwrite_and_read_latest():
    cluster = _cluster()
    cluster.write(1, "reg", "w1", b"old")
    cluster.write(1, "reg", "w2", b"new")
    assert cluster.read(2, "reg", "r1").result == b"new"


def test_read_your_own_write():
    cluster = _cluster()
    cluster.write(1, "reg", "w1", b"mine")
    assert cluster.read(1, "reg", "r1").result == b"mine"


def test_timestamps_increase_monotonically():
    cluster = _cluster()
    for index in range(4):
        cluster.write(1, "reg", f"w{index}", b"v%d" % index)
    read = cluster.read(2, "reg", "r")
    assert read.timestamp.ts == 4


def test_multiple_registers_independent():
    cluster = _cluster()
    cluster.write(1, "alpha", "w1", b"in alpha")
    cluster.write(1, "beta", "w2", b"in beta")
    assert cluster.read(2, "alpha", "ra").result == b"in alpha"
    assert cluster.read(2, "beta", "rb").result == b"in beta"


def test_large_value():
    cluster = _cluster()
    value = bytes(i % 251 for i in range(100_000))
    cluster.write(1, "reg", "w1", value)
    assert cluster.read(2, "reg", "r1").result == value


def test_empty_value():
    cluster = _cluster()
    cluster.write(1, "reg", "w1", b"")
    assert cluster.read(2, "reg", "r1").result == b""


@pytest.mark.parametrize("commitment", ["vector", "merkle"])
def test_both_commitment_schemes(commitment):
    cluster = _cluster(commitment=commitment)
    cluster.write(1, "reg", "w1", b"payload")
    assert cluster.read(2, "reg", "r1").result == b"payload"


@pytest.mark.parametrize("k", [1, 2, 3])
def test_all_erasure_thresholds(k):
    cluster = _cluster(k=k)
    cluster.write(1, "reg", "w1", b"value under k=%d" % k)
    assert cluster.read(2, "reg", "r1").result == b"value under k=%d" % k


def test_larger_deployment():
    cluster = _cluster(n=10, t=3)
    cluster.write(1, "reg", "w1", b"ten servers")
    assert cluster.read(2, "reg", "r1").result == b"ten servers"


def test_fifo_scheduler_works_too():
    cluster = _cluster(scheduler=FifoScheduler())
    cluster.write(1, "reg", "w1", b"fifo")
    assert cluster.read(2, "reg", "r1").result == b"fifo"


def test_liveness_with_starved_server():
    scheduler = SlowPartiesScheduler({server_id(4)}, seed=3)
    cluster = _cluster(scheduler=scheduler)
    cluster.write(1, "reg", "w1", b"starved schedule")
    assert cluster.read(2, "reg", "r1").result == b"starved schedule"


def test_duplicate_oid_rejected_locally():
    cluster = _cluster()
    cluster.write(1, "reg", "w1", b"x")
    with pytest.raises(ProtocolError):
        cluster.client(1).invoke_write("reg", "w1", b"y")


def test_write_accepted_signals():
    cluster = _cluster()
    cluster.write(1, "reg", "w1", b"x")
    accepted = [event for event in cluster.simulator.event_log
                if event.kind == "out"
                and event.action == "write-accepted"]
    assert len(accepted) == 4  # every honest server signals exactly once
    assert {event.payload[0] for event in accepted} == {"w1"}


def test_ack_output_action():
    cluster = _cluster()
    handle = cluster.write(1, "reg", "w1", b"x")
    assert handle.done
    acks = [event for event in cluster.simulator.event_log
            if event.kind == "out" and event.action == "ack"]
    assert len(acks) == 1


def test_concurrent_workload_atomic():
    for seed in range(6):
        _, cluster = run_register_case("atomic", 4, 1, clients=3,
                                       writes=5, reads=5, seed=seed)
        HistoryRecorder(cluster, "reg").check()


def test_concurrent_two_registers():
    cluster = _cluster(clients=3, seed=9)
    for tag in ("a", "b"):
        operations = random_workload(3, writes=3, reads=3, seed=7)
        run_workload(cluster, tag, operations, seed=7)
        HistoryRecorder(cluster, tag).check()


def test_storage_is_block_sized():
    cluster = _cluster()
    value = b"v" * 9000
    cluster.write(1, "reg", "w1", value)
    cluster.run()
    for server in cluster.servers:
        storage = server.register_storage_bytes("reg")
        # Each server stores ~ |F|/k plus commitment overhead, not |F|.
        assert storage < len(value) / 2


def test_reader_gets_value_messages_from_concurrent_write():
    """The listener path: a write completing during a read pushes value
    messages to the reader."""
    cluster = _cluster(seed=11)
    cluster.write(1, "reg", "w0", b"base")
    read_handle = cluster.client(2).invoke_read("reg", "r1")
    write_handle = cluster.client(1).invoke_write("reg", "w1", b"fresh")
    cluster.run()
    assert read_handle.done and write_handle.done
    assert read_handle.result in (b"base", b"fresh")
