"""Wire compatibility: every message any protocol sends must survive a
canonical serialize/deserialize roundtrip (the simulator normally only
*sizes* payloads; a real network would transport the encodings), and
the size the metrics plane counted for it — walked or stamped, never
serialized — must be the length of that encoding."""

import pytest

from repro.cluster import build_cluster
from repro.common.serialization import decode, encode
from repro.config import SystemConfig
from repro.net.schedulers import RandomScheduler
from repro.workloads.generator import random_workload, run_workload

TAG = "reg"


def _assert_all_payloads_roundtrip(delivered):
    for message in delivered:
        wire = encode((message.tag, message.mtype, message.payload))
        tag, mtype, payload = decode(wire)
        assert (tag, mtype, payload) == (
            message.tag, message.mtype, message.payload)
        assert message.wire_size() == len(wire)
    assert delivered


@pytest.mark.parametrize("protocol,n", [
    ("atomic", 4), ("atomic_ns", 4), ("martin", 4),
    ("bazzi_ding", 5), ("goodson", 5), ("phalanx", 5),
    ("no_listeners", 4),
    ("abc", 4),
])
def test_all_protocol_messages_roundtrip(protocol, n, log_deliveries):
    cluster = build_cluster(SystemConfig(n=n, t=1), protocol=protocol,
                            num_clients=2,
                            scheduler=RandomScheduler(1))
    delivered = log_deliveries(cluster.simulator)
    operations = random_workload(2, writes=2, reads=2, seed=1)
    run_workload(cluster, TAG, operations, seed=1)
    _assert_all_payloads_roundtrip(delivered)


def test_merkle_mode_messages_roundtrip(log_deliveries):
    cluster = build_cluster(
        SystemConfig(n=4, t=1, commitment="merkle"), protocol="atomic_ns",
        num_clients=1, scheduler=RandomScheduler(2))
    delivered = log_deliveries(cluster.simulator)
    cluster.write(1, TAG, "w1", b"merkle wire test")
    cluster.read(1, TAG, "r1")
    cluster.run()
    _assert_all_payloads_roundtrip(delivered)


def test_shoup_mode_messages_roundtrip(log_deliveries):
    cluster = build_cluster(
        SystemConfig(n=4, t=1, threshold_backend="shoup"),
        protocol="atomic_ns", num_clients=1,
        scheduler=RandomScheduler(3))
    delivered = log_deliveries(cluster.simulator)
    cluster.write(1, TAG, "w1", b"rsa wire test")
    cluster.run()
    _assert_all_payloads_roundtrip(delivered)
