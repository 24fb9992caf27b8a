"""Protocol AtomicNS: the share round, signatures, non-skipping bookkeeping."""

import pytest

from repro.analysis.history import HistoryRecorder
from repro.cluster import build_cluster, run_register_case
from repro.config import SystemConfig
from repro.core.atomic_ns import timestamp_signature_valid
from repro.core.timestamps import Timestamp
from repro.crypto.threshold import ThresholdSignature
from repro.net.schedulers import RandomScheduler


def _cluster(n=4, t=1, seed=0, clients=2, backend="ideal"):
    config = SystemConfig(n=n, t=t, seed=seed,
                          threshold_backend=backend)
    return build_cluster(config, protocol="atomic_ns", num_clients=clients,
                         scheduler=RandomScheduler(seed))


def test_write_then_read():
    cluster = _cluster()
    cluster.write(1, "reg", "w1", b"signed value")
    assert cluster.read(2, "reg", "r1").result == b"signed value"


def test_servers_store_valid_signatures():
    cluster = _cluster()
    cluster.write(1, "reg", "w1", b"x")
    cluster.run()
    scheme = cluster.config.threshold_scheme
    for server in cluster.servers:
        state = server.register_state("reg")
        assert state.timestamp == Timestamp(1, "w1")
        assert timestamp_signature_valid(scheme, "reg",
                                         state.timestamp.ts,
                                         state.signature)


def test_initial_bottom_signature_convention():
    config = SystemConfig(n=4, t=1)
    scheme = config.threshold_scheme
    assert timestamp_signature_valid(scheme, "reg", 0, None)
    assert not timestamp_signature_valid(scheme, "reg", 1, None)
    assert not timestamp_signature_valid(scheme, "reg", -1, None)
    assert not timestamp_signature_valid(scheme, "reg", "0", None)


def test_forged_signature_rejected():
    config = SystemConfig(n=4, t=1)
    scheme = config.threshold_scheme
    forged = ThresholdSignature(value=b"\x00" * 32)
    assert not timestamp_signature_valid(scheme, "reg", 3, forged)


def test_signature_from_other_register_rejected():
    cluster = _cluster()
    cluster.write(1, "alpha", "w1", b"x")
    cluster.run()
    scheme = cluster.config.threshold_scheme
    state = cluster.server(1).register_state("alpha")
    assert timestamp_signature_valid(scheme, "alpha", 1, state.signature)
    assert not timestamp_signature_valid(scheme, "beta", 1,
                                         state.signature)


def test_sequential_writes_increment_by_one():
    """Non-skipping in the honest case: timestamps are 1, 2, 3, ..."""
    cluster = _cluster()
    for index in range(1, 5):
        cluster.write(1, "reg", f"w{index}", b"v%d" % index)
        state = cluster.server(1).register_state("reg")
        assert state.timestamp.ts == index


def test_concurrent_writers_may_share_ts_value():
    """Two concurrent writes may both use ts+1; the oid breaks the tie and
    both take effect."""
    cluster = _cluster(seed=5, clients=3)
    h1 = cluster.client(1).invoke_write("reg", "aa", b"from-1")
    h2 = cluster.client(2).invoke_write("reg", "bb", b"from-2")
    cluster.run()
    assert h1.done and h2.done
    read = cluster.read(3, "reg", "r")
    assert read.result == b"from-2" if read.timestamp.oid == "bb" \
        else b"from-1"


def test_concurrent_workload_atomic():
    for seed in range(5):
        _, cluster = run_register_case("atomic_ns", 4, 1, clients=3,
                                       writes=4, reads=5, seed=seed)
        HistoryRecorder(cluster, "reg").check()


def test_shoup_backend_end_to_end():
    cluster = _cluster(backend="shoup")
    cluster.write(1, "reg", "w1", b"rsa-signed")
    assert cluster.read(2, "reg", "r1").result == b"rsa-signed"
    state = cluster.server(2).register_state("reg")
    scheme = cluster.config.threshold_scheme
    assert scheme.verify(("reg", 1), state.signature)


def test_larger_deployment():
    cluster = _cluster(n=7, t=2, seed=3)
    cluster.write(1, "reg", "w1", b"seven")
    assert cluster.read(2, "reg", "r1").result == b"seven"


def test_share_messages_present():
    cluster = _cluster()
    cluster.write(1, "reg", "w1", b"x")
    cluster.run()
    counts = cluster.simulator.metrics.messages_by_mtype("reg")
    assert counts.get("share", 0) == 16  # n^2 share messages


def test_ack_carries_timestamp(log_deliveries):
    cluster = _cluster()
    delivered = log_deliveries(cluster.simulator)
    cluster.write(1, "reg", "w1", b"x")
    acks = [message for message in delivered
            if (message.tag, message.mtype) == ("reg", "ack")]
    assert len(acks) >= cluster.config.quorum
    assert all(message.payload == ("w1", 1) for message in acks)
