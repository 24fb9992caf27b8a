"""Cluster builder facade."""

import pytest

from repro.cluster import PROTOCOLS, build_cluster
from repro.common.errors import ConfigurationError
from repro.common.ids import client_id, server_id
from repro.config import SystemConfig
from repro.faults.byzantine_servers import CrashServer


def test_all_protocols_registered():
    assert set(PROTOCOLS) == {"atomic", "atomic_ns", "atomic_md",
                              "martin", "bazzi_ding", "goodson",
                              "phalanx", "abc", "no_listeners"}


def test_build_default():
    cluster = build_cluster(SystemConfig(n=4, t=1))
    assert len(cluster.servers) == 4
    assert len(cluster.clients) == 1
    assert cluster.server(1).pid == server_id(1)
    assert cluster.client(1).pid == client_id(1)


def test_unknown_protocol_rejected():
    with pytest.raises(ConfigurationError):
        build_cluster(SystemConfig(n=4, t=1), protocol="raft")


def test_overrides_replace_processes():
    cluster = build_cluster(
        SystemConfig(n=4, t=1),
        server_overrides={2: lambda pid, cfg: CrashServer(pid, cfg)})
    assert isinstance(cluster.server(2), CrashServer)
    assert not isinstance(cluster.server(1), CrashServer)


def test_initial_value_propagates():
    cluster = build_cluster(SystemConfig(n=4, t=1), protocol="atomic",
                            initial_value=b"boot")
    assert cluster.read(1, "anything", "r1").result == b"boot"


def test_write_read_helpers_return_handles():
    cluster = build_cluster(SystemConfig(n=4, t=1), num_clients=2)
    write = cluster.write(1, "reg", "w1", b"payload")
    assert write.done and write.kind == "write"
    read = cluster.read(2, "reg", "r1")
    assert read.done and read.result == b"payload"
