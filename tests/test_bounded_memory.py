"""The bounded client-memory read mode (Martin et al.'s scheme, §3.2)."""

import pytest

from repro.analysis.history import HistoryRecorder
from repro.cluster import build_cluster
from repro.config import SystemConfig
from repro.core.atomic import AtomicClient
from repro.core.atomic_ns import AtomicNSClient
from repro.net.schedulers import RandomScheduler
from repro.workloads.generator import random_workload, run_workload

TAG = "reg"


def _cluster(protocol="atomic", seed=0, clients=3):
    client_cls = AtomicClient if protocol == "atomic" else AtomicNSClient
    overrides = {
        index: (lambda pid, cfg: client_cls(pid, cfg,
                                            bounded_memory=True))
        for index in range(1, clients + 1)
    }
    return build_cluster(SystemConfig(n=4, t=1, seed=seed),
                         protocol=protocol, num_clients=clients,
                         scheduler=RandomScheduler(seed),
                         client_overrides=overrides)


def test_flag_set():
    cluster = _cluster()
    assert all(client.bounded_memory for client in cluster.clients)
    default = build_cluster(SystemConfig(n=4, t=1))
    assert not default.client(1).bounded_memory


def test_quiet_reads_identical():
    cluster = _cluster()
    cluster.write(1, TAG, "w1", b"bounded B")
    read = cluster.read(2, TAG, "r1")
    assert read.result == b"bounded B"


@pytest.mark.parametrize("protocol", ["atomic", "atomic_ns"])
def test_concurrent_histories_linearize(protocol):
    for seed in range(6):
        cluster = _cluster(protocol=protocol, seed=seed)
        operations = random_workload(3, writes=4, reads=5, seed=seed)
        run_workload(cluster, TAG, operations, seed=seed)
        HistoryRecorder(cluster, TAG).check()


def test_read_during_write_burst():
    """The per-server-maximum rule still finds a quorum while listeners
    keep pushing newer values."""
    cluster = _cluster(seed=9)
    cluster.write(1, TAG, "w0", b"base value")
    read_handle = cluster.client(3).invoke_read(TAG, "r1")
    for index in range(1, 4):
        cluster.client(1).invoke_write(TAG, f"w{index}",
                                       b"burst %d" % index)
    cluster.run()
    assert read_handle.done
    assert read_handle.result in (
        b"base value", b"burst 1", b"burst 2", b"burst 3")
