"""Baseline protocols: Martin et al., Bazzi-Ding, Goodson et al."""

import pytest

from repro.analysis.history import HistoryRecorder
from repro.cluster import build_cluster, run_register_case
from repro.common.errors import ConfigurationError
from repro.config import SystemConfig
from repro.core.timestamps import Timestamp
from repro.faults.byzantine_clients import PoisonousGoodsonWriter
from repro.faults.byzantine_servers import MartinInflatorServer
from repro.net.schedulers import RandomScheduler
from repro.workloads.generator import make_values

TAG = "reg"


def _cluster(protocol, n, t, seed=0, clients=2, **kwargs):
    config = SystemConfig(n=n, t=t, seed=seed)
    return build_cluster(config, protocol=protocol, num_clients=clients,
                         scheduler=RandomScheduler(seed), **kwargs)


# -- Martin et al. (SBQ-L) ------------------------------------------------------

def test_martin_write_read():
    cluster = _cluster("martin", 4, 1)
    cluster.write(1, TAG, "w1", b"replicated")
    assert cluster.read(2, TAG, "r1").result == b"replicated"


def test_martin_full_replication_storage():
    cluster = _cluster("martin", 4, 1)
    value = b"v" * 5000
    cluster.write(1, TAG, "w1", value)
    cluster.run()
    for server in cluster.servers:
        assert server.register_storage_bytes(TAG) >= len(value)


def test_martin_concurrent_atomicity():
    for seed in range(4):
        _, cluster = run_register_case("martin", 4, 1, clients=3,
                                       writes=4, reads=4, seed=seed)
        HistoryRecorder(cluster, TAG).check()


def test_martin_crash_tolerance():
    from repro.faults.byzantine_servers import CrashServer
    cluster = _cluster(
        "martin", 4, 1,
        server_overrides={4: lambda pid, cfg: CrashServer(pid, cfg)})
    cluster.write(1, TAG, "w1", b"three respond")
    assert cluster.read(2, TAG, "r1").result == b"three respond"


def test_martin_inflation_succeeds():
    """The skipping weakness the paper fixes."""
    cluster = _cluster(
        "martin", 4, 1,
        server_overrides={
            1: lambda pid, cfg: MartinInflatorServer(pid, cfg)})
    cluster.write(1, TAG, "w1", b"x")
    cluster.run()
    assert cluster.server(2).register_state(TAG).timestamp.ts > 10 ** 6


def test_martin_initial_value():
    cluster = build_cluster(SystemConfig(n=4, t=1), protocol="martin",
                            num_clients=1,
                            scheduler=RandomScheduler(0),
                            initial_value=b"seed value")
    assert cluster.read(1, TAG, "r1").result == b"seed value"


# -- Bazzi-Ding -----------------------------------------------------------------

def test_bazzi_ding_requires_n_gt_4t():
    with pytest.raises(ConfigurationError):
        _cluster("bazzi_ding", 4, 1)


def test_bazzi_ding_write_read():
    cluster = _cluster("bazzi_ding", 5, 1)
    cluster.write(1, TAG, "w1", b"non-skipping replication")
    assert cluster.read(2, TAG, "r1").result == \
        b"non-skipping replication"


def test_bazzi_ding_concurrent_atomicity():
    for seed in range(3):
        _, cluster = run_register_case("bazzi_ding", 5, 1, clients=3,
                                       writes=3, reads=4, seed=seed)
        HistoryRecorder(cluster, TAG).check()


def test_bazzi_ding_resists_server_inflation():
    cluster = _cluster(
        "bazzi_ding", 5, 1,
        server_overrides={
            1: lambda pid, cfg: MartinInflatorServer(pid, cfg)})
    for index in range(3):
        cluster.write(1, TAG, f"w{index}", b"v%d" % index)
    cluster.run()
    ts = cluster.server(2).register_state(TAG).timestamp.ts
    assert ts == 3  # the (t+1)-st largest rule filtered the lies


def test_bazzi_ding_monotonic_across_writers():
    cluster = _cluster("bazzi_ding", 5, 1, clients=2)
    cluster.write(1, TAG, "w1", b"first")
    cluster.write(2, TAG, "w2", b"second")
    read = cluster.read(1, TAG, "r1")
    assert read.result == b"second"
    assert read.timestamp.ts == 2


# -- Goodson et al. ----------------------------------------------------------------

def test_goodson_requires_n_gt_4t():
    with pytest.raises(ConfigurationError):
        _cluster("goodson", 4, 1)


def test_goodson_write_read():
    cluster = _cluster("goodson", 5, 1)
    cluster.write(1, TAG, "w1", b"erasure coded, validated at read")
    assert cluster.read(2, TAG, "r1").result == \
        b"erasure coded, validated at read"


def test_goodson_versions_accumulate():
    cluster = _cluster("goodson", 5, 1)
    for index in range(3):
        cluster.write(1, TAG, f"w{index}", b"v%d" % index)
    cluster.run()
    assert cluster.server(1).version_count(TAG) == 4  # initial + 3


def test_goodson_concurrent_atomicity():
    for seed in range(3):
        _, cluster = run_register_case("goodson", 5, 1, clients=3,
                                       writes=3, reads=3, seed=seed)
        HistoryRecorder(cluster, TAG).check()


def test_goodson_poison_rolls_back():
    cluster = _cluster(
        "goodson", 5, 1,
        client_overrides={
            2: lambda pid, cfg: PoisonousGoodsonWriter(pid, cfg)})
    cluster.write(1, TAG, "honest", b"good value")
    garbage = make_values(2, size=64, prefix=b"bad")
    cluster.client(2).attack_write(TAG, "poison", 50, garbage)
    cluster.run()
    read = cluster.read(1, TAG, "probe")
    assert read.result == b"good value"
    assert cluster.client(1).rollback_counts["probe"] == 1


def test_goodson_stacked_poison_costs_linear_rollbacks():
    cluster = _cluster(
        "goodson", 5, 1,
        client_overrides={
            2: lambda pid, cfg: PoisonousGoodsonWriter(pid, cfg)})
    cluster.write(1, TAG, "honest", b"good value")
    garbage = make_values(2, size=64, prefix=b"bad")
    for index in range(3):
        cluster.client(2).attack_write(TAG, f"p{index}", 50 + index,
                                       garbage)
    cluster.run()
    read = cluster.read(1, TAG, "probe")
    assert read.result == b"good value"
    assert cluster.client(1).rollback_counts["probe"] == 3


def test_goodson_crash_tolerance():
    from repro.faults.byzantine_servers import CrashServer
    cluster = _cluster(
        "goodson", 5, 1,
        server_overrides={5: lambda pid, cfg: CrashServer(pid, cfg)})
    cluster.write(1, TAG, "w1", b"alive")
    assert cluster.read(2, TAG, "r1").result == b"alive"


def test_goodson_storage_grows_with_history():
    cluster = _cluster("goodson", 5, 1)
    cluster.write(1, TAG, "w1", b"v" * 1000)
    cluster.run()
    first = cluster.server(1).register_storage_bytes(TAG)
    for index in range(3):
        cluster.write(1, TAG, f"more{index}", b"x" * 1000)
    cluster.run()
    assert cluster.server(1).register_storage_bytes(TAG) > first * 2
