"""The no-listeners ablation variant: retrying reads."""

import pytest

from repro.analysis.history import HistoryRecorder
from repro.cluster import build_cluster, run_register_case
from repro.common.errors import LivenessError
from repro.config import SystemConfig
from repro.net.schedulers import RandomScheduler
from repro.workloads.generator import random_workload, run_workload

TAG = "reg"


def _cluster(seed=0, clients=2, max_read_rounds=None):
    config = SystemConfig(n=4, t=1, seed=seed)
    cluster = build_cluster(config, protocol="no_listeners",
                            num_clients=clients,
                            scheduler=RandomScheduler(seed))
    if max_read_rounds is not None:
        for client in cluster.clients:
            client.max_read_rounds = max_read_rounds
    return cluster


def test_write_then_read():
    cluster = _cluster()
    cluster.write(1, TAG, "w1", b"no listeners needed when quiet")
    read = cluster.read(2, TAG, "r1")
    assert read.result == b"no listeners needed when quiet"
    assert cluster.client(2).read_rounds["r1"] == 1


def test_servers_keep_no_listener_state():
    cluster = _cluster()
    cluster.write(1, TAG, "w1", b"x")
    cluster.read(2, TAG, "r1")
    cluster.run()
    for server in cluster.servers:
        assert len(server.register_state(TAG).listeners) == 0


def test_concurrent_histories_still_linearize():
    """Safety is untouched by the ablation — only wait-freedom is."""
    for seed in range(5):
        _, cluster = run_register_case("no_listeners", 4, 1, clients=3,
                                       writes=3, reads=4, seed=seed)
        HistoryRecorder(cluster, TAG).check()


def test_reads_may_need_retries_under_concurrency():
    """Across seeds, some read observes a torn quorum and retries —
    the wait-freedom cost listeners eliminate."""
    total_retries = 0
    for seed in range(12):
        cluster = _cluster(seed=seed, clients=3)
        operations = random_workload(3, writes=5, reads=5, seed=seed)
        run_workload(cluster, TAG, operations, seed=seed,
                     invoke_probability=0.04)
        for client in cluster.clients:
            rounds = getattr(client, "read_rounds", {})
            total_retries += sum(count - 1 for count in rounds.values())
    assert total_retries > 0


def test_round_budget_enforced():
    cluster = _cluster(max_read_rounds=1, clients=2)
    cluster.write(1, TAG, "w1", b"x")
    # A quiet read finishes within one round — no error.
    read = cluster.read(2, TAG, "r1")
    assert read.done and cluster.client(2).max_read_rounds == 1
