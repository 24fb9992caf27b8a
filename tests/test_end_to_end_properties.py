"""Property-based end-to-end testing: random workloads under random
adversarial schedules must always terminate and linearize.

These are the heaviest invariant checks in the suite: Hypothesis chooses
the protocol, deployment, fault set, workload shape, and scheduler seed;
the invariants of Definition 1 (wait-freedom + atomicity) must hold for
every draw.  A failing example shrinks to a minimal schedule and is
exactly reproducible from its seed.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.history import HistoryRecorder
from repro.cluster import build_cluster, run_register_case
from repro.config import SystemConfig
from repro.faults.byzantine_servers import (
    CrashServer,
    EquivocatingReaderServer,
    InflatorNSServer,
)
from repro.net.schedulers import RandomScheduler
from repro.workloads.generator import random_workload, run_workload

TAG = "reg"

SLOW = settings(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@SLOW
@given(
    protocol=st.sampled_from(["atomic", "atomic_ns"]),
    seed=st.integers(min_value=0, max_value=10 ** 6),
    writes=st.integers(min_value=1, max_value=4),
    reads=st.integers(min_value=1, max_value=4),
    clients=st.integers(min_value=1, max_value=3),
)
def test_random_workloads_linearize(protocol, seed, writes, reads,
                                    clients):
    _, cluster = run_register_case(protocol, 4, 1, clients=clients,
                                   writes=writes, reads=reads, seed=seed)
    HistoryRecorder(cluster, TAG).check()


@SLOW
@given(
    seed=st.integers(min_value=0, max_value=10 ** 6),
    fault=st.sampled_from(["crash", "equivocate", "inflate"]),
    faulty_index=st.integers(min_value=1, max_value=4),
)
def test_byzantine_server_never_breaks_invariants(seed, fault,
                                                  faulty_index):
    factories = {
        "crash": CrashServer,
        "equivocate": EquivocatingReaderServer,
        "inflate": InflatorNSServer,
    }
    config = SystemConfig(n=4, t=1, seed=seed)
    cluster = build_cluster(
        config, protocol="atomic_ns", num_clients=2,
        scheduler=RandomScheduler(seed),
        server_overrides={
            faulty_index:
                lambda pid, cfg: factories[fault](pid, cfg)})
    operations = random_workload(2, writes=2, reads=3, seed=seed)
    run_workload(cluster, TAG, operations, seed=seed)
    honest = [server.pid for index, server in
              enumerate(cluster.servers, start=1)
              if index != faulty_index]
    HistoryRecorder(cluster, TAG, honest_servers=honest).check()


@SLOW
@given(
    seed=st.integers(min_value=0, max_value=10 ** 6),
    k=st.integers(min_value=1, max_value=3),
    value_size=st.integers(min_value=16, max_value=600),
)
def test_every_k_and_value_size(seed, k, value_size):
    _, cluster = run_register_case("atomic", 4, 1, k=k, writes=2, reads=2,
                                   seed=seed, value_size=value_size)
    HistoryRecorder(cluster, TAG).check()


@SLOW
@given(
    protocol=st.sampled_from(["martin", "goodson", "bazzi_ding"]),
    seed=st.integers(min_value=0, max_value=10 ** 6),
)
def test_baselines_linearize_with_honest_clients(protocol, seed):
    n = 4 if protocol == "martin" else 5
    _, cluster = run_register_case(protocol, n, 1, writes=2, reads=3,
                                   seed=seed)
    HistoryRecorder(cluster, TAG).check()
