"""Simulator extensions: causal depth, partitions, invariant hooks,
listener capacity."""

import pytest

from repro.analysis import make_register_invariant
from repro.cluster import build_cluster, run_register_case
from repro.common.errors import ProtocolError
from repro.common.ids import client_id, server_id
from repro.config import SystemConfig
from repro.core.listeners import ListenerSet
from repro.core.timestamps import Timestamp
from repro.net.schedulers import PartitionScheduler, RandomScheduler
from repro.workloads.generator import random_workload, run_workload

TAG = "reg"


# -- causal depth / latency rounds -----------------------------------------------

def test_write_latency_rounds_per_protocol():
    # Quorum completion may ride a ready-amplification path, adding one
    # hop; the floor is the protocol's critical path.
    expected = {"martin": (4, 4), "atomic": (6, 7), "atomic_ns": (7, 8)}
    for protocol, (low, high) in expected.items():
        cluster = build_cluster(SystemConfig(n=4, t=1), protocol=protocol,
                                num_clients=1,
                                scheduler=RandomScheduler(0))
        handle = cluster.write(1, TAG, "w", b"x")
        assert low <= handle.latency_rounds <= high, protocol


def test_read_latency_is_one_round_trip():
    cluster = build_cluster(SystemConfig(n=4, t=1), protocol="atomic_ns",
                            num_clients=1, scheduler=RandomScheduler(0))
    cluster.write(1, TAG, "w", b"x")
    read = cluster.read(1, TAG, "r")
    assert read.latency_rounds == 2


def test_depth_stays_within_one_hop_of_critical_path():
    """The schedule decides whether the completing ack rode the direct
    echo-quorum path (6 hops) or a ready-amplification path (7), never
    anything else."""
    rounds = set()
    for seed in range(8):
        cluster = build_cluster(SystemConfig(n=4, t=1),
                                protocol="atomic", num_clients=1,
                                scheduler=RandomScheduler(seed))
        handle = cluster.write(1, TAG, "w", b"x")
        rounds.add(handle.latency_rounds)
    assert rounds <= {6, 7}
    assert 6 in rounds


# -- partitions ---------------------------------------------------------------------

def test_partition_starves_cross_traffic_until_heal():
    group = {server_id(1), server_id(2)}
    scheduler = PartitionScheduler(group, heal_after=10 ** 9, seed=1)
    cluster = build_cluster(SystemConfig(n=4, t=1), protocol="atomic",
                            num_clients=1, scheduler=scheduler)
    # With the client outside the group, intra-group traffic is always
    # preferred; operations still terminate because starved messages are
    # delivered when nothing else is pending (eventual delivery).
    handle = cluster.write(1, TAG, "w1", b"partitioned but eventual")
    assert handle.done
    assert not scheduler.healed


def test_partition_heals():
    scheduler = PartitionScheduler({server_id(1)}, heal_after=5, seed=0)
    cluster = build_cluster(SystemConfig(n=4, t=1), protocol="atomic",
                            num_clients=1, scheduler=scheduler)
    cluster.write(1, TAG, "w1", b"x")
    assert scheduler.healed
    assert cluster.read(1, TAG, "r1").result == b"x"


def test_partitioned_concurrent_workload_linearizes():
    from repro.analysis.history import HistoryRecorder
    from repro.chaos import FaultPlan, SchedulerSpec
    plan = FaultPlan(name="partition", scheduler=SchedulerSpec(
        name="partition", group=(1, 3), heal_after=200))
    _, cluster = run_register_case("atomic_ns", 4, 1, seed=4, plan=plan)
    HistoryRecorder(cluster, TAG).check()


# -- invariant hooks ---------------------------------------------------------------

def test_invariants_hold_on_honest_runs():
    cluster = build_cluster(SystemConfig(n=4, t=1), protocol="atomic_ns",
                            num_clients=3, scheduler=RandomScheduler(2))
    cluster.simulator.add_invariant(make_register_invariant(TAG))
    operations = random_workload(3, writes=4, reads=4, seed=2)
    run_workload(cluster, TAG, operations, seed=2)


def test_invariant_detects_forged_acceptance():
    """Manually corrupting a server's state trips the hook at the next
    delivery."""
    cluster = build_cluster(SystemConfig(n=4, t=1), protocol="atomic",
                            num_clients=1, scheduler=RandomScheduler(0))
    cluster.simulator.add_invariant(make_register_invariant(TAG))
    cluster.write(1, TAG, "w1", b"x")
    state = cluster.server(1).register_state(TAG)
    state.timestamp = Timestamp(0, "")  # illegal: goes backwards
    with pytest.raises(ProtocolError):
        cluster.write(1, TAG, "w2", b"y")


def test_invariant_detects_conflicting_acceptance():
    cluster = build_cluster(SystemConfig(n=4, t=1), protocol="atomic",
                            num_clients=1, scheduler=RandomScheduler(0))
    cluster.simulator.add_invariant(make_register_invariant(TAG))
    cluster.write(1, TAG, "w1", b"x")
    # Forge a second write-accepted for w1 with a different TIMESTAMP.
    cluster.server(1).output(TAG, "write-accepted", "w1",
                             Timestamp(9, "w1"))
    with pytest.raises(ProtocolError):
        cluster.write(1, TAG, "w2", b"y")


# -- listener capacity (the §3.5 bound) --------------------------------------------

def test_listener_capacity_enforced():
    listeners = ListenerSet(capacity=2)
    assert listeners.add("r1", Timestamp(1, "a"), client_id(1))
    assert listeners.add("r2", Timestamp(1, "a"), client_id(2))
    assert not listeners.add("r3", Timestamp(1, "a"), client_id(3))
    listeners.retire("r1")
    assert listeners.add("r3", Timestamp(1, "a"), client_id(3))


def test_bounded_listeners_still_serve_quiet_reads():
    from repro.core.atomic import AtomicServer
    cluster = build_cluster(
        SystemConfig(n=4, t=1), protocol="atomic", num_clients=2,
        scheduler=RandomScheduler(1),
        server_overrides={
            j: (lambda pid, cfg: AtomicServer(pid, cfg, max_listeners=0))
            for j in range(1, 5)})
    cluster.write(1, TAG, "w1", b"x")
    # Isolated reads need no forwarding, so capacity 0 is harmless here.
    assert cluster.read(2, TAG, "r1").result == b"x"
    for server in cluster.servers:
        assert len(server.register_state(TAG).listeners) == 0
