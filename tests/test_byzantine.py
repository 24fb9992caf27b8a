"""Byzantine fault injection: every attack against the core protocols."""

import pytest

from repro.analysis.history import HistoryRecorder
from repro.cluster import build_cluster
from repro.config import SystemConfig
from repro.baselines.bazzi_ding import BazziDingClient
from repro.baselines.martin import MartinClient
from repro.common.errors import ConfigurationError
from repro.core.atomic import AtomicClient
from repro.core.atomic_ns import AtomicNSClient
from repro.faults.byzantine_clients import (
    SKIP_TARGET,
    Half,
    byzantine_client,
)
from repro.faults.byzantine_servers import (
    AvidSpammerServer,
    CrashServer,
    EquivocatingReaderServer,
    InflatorNSServer,
    InflatorServer,
    StaleReaderServer,
)
from repro.faults.variants import derive
from repro.net.schedulers import RandomScheduler
from repro.workloads.generator import random_workload, run_workload

TAG = "reg"


def _cluster(protocol="atomic_ns", n=4, t=1, seed=0, clients=2,
             server_overrides=None, client_overrides=None):
    config = SystemConfig(n=n, t=t, seed=seed)
    return build_cluster(config, protocol=protocol, num_clients=clients,
                         scheduler=RandomScheduler(seed),
                         server_overrides=server_overrides,
                         client_overrides=client_overrides)


def _honest_servers(cluster):
    return [server for server in cluster.servers
            if hasattr(server, "register_state")
            and type(server).__module__.startswith("repro.core")]


# -- Byzantine servers ---------------------------------------------------------

@pytest.mark.parametrize("fault", [
    CrashServer, EquivocatingReaderServer, InflatorServer,
    StaleReaderServer, AvidSpammerServer,
])
def test_atomic_tolerates_each_server_fault(fault):
    cluster = _cluster(
        protocol="atomic",
        server_overrides={1: lambda pid, cfg: fault(pid, cfg)})
    cluster.write(1, TAG, "w1", b"resilient value")
    read = cluster.read(2, TAG, "r1")
    assert read.result == b"resilient value"
    HistoryRecorder(cluster, TAG,
                    honest_servers=[s.pid for s in cluster.servers[1:]]
                    ).check()


@pytest.mark.parametrize("fault", [CrashServer, InflatorNSServer])
def test_atomic_ns_tolerates_each_server_fault(fault):
    cluster = _cluster(
        protocol="atomic_ns",
        server_overrides={1: lambda pid, cfg: fault(pid, cfg)})
    cluster.write(1, TAG, "w1", b"resilient value")
    assert cluster.read(2, TAG, "r1").result == b"resilient value"


def test_t_crashes_in_larger_cluster():
    cluster = _cluster(
        protocol="atomic_ns", n=7, t=2, seed=2,
        server_overrides={
            1: lambda pid, cfg: CrashServer(pid, cfg),
            2: lambda pid, cfg: CrashServer(pid, cfg)})
    cluster.write(1, TAG, "w1", b"two down")
    assert cluster.read(2, TAG, "r1").result == b"two down"


def test_inflator_skips_atomic_but_not_ns():
    for protocol, inflator, expect_skip in (
            ("atomic", InflatorServer, True),
            ("atomic_ns", InflatorNSServer, False)):
        cluster = _cluster(
            protocol=protocol,
            server_overrides={1: lambda pid, cfg: inflator(pid, cfg)})
        cluster.write(1, TAG, "w1", b"v")
        cluster.run()
        ts = cluster.server(2).register_state(TAG).timestamp.ts
        assert (ts > 10 ** 6) == expect_skip, protocol


def test_concurrent_workload_with_byzantine_server():
    for seed in range(4):
        cluster = _cluster(
            protocol="atomic", clients=3, seed=seed,
            server_overrides={
                2: lambda pid, cfg: EquivocatingReaderServer(pid, cfg)})
        operations = random_workload(3, writes=3, reads=4, seed=seed)
        run_workload(cluster, TAG, operations, seed=seed)
        HistoryRecorder(
            cluster, TAG,
            honest_servers=[s.pid for i, s in enumerate(cluster.servers)
                            if i != 1]).check()


# -- Byzantine clients -----------------------------------------------------------

def test_skipping_client_succeeds_against_atomic():
    cluster = _cluster(
        protocol="atomic",
        client_overrides={2: byzantine_client(AtomicClient, "skip-ts")})
    skip = cluster.client(2).invoke_write(TAG, "skip", b"skipped value")
    cluster.run()
    assert skip.done  # the honest servers acked the skipping write
    ts = cluster.server(1).register_state(TAG).timestamp.ts
    assert ts == SKIP_TARGET + 1
    # The register still behaves atomically afterwards.
    assert cluster.read(1, TAG, "r1").result == b"skipped value"


def test_skipping_client_fails_against_atomic_ns():
    cluster = _cluster(
        protocol="atomic_ns",
        client_overrides={2: byzantine_client(AtomicNSClient, "skip-ts")})
    skip = cluster.client(2).invoke_write(TAG, "skip", b"should not land")
    cluster.run()
    assert not skip.done
    assert cluster.server(1).register_state(TAG).timestamp.ts == 0
    accepted = [event for event in cluster.simulator.event_log
                if event.kind == "out"
                and event.action == "write-accepted"]
    assert accepted == []


def test_inconsistent_disperser_never_takes_effect():
    for protocol, client_cls in (("atomic", AtomicClient),
                                 ("atomic_ns", AtomicNSClient)):
        writer = byzantine_client(client_cls, "inconsistent-dispersal")
        cluster = _cluster(protocol=protocol,
                           client_overrides={2: writer})
        cluster.write(1, TAG, "honest", b"clean")
        cluster.client(2).invoke_write(TAG, "dirty", b"junk-A" * 8)
        cluster.run()
        assert cluster.read(1, TAG, "r1").result == b"clean"
        accepted = {event.payload[0]
                    for event in cluster.simulator.event_log
                    if event.kind == "out"
                    and event.action == "write-accepted"}
        assert "dirty" not in accepted


def test_half_writer_all_or_nothing():
    """Dispersal agreement: the half-written value either takes effect at
    all honest servers eventually or at none; reads never block."""

    class ThreeServers(Half):
        COUNT = 3

    writer = derive(ThreeServers, AtomicClient, "ThreeServerHalfWriter")
    for seed in range(5):
        cluster = _cluster(protocol="atomic", seed=seed,
                           client_overrides={2: writer})
        cluster.client(2).invoke_write(TAG, "half", b"half-written")
        cluster.run()
        completed = [server for server in cluster.servers
                     if "half" in server.register_state(TAG).accepted]
        assert len(completed) in (0, 4), seed
        read = cluster.read(1, TAG, "r1")
        assert read.done


def test_equivocating_rbc_writer_no_split():
    for seed in range(5):
        cluster = _cluster(protocol="atomic", seed=seed,
                           client_overrides={
                               2: byzantine_client(AtomicClient,
                                                   "equivocate-rbc")})
        cluster.client(2).invoke_write(TAG, "equiv", b"value")
        cluster.run()
        timestamps = {server.register_state(TAG).timestamp.ts
                      for server in cluster.servers}
        # Either nothing was accepted (ts 0) or all honest agree on one.
        assert len(timestamps - {0}) <= 1


def test_split_brain_wedges_martin_but_not_atomic():
    """The paper's motivating attack: inconsistent replication wedges
    SBQ-L reads; verifiable dispersal is immune by construction."""
    cluster = build_cluster(
        SystemConfig(n=4, t=1), protocol="martin", num_clients=2,
        scheduler=RandomScheduler(0),
        client_overrides={2: byzantine_client(MartinClient, "split-brain")})
    cluster.client(2).invoke_write(TAG, "split", b"split value")
    cluster.run()
    assert cluster.server(1).register_state(TAG).timestamp.ts \
        == SKIP_TARGET
    # The poisoned timestamp is now the highest at every server; a read
    # can never assemble n - t matching replies, so it stalls forever.
    handle = cluster.client(1).invoke_read(TAG, "r1")
    cluster.run()
    assert not handle.done


def test_store_skipping_client_lands_one_huge_timestamp_on_bazzi_ding():
    """With no client authentication a corrupted Bazzi-Ding writer
    stores one value everywhere under ``SKIP_TARGET`` (F4's
    client-skipping row): the register skips but stays readable."""
    cluster = build_cluster(
        SystemConfig(n=5, t=1), protocol="bazzi_ding", num_clients=2,
        scheduler=RandomScheduler(0),
        client_overrides={2: byzantine_client(BazziDingClient,
                                              "skip-store")})
    skip = cluster.client(2).invoke_write(TAG, "skip", b"skipped")
    cluster.run()
    assert skip.done
    assert {server.register_state(TAG).timestamp.ts
            for server in cluster.servers} == {SKIP_TARGET}
    assert cluster.read(1, TAG, "r1").result == b"skipped"


def test_colluding_client_and_server():
    """A Byzantine client colluding with a Byzantine server still cannot
    break atomicity for honest clients of AtomicNS."""
    cluster = _cluster(
        protocol="atomic_ns", clients=3, seed=4,
        server_overrides={1: lambda pid, cfg: InflatorNSServer(pid, cfg)},
        client_overrides={3: byzantine_client(AtomicNSClient, "skip-ts")})
    cluster.write(1, TAG, "w1", b"honest-1")
    cluster.client(3).invoke_write(TAG, "evil", b"evil-value")
    cluster.run()
    cluster.write(2, TAG, "w2", b"honest-2")
    read = cluster.read(1, TAG, "r1")
    assert read.result == b"honest-2"
    ts = cluster.server(2).register_state(TAG).timestamp.ts
    assert ts == 2  # non-skipping survived the collusion


def test_client_attack_derives_once_on_the_clients_it_deviates_from():
    """One attack, derived on each protocol's own client class; the
    same class on every request, and a clear error for an unknown
    attack or a client it does not deviate from."""
    skipping = byzantine_client(AtomicNSClient, "skip-ts")
    assert skipping is byzantine_client(AtomicNSClient, "skip-ts")
    assert skipping is not byzantine_client(AtomicClient, "skip-ts")
    assert issubclass(skipping, AtomicNSClient)
    with pytest.raises(ConfigurationError, match="unknown byzantine client"):
        byzantine_client(AtomicClient, "no-such-attack")
    with pytest.raises(ConfigurationError,
                       match="'replay-ts' deviates from AtomicNSClient"):
        byzantine_client(AtomicClient, "replay-ts")
