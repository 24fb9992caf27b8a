"""Resource hygiene: no leaked threads or buffers after complete runs."""

from repro.cluster import build_cluster, run_register_case
from repro.config import SystemConfig
from repro.net.schedulers import RandomScheduler

TAG = "reg"


def _drained_cluster(protocol="atomic_ns", seed=0):
    n = 5 if protocol in ("goodson", "bazzi_ding") else 4
    _, cluster = run_register_case(protocol, n, 1, clients=3, writes=4,
                                   reads=4, seed=seed)
    cluster.run()
    return cluster


def test_no_parked_client_threads_after_completion():
    """A parked client thread after quiescence would be an operation that
    never terminated (or a leaked wait state)."""
    for protocol in ("atomic", "atomic_ns", "martin", "goodson"):
        cluster = _drained_cluster(protocol=protocol)
        for client in cluster.clients:
            assert len(client._threads) == 0, (protocol, client.pid)


def test_no_parked_server_threads_after_completion():
    """Server share-round threads must all have resumed and finished."""
    cluster = _drained_cluster(protocol="atomic_ns")
    for server in cluster.servers:
        assert len(server._threads) == 0, server.pid


def test_substrate_buffers_released():
    """Completed broadcast/dispersal instances drop their block buffers
    (storage complexity stays proportional to live registers only)."""
    cluster = _drained_cluster(protocol="atomic_ns")
    for server in cluster.servers:
        assert server.rbc.storage_bytes() == 0
        assert server.avid.storage_bytes() == 0


def test_listener_sets_empty_after_reads_complete():
    cluster = _drained_cluster(protocol="atomic")
    for server in cluster.servers:
        assert len(server.register_state(TAG).listeners) == 0


def test_storage_stable_across_repeated_runs():
    """Register storage is the latest value's block, not a history."""
    cluster = build_cluster(SystemConfig(n=4, t=1), protocol="atomic_ns",
                            num_clients=1, scheduler=RandomScheduler(1))
    cluster.write(1, TAG, "w0", b"x" * 1000)
    cluster.run()
    first = cluster.server(1).register_storage_bytes(TAG)
    for index in range(1, 6):
        cluster.write(1, TAG, f"w{index}", b"x" * 1000)
    cluster.run()
    last = cluster.server(1).register_storage_bytes(TAG)
    assert abs(last - first) < 64  # oid-length jitter only
