"""Bracha reliable broadcast: validity, agreement, integrity."""

from repro.broadcast.reliable import (
    MSG_SEND,
    ReliableBroadcastServer,
    r_broadcast,
)
from repro.common.ids import client_id, server_id
from repro.config import SystemConfig
from repro.net.process import Process
from repro.net.schedulers import RandomScheduler
from repro.net.simulator import Simulator


class RbcHost(Process):
    """A server process hosting only the broadcast component."""

    def __init__(self, pid, config):
        super().__init__(pid)
        self.delivered = {}
        self.deliveries = 0
        self.rbc = ReliableBroadcastServer(self, config, self._deliver)

    def _deliver(self, tag, origin, value):
        self.delivered[tag] = value
        self.origins = getattr(self, "origins", {})
        self.origins[tag] = origin
        self.deliveries += 1


class Sender(Process):
    pass


def _network(n=4, t=1, seed=0, byzantine=0):
    config = SystemConfig(n=n, t=t)
    simulator = Simulator(scheduler=RandomScheduler(seed))
    servers = []
    for j in range(1, n + 1):
        if j <= byzantine:
            servers.append(simulator.add_process(Sender(server_id(j))))
        else:
            servers.append(simulator.add_process(
                RbcHost(server_id(j), config)))
    sender = simulator.add_process(Sender(client_id(1)))
    return simulator, servers, sender, config


def _honest(servers):
    return [s for s in servers if isinstance(s, RbcHost)]


def test_validity_all_honest_deliver():
    simulator, servers, sender, _ = _network()
    r_broadcast(sender, "t", ("payload", 42))
    simulator.run()
    for server in _honest(servers):
        assert server.delivered["t"] == ("payload", 42)


def test_validity_under_many_schedules():
    for seed in range(10):
        simulator, servers, sender, _ = _network(seed=seed)
        r_broadcast(sender, "t", seed)
        simulator.run()
        assert all(s.delivered.get("t") == seed for s in _honest(servers))


def test_integrity_single_delivery():
    simulator, servers, sender, _ = _network()
    r_broadcast(sender, "t", 1)
    r_broadcast(sender, "t", 1)  # duplicate send
    simulator.run()
    for server in _honest(servers):
        assert server.deliveries == 1


def test_independent_instances():
    simulator, servers, sender, _ = _network()
    r_broadcast(sender, "a", 1)
    r_broadcast(sender, "b", 2)
    simulator.run()
    for server in _honest(servers):
        assert server.delivered == {"a": 1, "b": 2}


def test_agreement_with_equivocating_sender():
    """An equivocating sender may or may not get delivery, but honest
    servers never deliver different values."""
    for seed in range(10):
        simulator, servers, sender, _ = _network(seed=seed)
        # Send conflicting values to different servers directly.
        for index, server in enumerate(simulator.server_pids):
            sender.send(server, "t", MSG_SEND, index % 2)
        simulator.run()
        delivered = {s.delivered["t"] for s in _honest(servers)
                     if "t" in s.delivered}
        assert len(delivered) <= 1, seed


def test_byzantine_server_cannot_forge_delivery():
    """With only t Byzantine echoes/readys, nothing is delivered."""
    simulator, servers, sender, config = _network(byzantine=1)
    byzantine = servers[0]
    for mtype in ("rbc-echo", "rbc-ready"):
        byzantine.send_to_servers("t", mtype, "forged")
    simulator.run()
    for server in _honest(servers):
        assert "t" not in server.delivered


def test_byzantine_server_cannot_flood_quorum():
    """Duplicate echoes from one Byzantine server count once."""
    simulator, servers, sender, config = _network(byzantine=1)
    byzantine = servers[0]
    for _ in range(10):
        byzantine.send_to_servers("t", "rbc-echo", "forged")
    simulator.run()
    assert all("t" not in s.delivered for s in _honest(servers))


def test_delivery_with_t_silent_servers():
    """Liveness with t crashed servers (they never echo)."""
    simulator, servers, sender, _ = _network(byzantine=1, seed=3)
    r_broadcast(sender, "t", "value")
    simulator.run()
    for server in _honest(servers):
        assert server.delivered["t"] == "value"


def test_larger_network():
    simulator, servers, sender, _ = _network(n=10, t=3, byzantine=3,
                                             seed=5)
    r_broadcast(sender, "t", b"x" * 100)
    simulator.run()
    assert all(s.delivered["t"] == b"x" * 100 for s in _honest(servers))


def test_delivered_query():
    simulator, servers, sender, _ = _network()
    host = _honest(servers)[0]
    assert not host.rbc.delivered("t")
    r_broadcast(sender, "t", 0)
    simulator.run()
    assert host.rbc.delivered("t")


def test_malformed_payload_ignored():
    simulator, servers, sender, _ = _network()
    for server in simulator.server_pids:
        sender.send(server, "t", MSG_SEND)  # empty payload
    simulator.run()
    assert all("t" not in s.delivered for s in _honest(servers))


def test_echo_from_client_ignored():
    """Only servers participate in echo/ready quorums."""
    simulator, servers, sender, _ = _network()
    for _ in range(5):
        sender.send_to_servers("t", "rbc-echo", "spoof")
        sender.send_to_servers("t", "rbc-ready", "spoof")
    simulator.run()
    assert all("t" not in s.delivered for s in _honest(servers))


def test_storage_bytes_transient():
    simulator, servers, sender, _ = _network()
    host = _honest(servers)[0]
    r_broadcast(sender, "t", "some value")
    simulator.run()
    # Completed instances drop their buffers.
    assert host.rbc.storage_bytes() == 0
