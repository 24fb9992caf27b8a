"""Atomic-broadcast detail behaviours: dedup, counters, cursoring."""

from repro.agreement.atomic_broadcast import AtomicBroadcast
from repro.common.ids import server_id
from repro.config import SystemConfig
from repro.net.process import Process
from repro.net.schedulers import RandomScheduler
from repro.net.simulator import Simulator


class AbcHost(Process):
    def __init__(self, pid, config):
        super().__init__(pid)
        self.log = []
        self.abc = AtomicBroadcast(
            self, config, lambda seq, req: self.log.append((seq, req)))


def _network(seed=0):
    config = SystemConfig(n=4, t=1, seed=seed)
    simulator = Simulator(scheduler=RandomScheduler(seed))
    hosts = [simulator.add_process(AbcHost(server_id(j), config))
             for j in range(1, 5)]
    return simulator, hosts


def test_duplicate_submissions_buffered_once():
    simulator, hosts = _network()
    for _ in range(5):
        hosts[0].abc.submit(("op", "same"))
    for host in hosts:
        host.abc.submit(("op", "same"))
    simulator.run(max_steps=800_000)
    for host in hosts:
        assert host.log == [(1, ("op", "same"))]
        assert len(host.log) == 1


def test_resubmission_after_delivery_ignored():
    simulator, hosts = _network(seed=2)
    for host in hosts:
        host.abc.submit(("op", 1))
    simulator.run(max_steps=800_000)
    assert all(len(host.log) == 1 for host in hosts)
    for host in hosts:
        host.abc.submit(("op", 1))  # already delivered: dropped
    simulator.run(max_steps=800_000)
    assert all(len(host.log) == 1 for host in hosts)


def test_sequence_numbers_are_gapless_and_identical():
    simulator, hosts = _network(seed=3)
    for index in range(4):
        hosts[index].abc.submit(("op", index))
    simulator.run(max_steps=1_500_000)
    logs = [host.log for host in hosts]
    assert all(log == logs[0] for log in logs)
    sequences = [seq for seq, _ in logs[0]]
    assert sequences == list(range(1, len(sequences) + 1))


def test_deterministic_intra_round_order():
    """Requests accepted in one round come out in canonical-encoding
    order — the same everywhere by construction."""
    simulator, hosts = _network(seed=4)
    for host in hosts:
        host.abc.submit(("b", 2))
        host.abc.submit(("a", 1))
    simulator.run(max_steps=800_000)
    delivered = [request for _, request in hosts[0].log]
    assert set(delivered) == {("a", 1), ("b", 2)}
    assert all(host.log == hosts[0].log for host in hosts)
