"""Simulator and process semantics: delivery, activation, wait states."""

import hashlib

import pytest

from repro.common.errors import LivenessError, SimulationError
from repro.common.ids import client_id, server_id
from repro.net.process import Process
from repro.net.schedulers import RandomScheduler
from repro.net.simulator import Simulator


class Echoer(Process):
    """Replies 'pong' to every 'ping'."""

    def __init__(self, pid):
        super().__init__(pid)
        self.pings = 0
        self.on("ping", self._on_ping)

    def _on_ping(self, message):
        self.pings += 1
        self.send(message.sender, message.tag, "pong", *message.payload)


class Collector(Process):
    """Thread-based process: waits for a quorum of pongs, then outputs."""

    def __init__(self, pid, need):
        super().__init__(pid)
        self.need = need
        self.result = None

    def start(self, tag):
        self.start_thread(self._run(tag))

    def _run(self, tag):
        self.send_to_servers(tag, "ping", "hello")
        messages = yield self.condition_quorum(tag, "pong", self.need)
        self.result = sorted(m.sender.index for m in messages)
        self.output(tag, "done", len(messages))


def _network(servers=3, scheduler=None):
    simulator = Simulator(scheduler=scheduler)
    for j in range(1, servers + 1):
        simulator.add_process(Echoer(server_id(j)))
    collector = simulator.add_process(Collector(client_id(1), need=2))
    return simulator, collector


def test_request_reply_quorum():
    simulator, collector = _network()
    collector.start("t")
    simulator.run()
    assert collector.result is not None
    assert len(collector.result) == 2


def test_thread_parks_until_condition():
    simulator, collector = _network()
    collector.start("t")
    assert len(collector._threads) == 1
    simulator.run()
    assert len(collector._threads) == 0


def test_output_actions_logged():
    simulator, collector = _network()
    collector.start("t")
    simulator.run()
    outputs = [e for e in simulator.event_log if e.kind == "out"]
    assert len(outputs) == 1
    assert outputs[0].action == "done"
    assert outputs[0].party == client_id(1)


def test_event_times_strictly_increase():
    simulator, collector = _network()
    collector.start("t")
    simulator.run()
    times = [e.time for e in simulator.event_log]
    assert times == sorted(times) and len(set(times)) == len(times)


def test_deterministic_given_seed():
    def run_once():
        simulator, collector = _network(scheduler=RandomScheduler(5))
        collector.start("t")
        simulator.run()
        return collector.result, simulator.time

    assert run_once() == run_once()


def test_messages_to_unknown_party_rejected():
    simulator = Simulator()
    lonely = simulator.add_process(Echoer(server_id(1)))
    with pytest.raises(SimulationError):
        lonely.send(server_id(9), "t", "ping")


def test_duplicate_party_rejected():
    simulator = Simulator()
    simulator.add_process(Echoer(server_id(1)))
    with pytest.raises(SimulationError):
        simulator.add_process(Echoer(server_id(1)))


def test_unattached_process_cannot_send():
    process = Echoer(server_id(1))
    with pytest.raises(SimulationError):
        process.send(server_id(2), "t", "ping")


def test_run_step_bound():
    class Ponger(Process):
        def __init__(self, pid, peer):
            super().__init__(pid)
            self.peer = peer
            self.on("ball", lambda m: self.send(self.peer, "t", "ball"))

    simulator = Simulator()
    a = simulator.add_process(Ponger(server_id(1), server_id(2)))
    simulator.add_process(Ponger(server_id(2), server_id(1)))
    a.send(server_id(2), "t", "ball")
    with pytest.raises(SimulationError):
        simulator.run(max_steps=100)


def test_run_until_predicate():
    simulator, collector = _network()
    collector.start("t")
    steps = simulator.run_until(lambda: collector.result is not None)
    assert collector.result is not None
    assert steps <= 6  # 3 pings + at most 3 pongs


def test_run_until_quiescence_without_predicate_raises():
    """Quiescence with the predicate still false is a liveness failure,
    not a silent success (the step count used to be indistinguishable
    from a satisfied wait)."""
    simulator, collector = _network()
    collector.start("t")
    with pytest.raises(LivenessError):
        simulator.run_until(lambda: False)
    assert simulator.pending_count == 0  # the network did drain


def test_run_until_already_satisfied_predicate():
    simulator, collector = _network()
    collector.start("t")
    assert simulator.run_until(lambda: True) == 0


def test_record_deliveries_flag():
    simulator = Simulator()
    simulator.record_deliveries = True
    for j in (1, 2, 3):
        simulator.add_process(Echoer(server_id(j)))
    collector = simulator.add_process(Collector(client_id(1), need=2))
    collector.start("t")
    simulator.run()
    delivered = [e for e in simulator.event_log if e.kind == "deliver"]
    assert len(delivered) == 6  # 3 pings + 3 pongs


def test_sender_identity_is_channel_bound():
    """A process cannot spoof another party's identity."""
    simulator, collector = _network()
    collector.start("t")
    simulator.run()
    for event in simulator.event_log:
        pass
    # All pongs seen by the collector carry true server identities.
    senders = {m.sender
               for m in collector.inbox.first_per_sender("t", "pong")}
    assert senders <= {server_id(j) for j in (1, 2, 3)}


def test_handler_generator_resumes_with_condition_value():
    class Waiter(Process):
        def __init__(self, pid):
            super().__init__(pid)
            self.got = None
            self.on("go", self._go)

        def _go(self, message):
            first = yield self.condition_quorum(message.tag, "data", 1)
            self.got = first[0].payload[0]

    simulator = Simulator()
    waiter = simulator.add_process(Waiter(server_id(1)))
    feeder = simulator.add_process(Echoer(server_id(2)))
    feeder.send(server_id(1), "t", "go")
    simulator.run()
    assert waiter.got is None  # still waiting for data
    feeder.send(server_id(1), "t", "data", 42)
    simulator.run()
    assert waiter.got == 42


def test_immediately_satisfiable_condition_does_not_park():
    class Eager(Process):
        def __init__(self, pid):
            super().__init__(pid)
            self.done = False

        def start(self):
            self.start_thread(self._run())

        def _run(self):
            value = yield (lambda: "ready")
            assert value == "ready"
            self.done = True

    simulator = Simulator()
    eager = simulator.add_process(Eager(server_id(1)))
    eager.start()
    assert eager.done and len(eager._threads) == 0


def test_thread_yielding_non_callable_raises():
    class Broken(Process):
        def start(self):
            self.start_thread(self._run())

        def _run(self):
            yield 42

    simulator = Simulator()
    broken = simulator.add_process(Broken(server_id(1)))
    with pytest.raises(SimulationError):
        broken.start()


def test_storage_bytes_default_zero():
    simulator, collector = _network()
    assert simulator.storage_bytes() == 0


def test_any_object_with_choose_drives_a_run():
    """``choose(pending)`` is the whole scheduler contract: an object
    that only has a ``choose`` (no :class:`Scheduler` base) drives a
    cluster to the same event log as the scheduler it delegates to."""
    from repro.cluster import build_cluster
    from repro.config import SystemConfig

    class ChooseOnly:
        def __init__(self, seed):
            self._inner = RandomScheduler(seed)

        def choose(self, pending):
            return self._inner.choose(pending)

    def digest(scheduler):
        cluster = build_cluster(SystemConfig(n=4, t=1), protocol="atomic_ns",
                                num_clients=1, scheduler=scheduler)
        cluster.simulator.record_deliveries = True
        cluster.write(1, "reg", "w0", b"v0")
        cluster.read(1, "reg", "r0")
        cluster.run()
        lines = "\n".join(repr(event)
                          for event in cluster.simulator.event_log)
        return hashlib.sha256(lines.encode()).hexdigest()

    assert digest(ChooseOnly(7)) == digest(RandomScheduler(7))
