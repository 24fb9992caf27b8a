"""Instance-hijacking (front-running) attacks on the write sub-protocols.

A Byzantine party that learns an operation identifier (e.g. from the
``get-ts`` query) may race its own ``send`` messages onto the write's
dispersal/broadcast tags.  Origin-scoped instances make this harmless:
the forgery opens a separate session attributed to the forger, server
origins are rejected outright, and the register join only pairs a
dispersal and a broadcast from the *same* party.
"""

import pytest

from repro.avid.disperse import MSG_SEND as AVID_SEND
from repro.broadcast.reliable import MSG_SEND as RBC_SEND
from repro.cluster import build_cluster
from repro.config import SystemConfig
from repro.core.atomic import AtomicServer, disp_tag, rbc_tag
from repro.core.timestamps import Timestamp
from repro.net.message import Message
from repro.net.process import Process
from repro.net.schedulers import FifoScheduler, RandomScheduler

TAG = "reg"


class FrontRunningServer(AtomicServer):
    """Byzantine server: the moment it sees a ``get-ts`` query, it races
    forged ``send`` messages onto the operation's sub-protocol tags,
    trying to bind the instance before the honest client can."""

    def __init__(self, pid, config, initial_value=b""):
        super().__init__(pid, config, initial_value)
        self.on("get-ts", self._front_run)

    def _front_run(self, message: Message) -> None:
        if len(message.payload) != 1:
            return
        (oid,) = message.payload
        # Forged broadcast: a tiny timestamp, to drag the write backwards.
        self.send_to_servers(rbc_tag(message.tag, oid), RBC_SEND, 0)
        # Forged dispersal of a garbage value.
        blocks = self.config.coder.encode(b"HIJACKED")
        commitment, witnesses = self.config.commitment_scheme.commit(blocks)
        for index, server in enumerate(self.simulator.server_pids,
                                       start=1):
            self.send(server, disp_tag(message.tag, oid), AVID_SEND,
                      commitment, blocks[index - 1], witnesses[index - 1])


class FrontRunningClient(Process):
    """Byzantine client racing complete sessions (its own origin) onto an
    honest write's tags — a model-violating oid reuse, shown here to at
    worst add a competing write, never to block the honest one."""

    def __init__(self, pid, config):
        super().__init__(pid)
        self.config = config
        self.on("race", self._ignored)

    def _ignored(self, message):
        pass

    def race(self, register_tag: str, oid: str) -> None:
        from repro.avid.disperse import disperse
        from repro.broadcast.reliable import r_broadcast
        disperse(self, disp_tag(register_tag, oid), b"RACED", self.config)
        r_broadcast(self, rbc_tag(register_tag, oid), 0)


@pytest.mark.parametrize("scheduler_cls,seed", [
    (FifoScheduler, 0), (RandomScheduler, 1), (RandomScheduler, 2),
])
def test_front_running_server_cannot_hijack_write(scheduler_cls, seed):
    """FIFO delivery guarantees the forged sends arrive *before* the
    honest client's — the strongest version of the race — yet the write
    completes with the honest value and timestamp."""
    scheduler = scheduler_cls() if scheduler_cls is FifoScheduler \
        else scheduler_cls(seed)
    cluster = build_cluster(
        SystemConfig(n=4, t=1, seed=seed), protocol="atomic",
        num_clients=2, scheduler=scheduler,
        server_overrides={
            1: lambda pid, cfg: FrontRunningServer(pid, cfg)})
    cluster.write(1, TAG, "prime", b"priming write")
    write = cluster.write(1, TAG, "w1", b"honest value")
    assert write.done
    read = cluster.read(2, TAG, "r1")
    assert read.result == b"honest value"
    # The forged ts=0 broadcast could have dragged the write to ts 1;
    # the honest client queried max >= 1 and broadcast it, so ts = 2.
    assert read.timestamp == Timestamp(2, "w1")


def test_front_running_server_forged_sends_are_rejected_outright():
    """Server-originated sends never even open a session."""
    cluster = build_cluster(
        SystemConfig(n=4, t=1), protocol="atomic", num_clients=1,
        scheduler=FifoScheduler(),
        server_overrides={
            1: lambda pid, cfg: FrontRunningServer(pid, cfg)})
    write = cluster.write(1, TAG, "w1", b"honest value")
    cluster.run()
    # No server ever accepted anything but the honest write, exactly once.
    accepted = [event for event in cluster.simulator.event_log
                if event.kind == "out"
                and event.action == "write-accepted"]
    assert {event.payload[0] for event in accepted} == {"w1"}
    values = {event.payload[1] for event in accepted}
    assert values == {Timestamp(1, "w1")}


def test_racing_byzantine_client_breaks_liveness_not_safety():
    """A *client*-originated race reuses the honest write's oid — which
    the model explicitly forbids ("must be unique in the system").  This
    test documents what actually happens if the assumption is violated:
    each server accepts only one write per oid, so the honest write can
    starve (liveness is the casualty — this is *why* the model demands
    unique oids), but safety never budges: reads terminate and return a
    well-defined, actually-written value.
    """
    for seed in range(4):
        cluster = build_cluster(
            SystemConfig(n=4, t=1, seed=seed), protocol="atomic",
            num_clients=2, scheduler=RandomScheduler(seed),
            client_overrides={
                2: lambda pid, cfg: FrontRunningClient(pid, cfg)})
        cluster.client(2).race(TAG, "w1")
        cluster.run()
        handle = cluster.client(1).invoke_write(TAG, "w1",
                                                b"honest value")
        cluster.run()
        # Whichever session won, exactly one write took effect per
        # server, with one consistent TIMESTAMP...
        accepted = [event for event in cluster.simulator.event_log
                    if event.kind == "out"
                    and event.action == "write-accepted"]
        assert len(accepted) == 4
        assert len({event.payload[1] for event in accepted}) == 1
        # ...and reads stay live and well-defined.
        read = cluster.read(1, TAG, "r1")
        assert read.result in (b"honest value", b"RACED")
        if not handle.done:
            # The documented liveness loss: the racer's session was
            # accepted first somewhere, starving the honest acks.
            assert read.result == b"RACED"
