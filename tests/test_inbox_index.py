"""The input buffer keeps what a wait state may still read, and a
delivery wakes only what it can change.

* **Retention** — handler-consumed, retired-operation and repeated
  messages are never buffered; fault-free runs end with empty inboxes.
* **Index-vs-scan oracle** — a query that names its operation returns
  exactly what filtering the whole ``(tag, mtype)`` history through the
  old ``where=`` lambda returned, in arrival order.
* **Wake-ups** — a parked thread that declared its buckets is
  re-checked only when a message joins one of them.
* **Scaling guard** — by count, not by clock: predicate evaluations per
  delivered message do not depend on how many operations a hot
  register has already served.
* **Flood bound** — a designated-faulty server repeating everything it
  sends cannot grow an honest party beyond its open operations.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.history import HistoryRecorder
from repro.chaos import FaultInjector, FaultPlan, FaultRule
from repro.cluster import PROTOCOLS as PROTOCOL_CLASSES, build_cluster
from repro.common.errors import SimulationError
from repro.common.ids import client_id, server_id
from repro.config import SystemConfig
from repro.faults.byzantine_servers import CrashServer
from repro.faults.failstop import fail_stop
from repro.kv import KvDirectory, build_kv_cluster, check_kv_histories, drive
from repro.net.inbox import Inbox
from repro.net.message import Message
from repro.net.process import Process, WaitState
from repro.net.schedulers import RandomScheduler
from repro.net.simulator import Simulator
from repro.workloads.generator import random_workload, run_workload
from repro.workloads.kv import KvOp

TAG = "reg"
PROTOCOLS = ("atomic", "atomic_ns", "atomic_md")


def _msg(msg_id, tag="reg", mtype="ack", sender=1, payload=("w1",)):
    return Message(tag=tag, mtype=mtype, sender=server_id(sender),
                   recipient=client_id(1), payload=payload, msg_id=msg_id)


def _config(protocol, n=4, t=1, seed=0):
    return SystemConfig(n=n, t=t, seed=seed,
                        k=t + 1 if protocol == "atomic_md" else None)


# -- retention ----------------------------------------------------------------

def test_messages_are_bucketed_by_operation():
    inbox = Inbox()
    assert inbox.add(_msg(1, payload=("w1", 5))) == ("reg", "ack", "w1")
    assert inbox.add(_msg(2, payload=("w2", 5))) == ("reg", "ack", "w2")
    # payload[0] is an operation id only when it is an exact str
    assert inbox.add(_msg(3, payload=(("w1", 1), 5))) == ("reg", "ack", None)
    assert inbox.add(_msg(4, payload=())) == ("reg", "ack", None)
    assert [m.msg_id for m in inbox.messages("reg", "ack", oid="w1")] == [1]
    assert [m.msg_id for m in inbox.messages("reg", "ack")] == [1, 2, 3, 4]
    assert len(inbox) == 4


def test_identical_repeat_is_not_buffered_twice():
    inbox = Inbox()
    assert inbox.add(_msg(1, payload=("w1", b"x"))) is not None
    for msg_id in range(2, 1000):
        assert inbox.add(_msg(msg_id, payload=("w1", b"x"))) is None
    # another sender, another payload, another type: all distinct
    assert inbox.add(_msg(1000, sender=2, payload=("w1", b"x"))) is not None
    assert inbox.add(_msg(1001, payload=("w1", b"y"))) is not None
    assert inbox.add(_msg(1002, mtype="ts", payload=("w1", b"x"))) \
        is not None
    assert len(inbox) == 4


def test_retired_operation_is_dropped_and_refused():
    inbox = Inbox()
    inbox.add(_msg(1, mtype="ts", payload=("w1", 0)))
    inbox.add(_msg(2, mtype="ack", payload=("w1",)))
    inbox.add(_msg(3, mtype="ack", payload=("w2",)))
    inbox.retire("reg", "w1")
    assert len(inbox) == 1
    assert inbox.messages("reg", "ts") == []
    assert inbox.add(_msg(4, sender=2, mtype="ack", payload=("w1",))) is None
    # the same oid on another register is another operation
    assert inbox.add(_msg(5, tag="other", payload=("w1",))) is not None
    inbox.retire("reg", "w2")
    inbox.retire("reg", "never-opened")
    assert len(inbox) == 1


class _Echo(Process):
    def __init__(self, pid):
        super().__init__(pid)
        self.handled = []
        self.on("ping", self.handled.append)


def test_handled_messages_are_consumed_not_buffered():
    simulator = Simulator()
    echo = simulator.add_process(_Echo(server_id(1)))
    sender = simulator.add_process(Process(server_id(2)))
    sender.send(server_id(1), "t", "ping", "a")
    sender.send(server_id(1), "t", "unhandled", "a")
    simulator.run()
    assert len(echo.handled) == 1
    assert [m.mtype for m in echo.inbox.messages("t", "unhandled")] \
        == ["unhandled"]
    assert echo.inbox.messages("t", "ping") == []
    assert len(echo.inbox) == 1


def test_retained_handler_type_is_buffered_for_its_wait_states():
    class Both(Process):
        def __init__(self, pid):
            super().__init__(pid)
            self.got = None
            self.on("vote", self._on_vote, retain=True)

        def _on_vote(self, message):
            if self.got is None:
                self.got = ()
                self.start_thread(self._count())

        def _count(self):
            self.got = yield self.condition_quorum("t", "vote", 2)

    simulator = Simulator()
    both = simulator.add_process(Both(server_id(1)))
    for index in (2, 3):
        simulator.add_process(Process(server_id(index))).send(
            server_id(1), "t", "vote", "x")
    simulator.run()
    # the thread its first vote started saw that vote in the buffer
    assert [m.sender.index for m in both.got] == [2, 3]


def test_waiting_on_a_consumed_type_is_refused():
    class Mistaken(Process):
        def __init__(self, pid):
            super().__init__(pid)
            self.on("vote", lambda message: None)

        def count_votes(self):
            yield self.condition_quorum("t", "vote", 2)

    process = Simulator().add_process(Mistaken(server_id(1)))
    with pytest.raises(SimulationError, match="retain=True"):
        process.start_thread(process.count_votes())


# -- index-vs-scan oracle -------------------------------------------------------

class _ScanInbox:
    """The buffer as it was: every delivery kept in arrival order, every
    query a scan of the whole ``(tag, mtype)`` history (less identical
    repeats, which no condition could tell apart)."""

    def __init__(self):
        self.kept = []

    def add(self, message):
        if not any((held.tag, held.mtype, held.sender, held.payload)
                   == (message.tag, message.mtype, message.sender,
                       message.payload) for held in self.kept):
            self.kept.append(message)

    def messages(self, tag, mtype, where=None):
        return [m for m in self.kept if (m.tag, m.mtype) == (tag, mtype)
                and (where is None or where(m))]

    def first_per_sender(self, tag, mtype, where=None):
        firsts = {}
        for message in self.messages(tag, mtype, where):
            firsts.setdefault(message.sender, message)
        return list(firsts.values())


def _names_oid(oid):
    """The ``where=`` clause every wait state used to carry."""
    return lambda m: len(m.payload) >= 1 and m.payload[0] == oid


def _assert_index_matches_scan(messages, extra=lambda m: True):
    inbox, scan = Inbox(), _ScanInbox()
    for message in messages:
        inbox.add(message)
        scan.add(message)
    keys = {(m.tag, m.mtype) for m in messages}
    oids = {m.payload[0] for m in messages
            if m.payload and type(m.payload[0]) is str} | {"absent"}
    for tag, mtype in sorted(keys) + [("absent", "ack")]:
        # undeclared: the whole key, across its operations' buckets
        assert inbox.messages(tag, mtype, extra) \
            == scan.messages(tag, mtype, extra)
        assert inbox.first_per_sender(tag, mtype, extra) \
            == scan.first_per_sender(tag, mtype, extra)
        for oid in sorted(oids):
            old = lambda m, named=_names_oid(oid): named(m) and extra(m)
            assert inbox.messages(tag, mtype, extra, oid=oid) \
                == scan.messages(tag, mtype, old), (tag, mtype, oid)
            assert inbox.first_per_sender(tag, mtype, extra, oid=oid) \
                == scan.first_per_sender(tag, mtype, old), (tag, mtype, oid)
            assert inbox.senders(tag, mtype, oid=oid) \
                == {m.sender for m in scan.messages(tag, mtype,
                                                    _names_oid(oid))}
    assert len(inbox) == len(scan.kept)


_OIDS = st.sampled_from(["w1", "w2", "r1", ("w1", 1), 7, None])
_STREAMS = st.lists(
    st.tuples(st.sampled_from(["reg", "reg|rbc.w1", "other"]),
              st.sampled_from(["ack", "value"]),
              st.integers(1, 4), _OIDS, st.integers(0, 2)),
    max_size=40)


@settings(max_examples=200, deadline=None)
@given(_STREAMS, st.booleans())
def test_declared_lookup_equals_where_scan(stream, filtered):
    messages = [
        _msg(msg_id, tag=tag, mtype=mtype, sender=sender,
             payload=() if oid is None else (oid, variant))
        for msg_id, (tag, mtype, sender, oid, variant) in enumerate(stream)]
    extra = (lambda m: len(m.payload) == 2 and m.payload[1] != 1) \
        if filtered else (lambda m: True)
    _assert_index_matches_scan(messages, extra)


def test_first_per_sender_ties_across_operations():
    """One sender answers two operations alternately: each operation's
    earliest is its own, the whole key's earliest is the first of all."""
    messages = [_msg(1, payload=("w2", 0)), _msg(2, payload=("w1", 0)),
                _msg(3, payload=("w1", 1)), _msg(4, payload=("w2", 1)),
                _msg(5, sender=2, payload=("w1", 1)),
                _msg(6, sender=2, payload=((), 1))]
    _assert_index_matches_scan(messages)
    inbox = Inbox()
    for message in messages:
        inbox.add(message)
    ids = lambda found: [m.msg_id for m in found]
    assert ids(inbox.first_per_sender("reg", "ack", oid="w1")) == [2, 5]
    assert ids(inbox.first_per_sender("reg", "ack", oid="w2")) == [1]
    assert ids(inbox.first_per_sender("reg", "ack")) == [1, 5]
    assert ids(inbox.messages("reg", "ack")) == [1, 2, 3, 4, 5, 6]


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_declared_lookup_equals_where_scan_on_live_traffic(
        protocol, log_deliveries):
    cluster = build_cluster(_config(protocol, seed=3), protocol=protocol,
                            num_clients=2, scheduler=RandomScheduler(3))
    delivered = log_deliveries(cluster.simulator)
    run_workload(cluster, TAG,
                 random_workload(2, writes=3, reads=3, seed=3), seed=3)
    for party in (client_id(1), client_id(2), server_id(1)):
        received = [m for m in delivered if m.recipient == party]
        assert len(received) > 10
        _assert_index_matches_scan(received)


# -- wake-ups -------------------------------------------------------------------

class _Waiter(Process):
    """Three parked threads: one per declared operation, one that
    declares nothing."""

    def __init__(self, pid):
        super().__init__(pid)
        self.checks = {"w1": 0, "w2": 0, "bare": 0}
        self.done = []

    def start(self):
        for oid in ("w1", "w2"):
            self.start_thread(self._wait(oid))
        self.start_thread(self._bare())

    def _counted(self, name, condition):
        def check():
            self.checks[name] += 1
            return condition()
        return check

    def _wait(self, oid):
        condition = self.condition_quorum("t", "ack", 2, oid=oid)
        yield WaitState(self._counted(oid, condition), *condition.keys)
        self.done.append(oid)
        self.inbox.retire("t", oid)

    def _bare(self):
        yield self._counted("bare", lambda: len(self.done) == 2)
        self.done.append("bare")


def test_a_delivery_rechecks_only_the_threads_it_can_satisfy():
    simulator = Simulator()
    waiter = simulator.add_process(_Waiter(client_id(1)))
    senders = [simulator.add_process(Process(server_id(index)))
               for index in (1, 2, 3)]
    waiter.start()
    parked = dict(waiter.checks)  # the checks made while parking
    senders[0].send(client_id(1), "t", "ack", "w1")
    senders[0].send(client_id(1), "t", "noise", "other")
    senders[0].send(client_id(1), "t", "ack", "w1")  # identical repeat
    simulator.run()
    # one buffered arrival for w1; w2's thread slept through all three,
    # the undeclared thread was polled on every activation
    assert waiter.checks["w1"] == parked["w1"] + 1
    assert waiter.checks["w2"] == parked["w2"]
    assert waiter.checks["bare"] == parked["bare"] + 3
    senders[1].send(client_id(1), "t", "ack", "w1")
    senders[1].send(client_id(1), "t", "ack", "w2")
    senders[2].send(client_id(1), "t", "ack", "w2")
    senders[2].send(client_id(1), "t", "ack", "w1")  # w1 already closed
    simulator.run()
    assert waiter.done == ["w1", "w2", "bare"]
    assert waiter.checks["w1"] == parked["w1"] + 2
    assert waiter.checks["w2"] == parked["w2"] + 2
    assert waiter.parked_threads == 0 and len(waiter.inbox) == 1  # noise


def test_whole_key_wait_wakes_on_any_operation_of_its_key():
    class Collector(Process):
        result = None

        def start(self):
            self.start_thread(self._run())

        def _run(self):
            self.result = yield self.condition_quorum("t", "pong", 2)

    simulator = Simulator()
    collector = simulator.add_process(Collector(client_id(1)))
    collector.start()
    for index, oid in ((1, "a"), (2, ("not", "a", "str"))):
        simulator.add_process(Process(server_id(index))).send(
            client_id(1), "t", "pong", oid)
    simulator.run()
    assert [m.sender.index for m in collector.result] == [1, 2]


# -- scaling guard ----------------------------------------------------------------

def _count_predicate_calls(monkeypatch):
    """Count every ``where=`` evaluation any inbox query makes."""
    calls = [0]
    original = Inbox.messages

    def messages(self, tag, mtype, where=None, oid=None):
        if where is not None:
            inner = where

            def where(message):
                calls[0] += 1
                return inner(message)
        return original(self, tag, mtype, where, oid)

    monkeypatch.setattr(Inbox, "messages", messages)
    return calls


def _kv_inboxes(cluster):
    for host in cluster.servers:
        yield host.inbox
        for shard in host.active_shards:
            yield host.inner_server(shard).inbox
    for session in cluster.sessions:
        yield session.host.inbox
        for inner, _bus in session.host._inner_clients.values():
            yield inner.inbox


def _hot_register_run(protocol, ops):
    cluster = build_cluster(_config(protocol), protocol=protocol,
                            num_clients=1)
    for index in range(ops // 2):
        cluster.write(1, "hot", f"w{index}", b"v%d" % index)
        assert cluster.read(1, "hot", f"r{index}").result == b"v%d" % index
    cluster.run()
    return (cluster.simulator.metrics.total_messages,
            sum(len(process.inbox)
                for process in cluster.simulator.processes))


def _hot_kv_run(protocol, ops):
    directory = KvDirectory(
        SystemConfig(n=4, t=1), 4,
        shard_k=2 if protocol == "atomic_md" else None)
    cluster = build_kv_cluster(directory, protocol=protocol,
                               num_sessions=1)
    drive(cluster, [KvOp(1, "read" if index % 2 else "write", "hot",
                         b"v%d" % index) for index in range(ops)], seed=1)
    check_kv_histories(cluster.sessions)
    return (cluster.simulator.metrics.total_messages,
            sum(len(inbox) for inbox in _kv_inboxes(cluster)))


@pytest.mark.parametrize("run", [_hot_register_run, _hot_kv_run],
                         ids=["register", "kv-4-shards"])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_delivery_cost_does_not_grow_with_operations_served(
        protocol, run, monkeypatch):
    """The guard that keeps the whole-history scan from coming back: on
    one hot key, what a delivery costs in predicate evaluations, and
    what is still buffered when the run ends, are the same after 24
    operations and after 96."""
    calls = _count_predicate_calls(monkeypatch)
    measured = []
    for ops in (24, 96):
        calls[0] = 0
        delivered, retained = run(protocol, ops)
        measured.append((calls[0], delivered, retained))
    (small_calls, small_delivered, small_retained), \
        (large_calls, large_delivered, large_retained) = measured
    assert small_calls > 0 and large_delivered == 4 * small_delivered
    assert large_calls * small_delivered == small_calls * large_delivered
    assert small_retained == large_retained == 0


# -- flood bound --------------------------------------------------------------------

@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_duplicate_flood_leaves_honest_inboxes_bounded_by_open_operations(
        protocol):
    """P7 repeats every message it sends or is sent and P6 goes down
    for good, while three clients read and write concurrently.  After
    every delivery each party holds at most what its open operations
    may still read; nobody holds anything when the run ends, and the
    history is atomic."""
    n, t, writes, reads = 7, 2, 6, 9
    config = _config(protocol, n=n, t=t, seed=4)
    cluster = build_cluster(
        config, protocol=protocol, num_clients=3,
        scheduler=RandomScheduler(4),
        server_overrides={
            6: lambda pid, cfg: fail_stop(
                PROTOCOL_CLASSES[protocol][0])(pid, cfg, crash_after=9)})
    plan = FaultPlan(name="duplicate-flood", seed=4, faulty=(n,),
                     rules=(FaultRule(kind="duplicate", party=n,
                                      limit=10 ** 6),))
    plan.validate(n, t)
    cluster.simulator.attach_injector(FaultInjector(plan))
    # One open operation reads at most one reply per server and type,
    # plus one forwarded version per concurrent write on its listener
    # bucket; an AtomicNS server reads n shares per share round, and a
    # round is open from its first share to the local accept.
    per_operation = n * (3 + writes)
    peak = {}

    def bounded(simulator):
        for client in cluster.clients:
            open_operations = sum(1 for handle in client.operations
                                  if not handle.done)
            assert len(client.inbox) <= open_operations * per_operation
            peak[client.pid] = max(peak.get(client.pid, 0),
                                   len(client.inbox))
        for server in cluster.servers[:5]:
            assert len(server.inbox) <= \
                (n * writes if protocol == "atomic_ns" else 0)
        assert len(cluster.server(6).inbox) == 0

    cluster.simulator.add_invariant(bounded)
    run_workload(cluster, TAG,
                 random_workload(3, writes=writes, reads=reads, seed=4),
                 seed=4, invoke_probability=0.3)
    injected = cluster.simulator.chaos.instruments.snapshot()
    # Every message to or from P7 is repeated once.  An atomic_md write
    # exchanges 6 with P7 (md-get-ts, md-store, md-commit and their
    # replies) and a read at least 2 (md-read, md-read-complete; P7's
    # reply is skipped if the read completed first): 54 here, 73
    # measured.  A broadcast-based write exchanges many more.
    floor = 6 * writes + 2 * reads if protocol == "atomic_md" else 200
    assert injected["chaos.injected[duplicate]"]["value"] >= floor
    assert cluster.server(6).crashed
    assert max(peak.values()) > 0  # the bound was exercised, not vacuous
    assert all(len(process.inbox) == 0
               for process in cluster.simulator.processes)
    honest = [server.pid for server in cluster.servers[:5]]
    HistoryRecorder(cluster, TAG, honest_servers=honest).check()


def test_direct_repeat_flood_cannot_grow_an_open_operation():
    """A corrupted party with raw channel access repeats one reply a
    thousand times at a client whose write is open: one copy is kept."""
    cluster = build_cluster(
        SystemConfig(n=4, t=1), protocol="atomic", num_clients=2,
        client_overrides={2: lambda pid, cfg: Process(pid)},
        server_overrides={4: lambda pid, cfg: CrashServer(pid, cfg)})
    handle = cluster.client(1).invoke_write(TAG, "w1", b"v")
    for _ in range(1000):
        cluster.client(2).send(client_id(1), TAG, "ts", "w1", 10 ** 9)
        cluster.client(2).send(server_id(4), TAG, "get-ts", "w1")
    held = []
    cluster.simulator.add_invariant(
        lambda simulator: held.append(len(cluster.client(1).inbox)))
    cluster.run()
    assert handle.done
    assert max(held) <= 2 * 4 + 1  # ts and ack per server, one forgery
    assert len(cluster.client(1).inbox) == 0
    assert len(cluster.server(4).inbox) == 0  # never up: keeps nothing
