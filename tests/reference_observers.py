"""Per-message reference observers for the batched kv reports.

A kv host reports the inner messages it flushes, and those one envelope
delivered, in one batch each (``on_send_batch`` / ``on_deliver_batch``).
What is here sees the same traffic one ``Message`` at a time, in fleet
identities, the way hosts once reported it:

* :func:`sent_messages` / :func:`delivered_messages` turn a batch into
  those messages, and :class:`PerMessageBatches` makes any observer
  with ``on_send`` / ``on_deliver`` read batches through them;
* :func:`report_each_inner_message` instruments a run so that every
  inner message is reported on its own, at the moment it is buffered
  or delivered, to the attached observers' ``on_send`` / ``on_deliver``;
* :class:`ReferenceRecorder` records one message per call, through the
  instruments' own methods and a fresh index lookup per record, and
  :class:`ReferenceHealthMonitor` rolls each message into its series as
  it is reported, over that recorder: together with the instrumentation
  they are the oracle the batched path is held to.
"""

from __future__ import annotations

from repro.common.ids import TAG_SEP
from repro.kv.mux import ShardBus
from repro.net.message import Message, content_wire_size
from repro.net.process import Process
from repro.obs.health import HealthMonitor
from repro.obs.planes import TRANSPORT_MTYPES, plane_of_mtype
from repro.obs.recorder import MessageRecord, TraceRecorder, _index_keys


def sent_messages(sender, sends):
    """``(message, time)`` per send of an ``on_send_batch`` report."""
    return [(Message(entry.tag, entry.mtype, sender, recipient,
                     entry.payload, entry.msg_id, entry.depth,
                     entry.cause_id, wire_bytes), time)
            for entry, recipient, wire_bytes, time in sends]


def delivered_messages(sender, recipient, deliveries):
    """``(message, inbox_depth, time)`` per delivery of an
    ``on_deliver_batch`` report."""
    return [(Message(entry.tag, entry.mtype, sender, recipient,
                     entry.payload, entry.msg_id, entry.depth,
                     entry.cause_id), inbox_depth, time)
            for entry, inbox_depth, time in deliveries]


class PerMessageBatches:
    """Mixin: read each batch as the per-message calls it stands for."""

    def on_send_batch(self, sender, sends, pending):
        for message, time in sent_messages(sender, sends):
            self.on_send(message, time, pending)

    def on_deliver_batch(self, sender, recipient, deliveries, pending):
        for message, inbox_depth, time in delivered_messages(
                sender, recipient, deliveries):
            self.on_deliver(message, time, inbox_depth, pending)


def report_each_inner_message(monkeypatch):
    """From now on, report every kv inner message to the simulator's
    observers one at a time: a send as it is buffered, a delivery as
    the inner process receives it, with that moment's tick, in-flight
    count and buffer depth, in fleet identities.  Attach only observers
    without batch hooks, or they hear of each inner message twice."""
    real_enqueue, real_receive = ShardBus.enqueue, Process.receive

    def enqueue(bus, sender, recipient, tag, mtype, payload,
                wire_size=None):
        real_enqueue(bus, sender, recipient, tag, mtype, payload,
                     wire_size)
        host = bus.host
        simulator = host.simulator
        fleet_recipient = bus.fleet_pid(recipient)
        entry = host._kv_outbound[fleet_recipient][0][-1]
        if wire_size is None:
            wire_size = content_wire_size(tag, mtype, entry.payload)
        message = Message(tag, mtype, host.pid, fleet_recipient,
                          entry.payload, entry.msg_id, entry.depth,
                          entry.cause_id, wire_size)
        for observer in simulator.observers:
            observer.on_send(message, simulator.time,
                             len(simulator._pending))

    def receive(process, message):
        bus = process.simulator
        if isinstance(bus, ShardBus):
            simulator = bus.host.simulator
            fleet = Message(message.tag, message.mtype,
                            bus.fleet_pid(message.sender), bus.host.pid,
                            message.payload, message.msg_id,
                            message.depth, message.cause_id)
            for observer in simulator.observers:
                observer.on_deliver(fleet, simulator.time,
                                    len(process.inbox),
                                    len(simulator._pending))
        real_receive(process, message)

    monkeypatch.setattr(ShardBus, "enqueue", enqueue)
    monkeypatch.setattr(Process, "receive", receive)


class ReferenceRecorder(TraceRecorder):
    """A trace recorder that records one message per call, through the
    instruments' own methods and a fresh index lookup per record; it
    takes no batches."""

    on_send_batch = on_deliver_batch = None

    def on_send(self, message, time, pending=0):
        payload = message.payload
        oid = payload[0] if (
            payload and isinstance(payload[0], str)) else None
        wire_bytes = message.wire_size()
        record = MessageRecord(
            message.msg_id, message.tag, message.mtype, message.sender,
            message.recipient, time, wire_bytes, message.depth,
            message.cause_id, oid)
        assert record.msg_id not in self.messages
        self.messages[record.msg_id] = record
        root, oids = _index_keys(record.tag, record.oid)
        for key in oids:
            self._records_by_operation.setdefault(
                (root, key), []).append(record)
        self.registry.counter("net.sent").inc()
        self.registry.histogram(
            f"wire.bytes[{record.mtype}]").record(wire_bytes)
        self.registry.gauge("net.in_flight").set(pending)

    def on_deliver(self, message, time, inbox_depth=0, pending=0):
        record = self.messages.get(message.msg_id)
        if record is not None:
            record.deliver_time = time
        self.registry.counter("net.delivered").inc()
        self.registry.gauge(
            f"inbox.depth[{message.recipient}]").set(inbox_depth)
        self.registry.gauge("net.in_flight").set(pending)


class ReferenceHealthMonitor(HealthMonitor):
    """A health monitor that takes no batches and rolls each message
    into its series as it is reported, over a
    :class:`ReferenceRecorder`."""

    on_send_batch = on_deliver_batch = None

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.recorder = ReferenceRecorder()

    def on_send(self, message, time, pending=0):
        sender = message.sender
        if sender.is_server:
            self._sends[sender] = self._sends.get(sender, 0) + 1
            key = (sender, message.mtype)
            self._sends_by_type[key] = self._sends_by_type.get(key, 0) + 1
        self.store.counter("net.sent").record(time)
        self.store.gauge("net.in_flight").record(time, pending)
        if message.mtype not in TRANSPORT_MTYPES:
            wire_bytes = message.wire_size()
            self.planes.observe(message.mtype, wire_bytes)
            plane = plane_of_mtype(message.mtype)
            self.store.counter(
                f"plane.bytes[{plane}]").record(time, wire_bytes)

    def on_deliver(self, message, time, inbox_depth=0, pending=0):
        self.store.counter("net.delivered").record(time)
        self.store.gauge("net.in_flight").record(time, pending)
        if message.recipient.is_server and message.payload \
                and isinstance(message.payload[0], str):
            arrivals = self._op_delivery.get(
                (message.tag.partition(TAG_SEP)[0], message.payload[0]))
            if arrivals is not None \
                    and message.recipient not in arrivals:
                arrivals[message.recipient] = time
