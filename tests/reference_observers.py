"""Per-message reference observers for the kv traffic reports.

Observers hear of traffic through ``on_send(sender, sends, pending)``
and ``on_deliver(sender, recipient, deliveries, pending)``: a message
the simulator admits or delivers is a report of one, and a kv host
reports the inner messages it flushes, and those one envelope
delivered, in one report each.  What is here sees the same traffic one
``Message`` at a time, in fleet identities, the way hosts once reported
it:

* :func:`sent_messages` / :func:`delivered_messages` turn a report into
  those messages;
* :func:`report_each_inner_message` instruments a run so that every
  inner message is reported on its own, at the moment it is buffered
  or delivered, and the hosts' own batch reports are dropped;
* :class:`ReferenceRecorder` records one message at a time, through
  the instruments' own methods and a fresh index lookup per record, and
  :class:`ReferenceHealthMonitor` rolls each message into its series as
  it is reported, over that recorder, and totals the wire planes by a
  scan of the records: together with the instrumentation they are the
  oracle the batched path is held to.
"""

from __future__ import annotations

from repro.common.ids import TAG_SEP
from repro.kv.mux import ShardBus
from repro.net.message import Message, content_wire_size
from repro.net.process import Process
from repro.net.simulator import Simulator
from repro.obs.health import HealthMonitor
from repro.obs.planes import TRANSPORT_MTYPES, PlaneTraffic, plane_of_mtype
from repro.obs.recorder import (
    WIRE_BYTES,
    MessageRecord,
    TraceRecorder,
    _index_keys,
)


def sent_messages(sender, sends):
    """``(message, time)`` per send of an ``on_send`` report: a
    ``Message`` as it was reported, a kv entry as the ``Message`` it
    stands for."""
    return [(entry if entry.__class__ is Message else
             Message(entry.tag, entry.mtype, sender, recipient,
                     entry.payload, entry.msg_id, entry.depth,
                     entry.cause_id, wire_bytes), time)
            for entry, recipient, wire_bytes, time in sends]


def delivered_messages(sender, recipient, deliveries):
    """``(message, inbox_depth, time)`` per delivery of an
    ``on_deliver`` report, as in :func:`sent_messages`."""
    return [(entry if entry.__class__ is Message else
             Message(entry.tag, entry.mtype, sender, recipient,
                     entry.payload, entry.msg_id, entry.depth,
                     entry.cause_id), inbox_depth, time)
            for entry, inbox_depth, time in deliveries]


def report_each_inner_message(monkeypatch):
    """From now on, report every kv inner message to the simulator's
    observers in a report of its own: a send as it is buffered, a
    delivery as the inner process receives it, with that moment's tick,
    in-flight count and buffer depth, in fleet identities.  The hosts'
    batch reports are dropped, so each inner message is heard of once."""
    real_enqueue, real_receive = ShardBus.enqueue, Process.receive
    report_sends = Simulator.report_send_batch
    report_deliveries = Simulator.report_deliver_batch

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
        report_sends(simulator, host.pid, ((message, fleet_recipient,
                                            wire_size, simulator.time),))

    def receive(process, message):
        bus = process.simulator
        if isinstance(bus, ShardBus):
            simulator = bus.host.simulator
            fleet = Message(message.tag, message.mtype,
                            bus.fleet_pid(message.sender), bus.host.pid,
                            message.payload, message.msg_id,
                            message.depth, message.cause_id)
            report_deliveries(simulator, fleet.sender, fleet.recipient,
                              ((fleet, len(process.inbox),
                                simulator.time),))
        real_receive(process, message)

    monkeypatch.setattr(ShardBus, "enqueue", enqueue)
    monkeypatch.setattr(Process, "receive", receive)
    monkeypatch.setattr(Simulator, "report_send_batch",
                        lambda *args: None)
    monkeypatch.setattr(Simulator, "report_deliver_batch",
                        lambda *args: None)


class ReferenceRecorder(TraceRecorder):
    """A trace recorder that records one message at a time, through the
    instruments' own methods and a fresh index lookup per record."""

    def on_send(self, sender, sends, pending):
        for message, time in sent_messages(sender, sends):
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
                f"{WIRE_BYTES}{record.mtype}]").record(wire_bytes)
            self.registry.gauge("net.in_flight").set(pending)

    def on_deliver(self, sender, recipient, deliveries, pending):
        for message, inbox_depth, time in delivered_messages(
                sender, recipient, deliveries):
            record = self.messages.get(message.msg_id)
            if record is not None:
                record.deliver_time = time
            self.registry.counter("net.delivered").inc()
            self.registry.gauge(
                f"inbox.depth[{message.recipient}]").set(inbox_depth)
            self.registry.gauge("net.in_flight").set(pending)


class ReferenceHealthMonitor(HealthMonitor):
    """A health monitor that rolls each message into its series as it
    is reported, over a :class:`ReferenceRecorder`, and totals the wire
    planes by a scan of that recorder's records."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.recorder = ReferenceRecorder()

    def on_send(self, sender, sends, pending):
        for message, time in sent_messages(sender, sends):
            if sender.is_server:
                self._sends[sender] = self._sends.get(sender, 0) + 1
                key = (sender, message.mtype)
                self._sends_by_type[key] = \
                    self._sends_by_type.get(key, 0) + 1
            self.store.counter("net.sent").record(time)
            self.store.gauge("net.in_flight").record(time, pending)
            if message.mtype not in TRANSPORT_MTYPES:
                plane = plane_of_mtype(message.mtype)
                self.store.counter(f"plane.bytes[{plane}]").record(
                    time, message.wire_size())

    def on_deliver(self, sender, recipient, deliveries, pending):
        for message, _, time in delivered_messages(sender, recipient,
                                                   deliveries):
            self.store.counter("net.delivered").record(time)
            self.store.gauge("net.in_flight").record(time, pending)
            if message.recipient.is_server and message.payload \
                    and isinstance(message.payload[0], str):
                arrivals = self._op_delivery.get(
                    (message.tag.partition(TAG_SEP)[0],
                     message.payload[0]))
                if arrivals is not None \
                        and message.recipient not in arrivals:
                    arrivals[message.recipient] = time

    def plane_totals(self):
        totals = PlaneTraffic()
        for record in self.recorder.messages.values():
            totals.add(record)
        return totals.to_json()
