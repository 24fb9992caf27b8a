"""Trace recorder: the causal record of one simulation run.

A :class:`TraceRecorder` attaches to a
:class:`~repro.net.simulator.Simulator` as one of its observers
(:meth:`~repro.net.simulator.Simulator.add_observer`; others may watch
the same run side by side) and captures, as the run executes:

* a :class:`MessageRecord` per sent message — send/deliver logical
  times, wire size, causal depth, and the ``cause_id`` happens-before
  link to the delivery that activated the sender;
* every input/output action (:class:`~repro.net.message.LocalEvent`);
* every :class:`QuorumRelease` — the exact arrival that tipped a
  ``condition_quorum`` wait state over its threshold;
* built-in instruments (:mod:`repro.obs.instruments`): in-flight
  message gauge, per-party inbox depth, per-message-type wire-size
  histograms, rounds-per-quorum, and every counter the run reports
  (``kv.cache[...]``, ``repair.*``).

The cause links form a DAG over the whole run (message → message that
activated its sender); :mod:`repro.obs.critical_path` walks it backward
from an operation's completing output action to explain the operation's
latency, and :mod:`repro.obs.spans` folds the records into operation /
sub-protocol spans.

**The per-operation index.**  The hierarchical tags put the owning
operation in every message's name (``ID|disp.oid`` is the Disperse
instance of operation ``oid`` on register ``ID``), so the recorder
files what it records under the operation(s) it can belong to *as it
records it*: every message under its root tag and under each
``(root tag, oid)`` it names, every quorum release under the keys of
the arrival that tipped it, every ``write-accepted`` output under its
``(tag, oid)``.  The per-operation queries (:meth:`TraceRecorder.
operation_records`, :meth:`~TraceRecorder.operation_releases`,
:meth:`~TraceRecorder.accepted_by`, :meth:`~TraceRecorder.
records_under`) apply the belongs-to predicate (:func:`record_belongs`)
to one bucket instead of the whole trace, so attributing a run costs
O(records + operations), not their product.  The index is plain
insertion-ordered dict/list state and a pure function of ``messages``,
``events`` and ``quorum_releases``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from repro.analysis.trace import match_operations
from repro.common.errors import SimulationError
from repro.common.ids import TAG_SEP, PartyId
from repro.net.message import LocalEvent, Message
from repro.obs.instruments import Counter, Gauge, Histogram, Registry

#: ``(root tag, oid)`` — the key one operation's candidates are filed under
_OperationKey = Tuple[str, str]
#: a quorum release with its position in ``quorum_releases``
_FiledRelease = Tuple[int, "QuorumRelease"]
#: what ``match_operations`` returns: pairs, unmatched, open invocations
_Matched = Tuple[List[Tuple[LocalEvent, LocalEvent]], List[LocalEvent],
                 List[LocalEvent]]


@dataclass(slots=True)
class MessageRecord:
    """The traced lifecycle of one message.

    ``oid`` is the operation identifier carried as the first payload
    element when it is a string (the register protocols' convention),
    letting spans bind register-tag traffic to individual operations.
    ``deliver_time`` stays ``None`` for messages still in flight at the
    end of the run.
    """

    msg_id: int
    tag: str
    mtype: str
    sender: PartyId
    recipient: PartyId
    send_time: int
    wire_bytes: int
    depth: int
    cause_id: Optional[int]
    oid: Optional[str]
    deliver_time: Optional[int] = None

    @property
    def queue_wait(self) -> Optional[int]:
        """Logical ticks between send and delivery (``None`` if the
        message was never delivered)."""
        if self.deliver_time is None:
            return None
        return self.deliver_time - self.send_time


@dataclass(frozen=True)
class QuorumRelease:
    """A ``condition_quorum`` wait state crossing its threshold.

    ``releasing_msg_id`` is the arrival being processed when the
    condition first held — the ``(n - t)``-th message the wait was
    blocked on (``None`` when the quorum was already satisfied at
    registration, i.e. the thread never actually waited).
    """

    time: int
    party: PartyId
    tag: str
    mtype: str
    threshold: int
    quorum_msg_ids: Tuple[int, ...]
    releasing_msg_id: Optional[int]


def _root_tag(tag: str) -> str:
    """The top-level instance a (possibly nested) sub-instance tag
    hangs off: ``ID|a.x|disp.oid`` -> ``ID``."""
    return tag.partition(TAG_SEP)[0]


def _sub_oid(tag: str) -> str:
    """The operation a sub-instance tag names in its last component:
    ``ID|disp.oid`` -> ``oid`` (empty when the component has none)."""
    return tag.rsplit(TAG_SEP, 1)[1].partition(".")[2]


def record_belongs(record: MessageRecord, tag: str, oid: str) -> bool:
    """The belongs-to predicate: is ``record`` traffic of operation
    ``oid`` on register ``tag``?

    True for register-tag messages carrying ``oid`` as their payload
    operation identifier and for all traffic of the operation's
    sub-instances ``tag|<kind>.oid`` (nested ones included).  Every
    per-operation query applies exactly this test; the index only
    narrows what it is applied to.
    """
    if record.tag == tag:
        return record.oid == oid
    if record.tag.startswith(tag + TAG_SEP):
        return _sub_oid(record.tag) == oid
    return False


def _index_keys(record: MessageRecord) -> Tuple[str, Tuple[str, ...]]:
    """Where a record is filed: its root tag, and every oid
    :func:`record_belongs` can hold for under that root — the payload
    oid and/or the sub-instance tag's oid suffix."""
    tag, oid = record.tag, record.oid
    if TAG_SEP not in tag:
        return tag, (() if oid is None else (oid,))
    sub_oid = _sub_oid(tag)
    if oid is None or oid == sub_oid:
        return _root_tag(tag), (sub_oid,)
    return _root_tag(tag), (oid, sub_oid)


class TraceRecorder:
    """Causal trace of one run; attach with :meth:`attach` before the
    first delivery.

    All captured state is public: ``messages`` (by ``msg_id``, in send
    order), ``events``, ``quorum_releases``, and the instrument
    ``registry``.  Change it only through the ``on_*`` callbacks — they
    keep the per-operation index (module docstring) in step with it.
    """

    def __init__(self, registry: Optional[Registry] = None):
        self.messages: Dict[int, MessageRecord] = {}
        self.events: List[LocalEvent] = []
        self.quorum_releases: List[QuorumRelease] = []
        self.registry = registry or Registry()
        # -- the per-operation index (insertion-ordered throughout) ----
        self._records_by_root: Dict[str, List[MessageRecord]] = {}
        self._records_by_operation: Dict[_OperationKey,
                                         List[MessageRecord]] = {}
        #: releases that waited, under the keys of their tipping arrival
        self._releases_by_operation: Dict[_OperationKey,
                                          List[_FiledRelease]] = {}
        #: releases that never waited, by their own tag
        self._unwaited_releases: Dict[str, List[_FiledRelease]] = {}
        #: ``write-accepted`` outputs, by their exact ``(tag, oid)``
        self._accepted_by_operation: Dict[Tuple[str, str],
                                          List[LocalEvent]] = {}
        #: ``match_operations`` result and the event count it covers
        self._matched: Tuple[int, _Matched] = (0, ([], [], []))
        # Per-event instruments, bound on first use (never here: an
        # idle recorder's registry must stay empty) so the callbacks
        # neither format a name nor search the registry per event.
        self._net_sent: Optional[Counter] = None
        self._net_delivered: Optional[Counter] = None
        self._net_in_flight: Optional[Gauge] = None
        self._wire_bytes: Dict[str, Histogram] = {}
        self._inbox_depth: Dict[PartyId, Gauge] = {}

    def attach(self, simulator) -> "TraceRecorder":
        """Attach to a simulator (see
        :meth:`~repro.net.simulator.Simulator.add_observer`); returns
        ``self`` for chaining."""
        simulator.add_observer(self)
        return self

    # -- simulator callbacks ------------------------------------------------

    def on_send(self, message: Message, time: int,
                pending: int = 0) -> None:
        """Record a message joining the in-flight bag."""
        payload = message.payload
        oid = payload[0] if (
            payload and isinstance(payload[0], str)) else None
        msg_id = message.msg_id
        mtype = message.mtype
        wire_bytes = message.wire_size()
        record = MessageRecord(
            msg_id, message.tag, mtype, message.sender,
            message.recipient, time, wire_bytes, message.depth,
            message.cause_id, oid)
        messages = self.messages
        overwrites = msg_id in messages
        messages[msg_id] = record
        if overwrites:
            # Never happens under a simulator (ids are fresh); if it
            # does, the last write wins in ``messages`` and the index
            # is rebuilt to agree with it.
            self._reindex_messages()
        else:
            self._file_record(record)
        sent = self._net_sent
        if sent is None:
            sent = self._net_sent = self.registry.counter("net.sent")
        sent.inc()
        histogram = self._wire_bytes.get(mtype)
        if histogram is None:
            histogram = self._wire_bytes[mtype] = \
                self.registry.histogram(f"wire.bytes[{mtype}]")
        histogram.record(wire_bytes)
        self._in_flight().set(pending)

    def on_deliver(self, message: Message, time: int,
                   inbox_depth: int = 0, pending: int = 0) -> None:
        """Record a delivery (the logical-clock tick it occupies)."""
        record = self.messages.get(message.msg_id)
        if record is not None:
            record.deliver_time = time
        delivered = self._net_delivered
        if delivered is None:
            delivered = self._net_delivered = \
                self.registry.counter("net.delivered")
        delivered.inc()
        recipient = message.recipient
        depth = self._inbox_depth.get(recipient)
        if depth is None:
            depth = self._inbox_depth[recipient] = \
                self.registry.gauge(f"inbox.depth[{recipient}]")
        # what the recipient's buffer held when this delivery arrived:
        # live depth, which retirement brings back down
        depth.set(inbox_depth)
        self._in_flight().set(pending)

    def _in_flight(self) -> Gauge:
        gauge = self._net_in_flight
        if gauge is None:
            gauge = self._net_in_flight = \
                self.registry.gauge("net.in_flight")
        return gauge

    def on_input(self, event: LocalEvent) -> None:
        """Record an input action."""
        self.events.append(event)
        self.registry.counter("events.input").inc()

    def on_output(self, event: LocalEvent) -> None:
        """Record an output action."""
        self.events.append(event)
        self._file_event(event)
        self.registry.counter("events.output").inc()

    def on_verify_fail(self, party: PartyId, suspect: PartyId, tag: str,
                       mtype: str) -> None:
        """Record a failed cryptographic check on traffic from
        ``suspect`` observed at ``party`` (see
        :meth:`repro.net.process.Process.note_verification_failure`)."""
        self.registry.counter(f"verify.failed[{suspect}]").inc()
        self.registry.counter(f"verify.failed.by[{mtype}]").inc()

    def on_count(self, name: str, amount: int) -> None:
        """Add ``amount`` to the counter ``name``."""
        self.registry.counter(name).inc(amount)

    def on_quorum(self, time: int, party: PartyId, tag: str, mtype: str,
                  threshold: int, quorum_msg_ids: Tuple[int, ...],
                  releasing_msg_id: Optional[int]) -> None:
        """Record a quorum condition crossing its threshold."""
        release = QuorumRelease(
            time=time, party=party, tag=tag, mtype=mtype,
            threshold=threshold, quorum_msg_ids=quorum_msg_ids,
            releasing_msg_id=releasing_msg_id)
        self._file_release((len(self.quorum_releases), release))
        self.quorum_releases.append(release)
        self.registry.counter("quorum.released").inc()
        if releasing_msg_id is not None:
            record = self.messages.get(releasing_msg_id)
            if record is not None:
                self.registry.histogram(
                    f"quorum.rounds[{mtype}]").record(record.depth)

    # -- index upkeep ----------------------------------------------------------

    def _file_record(self, record: MessageRecord) -> None:
        root, oids = _index_keys(record)
        self._records_by_root.setdefault(root, []).append(record)
        for oid in oids:
            self._records_by_operation.setdefault(
                (root, oid), []).append(record)

    def _file_release(self, filed: _FiledRelease) -> None:
        release = filed[1]
        if release.releasing_msg_id is None:
            self._unwaited_releases.setdefault(
                release.tag, []).append(filed)
            return
        record = self.messages.get(release.releasing_msg_id)
        if record is not None:
            root, oids = _index_keys(record)
            for oid in oids:
                self._releases_by_operation.setdefault(
                    (root, oid), []).append(filed)

    def _file_event(self, event: LocalEvent) -> None:
        if event.action == "write-accepted" and event.payload \
                and isinstance(event.payload[0], str):
            self._accepted_by_operation.setdefault(
                (event.tag, event.payload[0]), []).append(event)

    def _reindex_messages(self) -> None:
        """Rebuild everything filed by message from ``messages`` and
        ``quorum_releases`` (after a ``msg_id`` was overwritten)."""
        self._records_by_root = {}
        self._records_by_operation = {}
        self._releases_by_operation = {}
        self._unwaited_releases = {}
        for record in self.messages.values():
            self._file_record(record)
        for filed in enumerate(self.quorum_releases):
            self._file_release(filed)

    # -- queries -------------------------------------------------------------

    def record(self, msg_id: int) -> MessageRecord:
        """The record of one message."""
        try:
            return self.messages[msg_id]
        except KeyError:
            raise SimulationError(
                f"no trace record for message {msg_id}") from None

    def causal_chain(self, msg_id: Optional[int]) -> List[MessageRecord]:
        """The happens-before chain ending at ``msg_id``, root first.

        Follows ``cause_id`` links backward to a spontaneous send (a
        client invocation); the result is the message path that made the
        final delivery happen.
        """
        chain: List[MessageRecord] = []
        current = msg_id
        while current is not None:
            record = self.messages.get(current)
            if record is None or len(chain) > len(self.messages):
                break
            chain.append(record)
            current = record.cause_id
        chain.reverse()
        return chain

    def records_under(self, tag_prefix: str) -> List[MessageRecord]:
        """All records whose tag is ``tag_prefix`` or a sub-instance of
        it, in send order."""
        prefix = tag_prefix + TAG_SEP
        return [record for record
                in self._records_by_root.get(_root_tag(tag_prefix), ())
                if record.tag == tag_prefix
                or record.tag.startswith(prefix)]

    def operations(self) -> _Matched:
        """:func:`repro.analysis.trace.match_operations` over the
        recorded events — ``(pairs, unmatched, open_invocations)`` —
        matched once per event count, however many consumers ask."""
        if self._matched[0] != len(self.events):
            self._matched = (len(self.events),
                             match_operations(self.events))
        return self._matched[1]

    def operation_records(self, tag: str,
                          oid: str) -> List[MessageRecord]:
        """All message records belonging to operation ``oid`` on
        register ``tag`` (:func:`record_belongs`), in send order."""
        return [record for record in self._records_by_operation.get(
                    (_root_tag(tag), oid), ())
                if record_belongs(record, tag, oid)]

    def operation_releases(self, tag: str, oid: str, client: PartyId,
                           open_time: int,
                           close_time: int) -> List[QuorumRelease]:
        """Quorum releases belonging to one operation, in release order.

        A release is bound through the arrival that tipped it (its
        record belongs to the operation); releases that never waited
        (``releasing_msg_id is None``) are bound by tag, party, and
        time window instead.
        """
        bound = [filed for filed in self._releases_by_operation.get(
                     (_root_tag(tag), oid), ())
                 if record_belongs(
                     self.messages[filed[1].releasing_msg_id], tag, oid)]
        unwaited = [filed for filed
                    in self._unwaited_releases.get(tag, ())
                    if filed[1].party == client
                    and open_time <= filed[1].time <= close_time]
        if unwaited:
            bound = sorted(bound + unwaited, key=itemgetter(0))
        return [release for _, release in bound]

    def accepted_by(self, tag: str, oid: str) -> List[PartyId]:
        """The parties that output ``write-accepted`` for operation
        ``oid`` on register ``tag``, in output order."""
        return [event.party for event
                in self._accepted_by_operation.get((tag, oid), ())]
