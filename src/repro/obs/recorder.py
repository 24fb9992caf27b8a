"""Trace recorder: the causal record of one simulation run.

A :class:`TraceRecorder` attaches to a
:class:`~repro.net.simulator.Simulator` as one of its observers
(:meth:`~repro.net.simulator.Simulator.add_observer`; others may watch
the same run side by side) and captures, as the run executes:

* a :class:`MessageRecord` per sent message — send/deliver logical
  times, wire size, causal depth, and the ``cause_id`` happens-before
  link to the delivery that activated the sender;
* every input/output action (:class:`~repro.net.message.LocalEvent`),
  matching each operation as it completes (``completed``);
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
records it*: every message under each ``(root tag, oid)`` it names,
every quorum release under the keys of the arrival that tipped it,
every ``write-accepted`` output under its ``(tag, oid)``.  The
per-operation queries (:meth:`TraceRecorder.operation_records`,
:meth:`~TraceRecorder.operation_releases`, :meth:`~TraceRecorder.
accepted_by`) apply the belongs-to predicate (:func:`record_belongs`)
to one bucket instead of the whole trace, so attributing a run costs
O(records + operations), not their product.  The index is plain
insertion-ordered dict/list state and a pure function of ``messages``,
``events`` and ``quorum_releases``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.trace import OperationMatcher
from repro.common.errors import SimulationError
from repro.common.ids import TAG_SEP, PartyId
from repro.net.message import LocalEvent
from repro.obs.instruments import Counter, Gauge, Registry

#: The name prefix of the recorder's per-message-type wire-size
#: histograms, ``wire.bytes[<mtype>]``: one value per message sent.
WIRE_BYTES = "wire.bytes["

#: ``(root tag, oid)`` — the key one operation's candidates are filed under
_OperationKey = Tuple[str, str]
#: a quorum release with its position in ``quorum_releases``
_FiledRelease = Tuple[int, "QuorumRelease"]
#: one completed operation: ``(invocation, completion)``
_Pair = Tuple[LocalEvent, LocalEvent]
#: where one ``(tag, mtype, oid)``'s records go: index buckets, and the
#: values of its ``wire.bytes`` histogram
_Filing = Tuple[Tuple[List["MessageRecord"], ...], List[float]]


@dataclass(slots=True)
class MessageRecord:
    """The traced lifecycle of one message.

    ``oid`` is the operation identifier carried as the first payload
    element when it is an exact ``str`` (the register protocols'
    convention, read as :class:`~repro.net.inbox.Inbox` reads it),
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


def _index_keys(tag: str,
                oid: Optional[str]) -> Tuple[str, Tuple[str, ...]]:
    """Where a record of ``tag`` with payload ``oid`` is filed: its root
    tag, and every oid :func:`record_belongs` can hold for under that
    root — the payload oid and/or the sub-instance tag's oid suffix."""
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
    order), ``events``, ``completed`` (``(invocation, completion)``
    pairs, in completion order), ``quorum_releases``, and the
    instrument ``registry``.  Change it only through the ``on_*``
    callbacks — they keep the matcher and the per-operation index
    (module docstring) in step with it.
    """

    def __init__(self):
        self.messages: Dict[int, MessageRecord] = {}
        self.events: List[LocalEvent] = []
        self.completed: List[_Pair] = []
        self.quorum_releases: List[QuorumRelease] = []
        self.registry = Registry()
        self._matcher = OperationMatcher()
        # -- the per-operation index (insertion-ordered throughout) ----
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
        #: ``(tag, mtype, oid)`` of a record -> the index buckets it is
        #: filed in and its wire-size histogram's values: one lookup
        #: files a record and samples its size
        self._filings: Dict[Tuple[str, str, Optional[str]], _Filing] = {}
        # Per-event instruments, bound on first use (never here: an
        # idle recorder's registry must stay empty) so the callbacks
        # neither format a name nor search the registry per event.
        self._net_sent: Optional[Counter] = None
        self._net_delivered: Optional[Counter] = None
        self._net_in_flight: Optional[Gauge] = None
        self._inbox_depth: Dict[PartyId, Gauge] = {}

    def attach(self, simulator) -> "TraceRecorder":
        """Attach to a simulator (see
        :meth:`~repro.net.simulator.Simulator.add_observer`); returns
        ``self`` for chaining."""
        simulator.add_observer(self)
        return self

    # -- simulator callbacks ------------------------------------------------

    def on_send(self, sender: PartyId,
                sends: Sequence[Tuple[Any, PartyId, int, int]],
                pending: int) -> None:
        """Record messages ``sender`` sent, ``(message, recipient,
        wire_bytes, time)`` each in send order (an admitted message
        alone, or a kv host's flush; see
        :meth:`~repro.net.simulator.Simulator.report_send_batch`), in
        one loop: a record each, filed in the index and sampled into
        ``wire.bytes[mtype]`` through one lookup of its ``(tag, mtype,
        oid)``; the counter and gauge take one update per report."""
        messages = self.messages
        filings = self._filings
        for message, recipient, wire_bytes, time in sends:
            payload = message.payload
            oid = payload[0] if (
                payload and type(payload[0]) is str) else None
            msg_id, tag, mtype = message.msg_id, message.tag, message.mtype
            if msg_id in messages:
                raise SimulationError(
                    f"msg_id {msg_id} was already recorded: every sent "
                    f"message takes a fresh id")
            record = MessageRecord(
                msg_id, tag, mtype, sender, recipient, time, wire_bytes,
                message.depth, message.cause_id, oid)
            try:
                filing = filings[tag, mtype, oid]
            except KeyError:
                filing = self._filing(tag, mtype, oid)
            filing[1].append(wire_bytes)
            messages[msg_id] = record
            for bucket in filing[0]:
                bucket.append(record)
        count = len(sends)
        sent = self._net_sent or self._bind_sends()
        sent.value += count
        self._net_in_flight.fold(pending, pending, pending, count)

    def on_deliver(self, sender: PartyId, recipient: PartyId,
                   deliveries: Sequence[Tuple[Any, int, int]],
                   pending: int) -> None:
        """Record deliveries from ``sender`` to ``recipient``,
        ``(message, inbox_depth, time)`` each in delivery order (a
        delivered message alone, or one kv envelope's inner messages;
        see :meth:`~repro.net.simulator.Simulator.report_deliver_batch`),
        in one loop: each record's ``deliver_time``, and
        ``recipient``'s buffer depth as each arrived (live depth, which
        retirement brings back down) folded into one gauge update."""
        record_of = self.messages.get
        low = high = deliveries[0][1]
        for message, inbox_depth, time in deliveries:
            record = record_of(message.msg_id)
            if record is not None:
                record.deliver_time = time
            if inbox_depth > high:
                high = inbox_depth
            elif inbox_depth < low:
                low = inbox_depth
        count = len(deliveries)
        delivered = self._net_delivered or self._bind_deliveries()
        delivered.value += count
        try:
            depth = self._inbox_depth[recipient]
        except KeyError:
            depth = self._bind_inbox_depth(recipient)
        depth.fold(inbox_depth, low, high, count)
        self._net_in_flight.fold(pending, pending, pending, count)

    # -- instruments, bound on first use ----------------------------------------

    def _bind_sends(self) -> Counter:
        self._bind_in_flight()
        sent = self._net_sent = self.registry.counter("net.sent")
        return sent

    def _bind_deliveries(self) -> Counter:
        self._bind_in_flight()
        delivered = self._net_delivered = \
            self.registry.counter("net.delivered")
        return delivered

    def _bind_in_flight(self) -> None:
        if self._net_in_flight is None:
            self._net_in_flight = self.registry.gauge("net.in_flight")

    def _bind_inbox_depth(self, recipient: PartyId) -> Gauge:
        depth = self._inbox_depth[recipient] = \
            self.registry.gauge(f"inbox.depth[{recipient}]")
        return depth

    def on_input(self, event: LocalEvent) -> None:
        """Record an input action (an invocation opens an operation)."""
        self.events.append(event)
        self._matcher.feed(event)
        self.registry.counter("events.input").inc()

    def on_output(self, event: LocalEvent) -> None:
        """Record an output action; a completion closes its operation
        and appends it to ``completed``."""
        self.events.append(event)
        pair = self._matcher.feed(event)
        if pair is not None:
            self.completed.append(pair)
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

    def _filing(self, tag: str, mtype: str,
                oid: Optional[str]) -> "_Filing":
        """Make the filing of ``(tag, mtype, oid)`` records: the index
        buckets of :func:`_index_keys` and the ``wire.bytes[mtype]``
        histogram's values."""
        root, oids = _index_keys(tag, oid)
        records = self._records_by_operation
        filing = self._filings[(tag, mtype, oid)] = (
            tuple(records.setdefault((root, key), []) for key in oids),
            self.registry.histogram(f"{WIRE_BYTES}{mtype}]").values)
        return filing

    def _file_release(self, filed: _FiledRelease) -> None:
        release = filed[1]
        if release.releasing_msg_id is None:
            self._unwaited_releases.setdefault(
                release.tag, []).append(filed)
            return
        record = self.messages.get(release.releasing_msg_id)
        if record is not None:
            root, oids = _index_keys(record.tag, record.oid)
            for oid in oids:
                self._releases_by_operation.setdefault(
                    (root, oid), []).append(filed)

    def _file_event(self, event: LocalEvent) -> None:
        if event.action == "write-accepted" and event.payload \
                and isinstance(event.payload[0], str):
            self._accepted_by_operation.setdefault(
                (event.tag, event.payload[0]), []).append(event)

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

    def operations(self) -> Tuple[List[_Pair], List[LocalEvent],
                                  List[LocalEvent]]:
        """``(completed, unmatched, open_invocations)`` — what
        :func:`repro.analysis.trace.match_operations` returns over
        ``events``, kept as the events arrived."""
        matcher = self._matcher
        return (self.completed, matcher.unmatched,
                matcher.open_invocations())

    def operation_records(self, tag: str,
                          oid: str) -> List[MessageRecord]:
        """All message records belonging to operation ``oid`` on
        register ``tag`` (:func:`record_belongs`), in send order.  The
        predicate reads only a record's ``tag`` and ``oid``, so it runs
        once per distinct pair of them in the bucket."""
        verdicts: Dict[Tuple[str, Optional[str]], bool] = {}
        belonging = []
        for record in self._records_by_operation.get(
                (_root_tag(tag), oid), ()):
            key = (record.tag, record.oid)
            try:
                verdict = verdicts[key]
            except KeyError:
                verdict = verdicts[key] = record_belongs(record, tag, oid)
            if verdict:
                belonging.append(record)
        return belonging

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
