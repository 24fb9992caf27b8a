"""Protocol messages and local events.

The paper (Section 2.1) distinguishes *local events* — input actions
``(ID, in, type, ...)`` and output actions ``(ID, out, type, ...)`` — from
ordinary protocol messages ``(ID, type, ...)`` delivered to other parties.
Here protocol messages are :class:`Message` values routed through the
simulator, and local events are :class:`LocalEvent` records appended to the
global event log (the paper's implicit global clock).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.common.ids import PartyId
from repro.common.serialization import encoded_size


def content_wire_size(tag: str, mtype: str, payload: Tuple[Any, ...]) -> int:
    """Wire size of the canonical encoding of ``(tag, mtype, payload)``.

    Shared by :meth:`Message.wire_size`, by broadcast senders, which
    compute the size once and stamp it onto all ``n`` copies, and by the
    kv envelope, which sizes each entry from the size of its content.

    Not memoized by content: a value-keyed memo answers for Python
    equality, and ``True == 1``, so a payload would be sized by its
    equal-but-differently-encoding twin.
    """
    return encoded_size((tag, mtype, payload))


class Message:
    """A protocol message ``(ID, type, ...)`` in flight or delivered.

    ``sender`` is set by the channel layer, never by the sending code, so
    Byzantine processes cannot spoof origins (the secure-channel
    authenticity assumption of the model).

    ``depth`` is the message's causal depth: one more than the depth of
    the delivery that triggered its send (0 for sends from fresh client
    invocations).  Since every message in the simulator takes one
    "network delay", the depth at which an operation completes is its
    latency in message rounds — the standard round-trip cost measure for
    asynchronous protocols.

    ``cause_id`` is the ``msg_id`` of the delivery that activated the
    sender when it sent this message (``None`` for spontaneous sends,
    e.g. from a fresh client invocation).  The cause links form a
    happens-before DAG over the whole run; :mod:`repro.obs` walks it
    backward from an operation's completing event to extract the message
    chain that determined the operation's latency.

    ``wire_size`` is the sender's precomputed :meth:`wire_size`, for
    senders that know it (broadcast copies, kv envelopes, chaos
    duplicates); it must equal what the content would be sized at.

    Implementation note: this is a hand-written slotted class rather than
    a frozen dataclass because message construction is the single most
    frequent allocation in a run (one per send) and the frozen-dataclass
    ``__init__`` pays an ``object.__setattr__`` call per field.  Treat
    instances as immutable all the same — equality, hashing, and the
    cached wire size all assume fields never change after construction.
    """

    __slots__ = ("tag", "mtype", "sender", "recipient", "payload",
                 "msg_id", "depth", "cause_id", "_wire_size")

    def __init__(self, tag: str, mtype: str, sender: PartyId,
                 recipient: PartyId, payload: Tuple[Any, ...],
                 msg_id: int, depth: int = 0,
                 cause_id: Optional[int] = None,
                 wire_size: Optional[int] = None) -> None:
        self.tag = tag
        self.mtype = mtype
        self.sender = sender
        self.recipient = recipient
        self.payload = payload
        self.msg_id = msg_id
        self.depth = depth
        self.cause_id = cause_id
        self._wire_size = wire_size

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Message:
            return NotImplemented
        return (self.msg_id == other.msg_id and self.tag == other.tag
                and self.mtype == other.mtype
                and self.sender == other.sender
                and self.recipient == other.recipient
                and self.payload == other.payload
                and self.depth == other.depth
                and self.cause_id == other.cause_id)

    def __hash__(self) -> int:
        # msg_ids are unique per simulator, so they are a sound (and
        # cheap) hash; equal messages always share one.
        return hash(self.msg_id)

    def __repr__(self) -> str:
        return (f"Message(tag={self.tag!r}, mtype={self.mtype!r}, "
                f"sender={self.sender!r}, recipient={self.recipient!r}, "
                f"payload={self.payload!r}, msg_id={self.msg_id!r}, "
                f"depth={self.depth!r}, cause_id={self.cause_id!r})")

    def wire_size(self) -> int:
        """Bytes on the wire: canonical encoding of (tag, type, payload).

        Sender and recipient are channel addressing, not payload, so they
        are excluded — matching how the paper counts communication
        complexity (bit length of messages associated to an instance).

        The size is computed once per message (the metrics and tracing
        planes both ask for it); senders that already know it stamp it
        at enqueue time instead.
        """
        size = self._wire_size
        if size is None:
            size = content_wire_size(self.tag, self.mtype, self.payload)
            self._wire_size = size
        return size

    def __str__(self) -> str:  # compact form for traces
        return (f"{self.sender}->{self.recipient} "
                f"({self.tag}, {self.mtype}, ...{len(self.payload)})")


#: Kinds of entries in the global event log.
EVENT_INPUT = "in"
EVENT_OUTPUT = "out"
EVENT_DELIVER = "deliver"
#: A fault injected by the chaos plane (:mod:`repro.chaos`): the event's
#: ``action`` names the fault kind and the payload identifies the
#: affected message, so every injected fault is replayable from the log.
EVENT_CHAOS = "chaos"


@dataclass(frozen=True, slots=True)
class LocalEvent:
    """An entry of the global event log, stamped with the logical time.

    ``kind`` is one of :data:`EVENT_INPUT`, :data:`EVENT_OUTPUT` or
    :data:`EVENT_DELIVER`.  Input/output events carry the paper's action
    type (``write``, ``read``, ``ack``, ``write-accepted``, ...) in
    ``action`` and the action parameters in ``payload``.

    ``cause_id`` is the ``msg_id`` of the delivery being processed when
    the party generated this event (``None`` for events outside any
    activation, e.g. an operation invocation).  For an operation's
    completing output action it anchors the happens-before walk of
    :mod:`repro.obs.critical_path`.
    """

    time: int
    party: PartyId
    kind: str
    tag: str
    action: str
    payload: Tuple[Any, ...]
    cause_id: Optional[int] = None
