"""Bracha's asynchronous reliable broadcast (Appendix B substrate).

Used by writing clients to disseminate the timestamp (Protocol Atomic) or
the timestamp/signature pair (Protocol AtomicNS) to the servers.  For
``n > 3t`` it guarantees, per instance:

* **Validity** — if an honest party r-broadcasts ``m``, every honest
  server eventually r-delivers ``m``;
* **Agreement** — no two honest servers r-deliver different values for
  the same instance, and if one honest server r-delivers, all honest
  servers eventually r-deliver;
* **Integrity** — each honest server r-delivers at most once per
  instance.

An *instance* is the pair ``(tag, origin)`` — Bracha's designated-sender
assumption realized through the channel-authenticated sender of the
initial ``send``.  Scoping instances by origin is what stops a Byzantine
server from hijacking an honest client's broadcast by racing a bogus
``send`` onto the same tag: the forgery merely opens a *different*
instance attributed to the forger (and origins that are servers are
rejected outright — only clients broadcast in the register protocols).
Deliveries report the origin so callers can match sub-protocols of one
operation to one writer.

Message pattern: the origin sends ``send`` to all servers; servers echo;
``n - t`` echoes (or ``t + 1`` readys) trigger a ready; ``2t + 1`` readys
deliver.  Equal values are grouped by canonical encoding, so arbitrary
serializable values can be broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Set, Tuple

from repro.common.ids import PartyId
from repro.common.serialization import encode
from repro.config import SystemConfig
from repro.net.message import Message
from repro.net.process import Process

MSG_SEND = "rbc-send"
MSG_ECHO = "rbc-echo"
MSG_READY = "rbc-ready"

#: every wire message type of reliable broadcast, for observability
#: tooling (per-mtype instruments, phase classification)
MESSAGE_TYPES = (MSG_SEND, MSG_ECHO, MSG_READY)

#: deliver(tag, origin, value)
DeliverCallback = Callable[[str, PartyId, Any], None]


def r_broadcast(process: Process, tag: str, value: Any) -> None:
    """Invoke reliable broadcast of ``value`` with instance ``tag``.

    Executed by clients in the register protocols; the instance is bound
    to the caller's channel-authenticated identity.
    """
    process.send_to_servers(tag, MSG_SEND, value)


@dataclass
class _Instance:
    """Server-side state of one ``(tag, origin)`` broadcast instance."""

    echoed: bool = False
    ready_sent: bool = False
    delivered: bool = False
    echo_senders: Dict[bytes, Set[PartyId]] = field(default_factory=dict)
    ready_senders: Dict[bytes, Set[PartyId]] = field(default_factory=dict)
    values: Dict[bytes, Any] = field(default_factory=dict)


class ReliableBroadcastServer:
    """Server-side component handling every broadcast instance on a process.

    Attach one per server; ``deliver`` is called as
    ``deliver(tag, origin, value)`` when an instance r-delivers.
    """

    def __init__(self, process: Process, config: SystemConfig,
                 deliver: DeliverCallback,
                 allow_server_origins: bool = False):
        self._process = process
        self._config = config
        self._deliver = deliver
        # The register protocols only ever broadcast from clients, so
        # server-originated sends are rejected by default; the atomic-
        # broadcast substrate (servers broadcasting proposals) opts in.
        self._allow_server_origins = allow_server_origins
        # Quorum thresholds are fixed for the lifetime of the run; caching
        # them as plain ints keeps the per-delivery progress checks cheap.
        self._quorum = config.quorum
        self._ready_amplify = config.ready_amplify
        self._deliver_quorum = config.deliver_quorum
        self._instances: Dict[Tuple[str, PartyId], _Instance] = {}
        process.on(MSG_SEND, self._on_send)
        process.on(MSG_ECHO, self._on_echo)
        process.on(MSG_READY, self._on_ready)

    def _instance(self, tag: str, origin: PartyId) -> _Instance:
        key = (tag, origin)
        instance = self._instances.get(key)
        if instance is None:
            instance = self._instances[key] = _Instance()
        return instance

    # -- handlers -----------------------------------------------------------

    def _on_send(self, message: Message) -> None:
        origin = message.sender
        if len(message.payload) != 1:
            return
        if origin.is_server and not self._allow_server_origins:
            return  # servers never originate register broadcasts
        instance = self._instance(message.tag, origin)
        if instance.echoed:
            return
        instance.echoed = True
        # Bracha echo relays the value opaquely by design: integrity
        # comes from 2t+1 servers echoing the *same* encoding, and the
        # r-deliver consumers (the register protocols) verify payload
        # contents against commitments before acting on them.
        self._process.send_to_servers(
            message.tag, MSG_ECHO, origin,
            message.payload[0])  # lint: disable=taint-unverified-sink

    def _gossip(self, message: Message):
        """Common validation for echo/ready: returns (instance, origin,
        value, key) or None."""
        if len(message.payload) != 2 or not message.sender.is_server:
            return None
        origin, value = message.payload
        if not isinstance(origin, PartyId):
            return
        if origin.is_server and not self._allow_server_origins:
            return None
        instance = self._instance(message.tag, origin)
        if instance.delivered:
            return None  # integrity: late traffic is ignored
        key = encode(value)
        instance.values.setdefault(key, value)
        return instance, origin, value, key

    def _on_echo(self, message: Message) -> None:
        parsed = self._gossip(message)
        if parsed is None:
            return
        instance, origin, _, key = parsed
        instance.echo_senders.setdefault(key, set()).add(message.sender)
        self._progress(message.tag, origin, instance, key)

    def _on_ready(self, message: Message) -> None:
        parsed = self._gossip(message)
        if parsed is None:
            return
        instance, origin, _, key = parsed
        instance.ready_senders.setdefault(key, set()).add(message.sender)
        self._progress(message.tag, origin, instance, key)

    # -- state machine ----------------------------------------------------------

    def _progress(self, tag: str, origin: PartyId, instance: _Instance,
                  key: bytes) -> None:
        echoes = len(instance.echo_senders.get(key, ()))
        readys = len(instance.ready_senders.get(key, ()))
        if not instance.ready_sent and (
                echoes >= self._quorum or readys >= self._ready_amplify):
            instance.ready_sent = True
            self._process.send_to_servers(tag, MSG_READY, origin,
                                          instance.values[key])
        if not instance.delivered and readys >= self._deliver_quorum:
            instance.delivered = True
            value = instance.values[key]
            # Drop bookkeeping for completed instances; late messages for
            # this instance are ignored (integrity: deliver at most once).
            self._instances[(tag, origin)] = _Instance(
                echoed=True, ready_sent=True, delivered=True)
            self._deliver(tag, origin, value)

    # -- introspection ----------------------------------------------------------

    def delivered(self, tag: str, origin: PartyId = None) -> bool:
        """Whether this server has r-delivered for ``tag`` (any origin, or
        a specific one)."""
        if origin is not None:
            instance = self._instances.get((tag, origin))
            return bool(instance and instance.delivered)
        return any(instance.delivered
                   for (instance_tag, _), instance
                   in self._instances.items() if instance_tag == tag)

    def storage_bytes(self) -> int:
        """Transient state held by in-flight broadcast instances."""
        total = 0
        for instance in self._instances.values():
            for key in instance.values:
                total += len(key)
        return total
