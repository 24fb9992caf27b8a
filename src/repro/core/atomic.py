"""Protocol Atomic — erasure-coded Byzantine atomic register (Figures 1-2).

The paper's first protocol: a multi-writer multi-reader atomic register
simulation with optimal resilience ``n > 3t``, storage-efficient via
``(n, k)`` erasure coding, tolerating arbitrarily many Byzantine clients
through verifiable information dispersal (Protocol Disperse) and reliable
broadcast of timestamps.

Write (client ``C_i``, value ``F``, operation identifier ``oid``):
  1. query all servers for their current timestamps (``get-ts``);
  2. take the maximum ``ts`` among ``n - t`` replies;
  3. disperse ``F`` (tag ``ID|disp.oid``) and r-broadcast ``ts`` (tag
     ``ID|rbc.oid``);
  4. wait for ``n - t`` ``ack`` messages.

Server ``P_j``, upon completing the dispersal *and* r-delivering ``ts``:
  increment ``ts``; adopt ``[D, F_j, ts + 1, oid]`` if it exceeds the
  stored TIMESTAMP; forward the new value to all listeners with smaller
  entries; ack the writer; output ``write-accepted`` (the signal by which
  a write — even one by a Byzantine client — *takes effect*).

Read (client ``C_i``, operation identifier ``oid``):
  send ``read`` to all servers; collect ``value`` messages with valid
  blocks until ``n - t`` distinct servers agree on one ``(D, TIMESTAMP)``
  pair; send ``read-complete``; decode and return.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set, Tuple

from repro.avid.disperse import AvidServer, disperse
from repro.broadcast.reliable import ReliableBroadcastServer, r_broadcast
from repro.common.ids import TAG_SEP, PartyId, subtag
from repro.common.serialization import encode
from repro.config import SystemConfig
from repro.core.listeners import ListenerSet
from repro.core.register import (
    OperationHandle,
    RegisterClientBase,
    RegisterServerBase,
)
from repro.core.timestamps import INITIAL_TIMESTAMP, Timestamp
from repro.net.message import Message
from repro.net.process import WaitState, first_agreeing, once_per_message

MSG_GET_TS = "get-ts"
MSG_TS = "ts"
MSG_ACK = "ack"
MSG_READ = "read"
MSG_VALUE = "value"
MSG_READ_COMPLETE = "read-complete"

_DISP_PREFIX = "disp."
_RBC_PREFIX = "rbc."


def version_key(message: Message) -> bytes:
    """What a read's ``value`` replies agree on: the encoding of their
    ``(commitment, TIMESTAMP)`` pair."""
    return encode((message.payload[1], message.payload[4]))


def disp_tag(register_tag: str, oid: str) -> str:
    """Tag of the write's dispersal instance: ``ID|disp.oid``."""
    return subtag(register_tag, _DISP_PREFIX + oid)


def rbc_tag(register_tag: str, oid: str) -> str:
    """Tag of the write's reliable-broadcast instance: ``ID|rbc.oid``."""
    return subtag(register_tag, _RBC_PREFIX + oid)


def parse_subtag(tag: str) -> Optional[Tuple[str, str, str]]:
    """Split ``ID|disp.oid`` / ``ID|rbc.oid`` into ``(ID, kind, oid)``.

    Returns ``None`` for tags that are not write sub-instances.  Public
    because the observability plane (:mod:`repro.obs.spans`) uses the
    same decomposition to bind sub-protocol traffic to operations.
    """
    head, sep, last = tag.rpartition(TAG_SEP)
    if not sep:
        return None
    for prefix in (_DISP_PREFIX, _RBC_PREFIX):
        if last.startswith(prefix):
            return head, prefix[:-1], last[len(prefix):]
    return None


# internal alias retained for the server handlers below
_parse_subtag = parse_subtag


@dataclass
class _RegisterState:
    """Global variables of one simulated register at one server."""

    commitment: Any
    block: bytes
    witness: Any
    timestamp: Timestamp
    listeners: ListenerSet
    signature: Any = None  # used by AtomicNS only
    # Join state for in-flight writes: per operation identifier, the
    # broadcast values and dispersal completions *per origin* — a write
    # is processed only when one party owns both halves, so a Byzantine
    # party racing its own session onto an honest oid cannot pair its
    # broadcast with the honest client's dispersal (or vice versa).
    pending_ts: Dict[str, Dict[PartyId, Any]] = field(default_factory=dict)
    pending_disp: Dict[str, Dict[PartyId, Tuple[Any, bytes, Any]]] = \
        field(default_factory=dict)
    accepted: Set[str] = field(default_factory=set)


class AtomicServer(RegisterServerBase):
    """Server ``P_j`` of Protocol Atomic.

    One server process simulates any number of registers, each identified
    by its tag ``ID`` (registers are created on first use with the shared
    ``initial_value``, matching the paper's assumption of an initializing
    write of ``F_init`` preceding all operations).
    """

    def __init__(self, pid: PartyId, config: SystemConfig,
                 initial_value: bytes = b"",
                 max_listeners: Optional[int] = None):
        super().__init__(pid, config, initial_value)
        self._max_listeners = max_listeners
        self.rbc = ReliableBroadcastServer(self, config, self._on_r_deliver)
        self.avid = AvidServer(self, config, self._on_disp_complete)
        self.on(MSG_GET_TS, self._on_get_ts)
        self.on(MSG_READ, self._on_read)
        self.on(MSG_READ_COMPLETE, self._on_read_complete)

    # -- register state and replies -------------------------------------------

    def _new_register(self) -> _RegisterState:
        commitment, block, witness = self._initial_block()
        return _RegisterState(
            commitment=commitment, block=block, witness=witness,
            timestamp=INITIAL_TIMESTAMP, listeners=self._new_listeners())

    def _send_ts(self, client: PartyId, tag: str, oid: str,
                 *reply: Any) -> None:
        self.send(client, tag, MSG_TS, oid, *reply)

    def _version(self, state: _RegisterState) -> Tuple[Any, ...]:
        return (state.commitment, state.block, state.witness,
                state.timestamp)

    def _send_version(self, reader: PartyId, tag: str, oid: Any,
                      *version: Any) -> None:
        self.send(reader, tag, MSG_VALUE, oid, *version)

    # -- write path: join dispersal completion with the broadcast timestamp --

    def _on_disp_complete(self, tag: str, commitment: Any, client: PartyId,
                          block: bytes, witness: Any) -> None:
        parsed = _parse_subtag(tag)
        if parsed is None or parsed[1] != "disp":
            return
        register_tag, _, oid = parsed
        state = self.register_state(register_tag)
        state.pending_disp.setdefault(oid, {})[client] = \
            (commitment, block, witness)
        self._try_join(register_tag, oid)

    def _on_r_deliver(self, tag: str, origin: PartyId,
                      value: Any) -> None:
        parsed = _parse_subtag(tag)
        if parsed is None or parsed[1] != "rbc":
            return
        register_tag, _, oid = parsed
        state = self.register_state(register_tag)
        state.pending_ts.setdefault(oid, {})[origin] = value
        self._try_join(register_tag, oid)

    def _try_join(self, register_tag: str, oid: str) -> None:
        """Fire the write once some party completed *both* halves."""
        state = self.register_state(register_tag)
        if oid in state.accepted:
            return
        for writer, broadcast_value in state.pending_ts.get(oid,
                                                            {}).items():
            if writer in state.pending_disp.get(oid, {}):
                state.accepted.add(oid)
                self._process_write(register_tag, oid, writer,
                                    broadcast_value, state)
                return

    def _process_write(self, register_tag: str, oid: str,
                       writer: PartyId, broadcast_value: Any,
                       state: _RegisterState) -> None:
        """Protocol Atomic: the broadcast value is the bare timestamp."""
        if not isinstance(broadcast_value, int) or broadcast_value < 0:
            return  # Byzantine writer broadcast garbage: never accept
        timestamp = Timestamp(broadcast_value + 1, oid)
        self._accept_write(register_tag, oid, writer, timestamp, state)

    def _accept_write(self, register_tag: str, oid: str, writer: PartyId,
                      timestamp: Timestamp, state: _RegisterState,
                      signature: Any = None,
                      ack_payload: Tuple[Any, ...] = ()) -> None:
        """Adopt the value if newer, notify listeners, ack, take effect."""
        version = (*state.pending_disp.pop(oid)[writer], timestamp)
        state.pending_ts.pop(oid, None)
        if state.timestamp < timestamp:
            (state.commitment, state.block, state.witness, state.timestamp,
             state.signature) = (*version, signature)
        self._forward(register_tag, state, timestamp, version)
        self.send(writer, register_tag, MSG_ACK, oid, *ack_payload)
        self.output(register_tag, "write-accepted", oid, timestamp)

    # -- measurements ----------------------------------------------------------

    def _at_rest(self, state: _RegisterState) -> Tuple[Any, ...]:
        """``D_c, F_c, ts_c, oid_c, sig_c``."""
        return self._version(state) + (state.signature,)

    def storage_bytes(self) -> int:
        """All register state plus transient substrate buffers."""
        return super().storage_bytes() + self.rbc.storage_bytes() \
            + self.avid.storage_bytes()


class AtomicClient(RegisterClientBase):
    """Client ``C_i`` of Protocol Atomic (write of Figure 1, read of
    Figure 2).

    ``bounded_memory`` enables the client-memory scheme the paper points
    to (§3.2: "in practice, one would use the elegant scheme of Martin et
    al. that bounds the memory of the clients"): instead of retaining the
    whole set ``B`` of value messages, the reader considers only the
    *highest-TIMESTAMPed* valid message per server — ``O(n)`` entries.
    Liveness is preserved because every honest server eventually reports
    the largest TIMESTAMP, so the terminating quorum always forms among
    the per-server maxima.
    """

    def __init__(self, pid: PartyId, config: SystemConfig,
                 bounded_memory: bool = False):
        super().__init__(pid, config)
        self.bounded_memory = bounded_memory

    # -- write ---------------------------------------------------------------

    def _write_thread(self, handle: OperationHandle):
        tag, oid = handle.tag, handle.oid
        replies = yield from self._ts_round(tag, oid, MSG_GET_TS, MSG_TS)
        broadcast_value = self._choose_broadcast_value(tag, replies)
        self._disperse(tag, oid, handle.value)
        self._broadcast(tag, oid, broadcast_value)
        yield self.condition_quorum(
            tag, MSG_ACK, self.config.quorum, oid=oid,
            where=lambda m: m.sender.is_server)
        self._finish_write(handle)

    def _choose_broadcast_value(self, tag: str, replies) -> Any:
        """The value to r-broadcast: the largest received timestamp."""
        return max(message.payload[1] for message in replies)

    def _disperse(self, tag: str, oid: str, value: bytes) -> None:
        """Disperse the written value (instance ``ID|disp.oid``)."""
        disperse(self, disp_tag(tag, oid), value, self.config)

    def _broadcast(self, tag: str, oid: str, value: Any) -> None:
        """R-broadcast the chosen value (instance ``ID|rbc.oid``)."""
        r_broadcast(self, rbc_tag(tag, oid), value)

    # -- read -----------------------------------------------------------------

    def _read_thread(self, handle: OperationHandle):
        tag, oid = handle.tag, handle.oid
        self.send_to_servers(tag, MSG_READ, oid)
        quorum = self.config.quorum
        scheme = self.config.commitment_scheme

        def valid(message: Message) -> bool:
            payload = message.payload
            well_formed = (message.sender.is_server
                           and len(payload) == 5
                           and isinstance(payload[4], Timestamp))
            verified = well_formed and scheme.verify(
                payload[1], message.sender.index, payload[2], payload[3])
            if well_formed and not verified:
                # A shape-correct reply with a bad witness can only come
                # from a Byzantine server.
                self.note_verification_failure(tag, MSG_VALUE,
                                               message.sender)
            return verified

        if self.bounded_memory:
            valid = once_per_message(valid)
            key = once_per_message(version_key)

            def check():
                # Martin et al.'s bound: one entry per server — the
                # highest-TIMESTAMPed valid message it sent.
                latest: Dict[PartyId, Message] = {}
                for message in self.inbox.messages(tag, MSG_VALUE,
                                                   where=valid, oid=oid):
                    kept = latest.get(message.sender)
                    if kept is None or \
                            kept.payload[4] < message.payload[4]:
                        latest[message.sender] = message
                return first_agreeing(latest.values(), quorum, key)

            agreeing = WaitState(check, (tag, MSG_VALUE, oid))
        else:
            agreeing = self.condition_agreeing(
                tag, MSG_VALUE, quorum, version_key, where=valid, oid=oid)
        quorum_messages = yield agreeing
        self.send_to_servers(tag, MSG_READ_COMPLETE, oid)
        pairs = [(message.sender.index, message.payload[2])
                 for message in quorum_messages]
        value = self.config.coder.decode(pairs[: self.config.k])
        self._finish_read(handle, value, quorum_messages[0].payload[4])
