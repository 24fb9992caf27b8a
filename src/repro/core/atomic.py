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
from repro.common.errors import ProtocolError
from repro.common.ids import TAG_SEP, PartyId, subtag
from repro.common.serialization import encode, encoded_size
from repro.config import SystemConfig
from repro.core.listeners import ListenerSet
from repro.core.register import OperationHandle, RegisterClientBase
from repro.core.timestamps import INITIAL_TIMESTAMP, Timestamp
from repro.net.message import Message
from repro.net.process import Process, WaitState

MSG_GET_TS = "get-ts"
MSG_TS = "ts"
MSG_ACK = "ack"
MSG_READ = "read"
MSG_VALUE = "value"
MSG_READ_COMPLETE = "read-complete"

_DISP_PREFIX = "disp."
_RBC_PREFIX = "rbc."


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
    signature: Any = None  # used by AtomicNS only
    listeners: ListenerSet = field(default_factory=ListenerSet)
    # Join state for in-flight writes: per operation identifier, the
    # broadcast values and dispersal completions *per origin* — a write
    # is processed only when one party owns both halves, so a Byzantine
    # party racing its own session onto an honest oid cannot pair its
    # broadcast with the honest client's dispersal (or vice versa).
    pending_ts: Dict[str, Dict[PartyId, Any]] = field(default_factory=dict)
    pending_disp: Dict[str, Dict[PartyId, Tuple[Any, bytes, Any]]] = \
        field(default_factory=dict)
    accepted: Set[str] = field(default_factory=set)


class AtomicServer(Process):
    """Server ``P_j`` of Protocol Atomic.

    One server process simulates any number of registers, each identified
    by its tag ``ID`` (registers are created on first use with the shared
    ``initial_value``, matching the paper's assumption of an initializing
    write of ``F_init`` preceding all operations).
    """

    def __init__(self, pid: PartyId, config: SystemConfig,
                 initial_value: bytes = b"",
                 max_listeners: Optional[int] = None):
        super().__init__(pid)
        self.config = config
        self._initial_value = initial_value
        self._initial_state: Optional[Tuple[Any, bytes, Any]] = None
        self._max_listeners = max_listeners
        self._registers: Dict[str, _RegisterState] = {}
        self.rbc = ReliableBroadcastServer(self, config, self._on_r_deliver)
        self.avid = AvidServer(self, config, self._on_disp_complete)
        self.on(MSG_GET_TS, self._on_get_ts)
        self.on(MSG_READ, self._on_read)
        self.on(MSG_READ_COMPLETE, self._on_read_complete)

    # -- register state -----------------------------------------------------

    def register_state(self, tag: str) -> _RegisterState:
        """The register's global variables (created lazily)."""
        if tag not in self._registers:
            if self._initial_state is None:
                blocks = self.config.coder.encode(self._initial_value)
                commitment, witnesses = \
                    self.config.commitment_scheme.commit(blocks)
                index = self.pid.index
                self._initial_state = (commitment, blocks[index - 1],
                                       witnesses[index - 1])
            commitment, block, witness = self._initial_state
            self._registers[tag] = _RegisterState(
                commitment=commitment, block=block, witness=witness,
                timestamp=INITIAL_TIMESTAMP,
                listeners=ListenerSet(capacity=self._max_listeners))
        return self._registers[tag]

    # -- client-facing handlers -------------------------------------------------

    def _on_get_ts(self, message: Message) -> None:
        if len(message.payload) != 1:
            return
        (oid,) = message.payload
        if not isinstance(oid, str):
            return  # byzantine oid: never echo unverified objects back
        state = self.register_state(message.tag)
        self.send(message.sender, message.tag, MSG_TS, oid,
                  *self._ts_reply(state))

    def _ts_reply(self, state: _RegisterState) -> Tuple[Any, ...]:
        """Payload appended to the ``ts`` reply after the oid.

        Protocol Atomic sends the bare timestamp; AtomicNS overrides this
        to also send the threshold signature ``sig_c``.
        """
        return (state.timestamp.ts,)

    def _on_read(self, message: Message) -> None:
        if len(message.payload) != 1:
            return
        (oid,) = message.payload
        if not isinstance(oid, str):
            return
        state = self.register_state(message.tag)
        if state.listeners.knows(oid):
            return  # duplicate read or already completed: stay silent
        # At the §3.5 capacity bound the registration fails; the reader
        # still gets one reply but no forwarding of later writes.
        state.listeners.add(oid, state.timestamp, message.sender)
        self.send(message.sender, message.tag, MSG_VALUE, oid,
                  state.commitment, state.block, state.witness,
                  state.timestamp)

    def _on_read_complete(self, message: Message) -> None:
        if len(message.payload) != 1:
            return
        (oid,) = message.payload
        if not isinstance(oid, str):
            return
        self.register_state(message.tag).listeners.retire(oid)

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
        commitment, block, witness = state.pending_disp[oid][writer]
        client = writer
        state.pending_disp.pop(oid, None)
        state.pending_ts.pop(oid, None)
        if state.timestamp < timestamp:
            state.commitment = commitment
            state.block = block
            state.witness = witness
            state.timestamp = timestamp
            state.signature = signature
        for listener_oid, listener in state.listeners.below(timestamp):
            self.send(listener, register_tag, MSG_VALUE, listener_oid,
                      commitment, block, witness, timestamp)
        self.send(client, register_tag, MSG_ACK, oid, *ack_payload)
        self.output(register_tag, "write-accepted", oid, timestamp)

    # -- measurements ----------------------------------------------------------

    def register_storage_bytes(self, tag: str) -> int:
        """Storage complexity of one register's global variables
        (``D_c, F_c, ts_c, oid_c, sig_c`` plus the listener set)."""
        state = self.register_state(tag)
        total = encoded_size((state.commitment, state.block, state.witness,
                              state.timestamp, state.signature))
        total += state.listeners.storage_bytes()
        return total

    def storage_bytes(self) -> int:
        """All register state plus transient substrate buffers."""
        total = sum(self.register_storage_bytes(tag)
                    for tag in self._registers)
        total += self.rbc.storage_bytes()
        total += self.avid.storage_bytes()
        return total


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
        self.send_to_servers(tag, MSG_GET_TS, oid)
        replies = yield self.condition_quorum(
            tag, MSG_TS, self.config.quorum, oid=oid,
            where=lambda m: (m.sender.is_server
                             and len(m.payload) >= 2
                             and self._valid_ts_reply(tag, m.payload)))
        broadcast_value = self._choose_broadcast_value(tag, replies)
        disperse(self, disp_tag(tag, oid), handle.value, self.config)
        r_broadcast(self, rbc_tag(tag, oid), broadcast_value)
        yield self.condition_quorum(
            tag, MSG_ACK, self.config.quorum, oid=oid,
            where=lambda m: m.sender.is_server)
        self._finish_write(handle)

    def _valid_ts_reply(self, tag: str, payload: Tuple[Any, ...]) -> bool:
        """Protocol Atomic accepts any non-negative integer timestamp."""
        return (len(payload) == 2 and isinstance(payload[1], int)
                and payload[1] >= 0)

    def _choose_broadcast_value(self, tag: str, replies) -> Any:
        """The value to r-broadcast: the largest received timestamp."""
        return max(message.payload[1] for message in replies)

    # -- read -----------------------------------------------------------------

    def _read_thread(self, handle: OperationHandle):
        tag, oid = handle.tag, handle.oid
        self.send_to_servers(tag, MSG_READ, oid)
        timestamp, _, quorum_messages = yield self._read_quorum_condition(
            tag, oid)
        self.send_to_servers(tag, MSG_READ_COMPLETE, oid)
        pairs = [(message.sender.index, message.payload[2])
                 for message in quorum_messages]
        value = self.config.coder.decode(pairs[: self.config.k])
        self._finish_read(handle, value, timestamp)

    def _read_quorum_condition(self, tag: str, oid: str):
        """Condition: ``n - t`` distinct servers sent valid ``value``
        messages agreeing on one ``(commitment, TIMESTAMP)`` pair.

        Returns ``(timestamp, commitment, messages)`` for the first such
        group.  Block validity checks and the encoding that names a
        message's group are memoized per message.
        """
        memo: Dict[int, bool] = {}
        group_memo: Dict[int, bytes] = {}
        scheme = self.config.commitment_scheme
        quorum = self.config.quorum

        def valid(message: Message) -> bool:
            cached = memo.get(message.msg_id)
            if cached is None:
                payload = message.payload
                well_formed = (
                    message.sender.is_server
                    and len(payload) == 5
                    and isinstance(payload[4], Timestamp))
                cached = well_formed and scheme.verify(
                    payload[1], message.sender.index,
                    payload[2], payload[3])
                if well_formed and not cached:
                    # A shape-correct reply with a bad witness can only
                    # come from a Byzantine server; the memo entry keeps
                    # the report to once per message.
                    self.note_verification_failure(tag, MSG_VALUE,
                                                   message.sender)
                memo[message.msg_id] = cached
            return cached

        def check():
            candidates = self.inbox.messages(tag, MSG_VALUE, where=valid,
                                             oid=oid)
            if self.bounded_memory:
                # Martin et al.'s bound: keep one entry per server — the
                # highest-TIMESTAMPed valid message it sent.
                latest: Dict[PartyId, Message] = {}
                for message in candidates:
                    kept = latest.get(message.sender)
                    if kept is None or \
                            kept.payload[4] < message.payload[4]:
                        latest[message.sender] = message
                candidates = list(latest.values())
            groups: Dict[bytes, Dict[PartyId, Message]] = {}
            for message in candidates:
                key = group_memo.get(message.msg_id)
                if key is None:
                    key = group_memo[message.msg_id] = encode(
                        (message.payload[1], message.payload[4]))
                group = groups.setdefault(key, {})
                group.setdefault(message.sender, message)
            for group in groups.values():
                if len(group) >= quorum:
                    messages = list(group.values())
                    first = messages[0]
                    return (first.payload[4], first.payload[1], messages)
            return None

        return WaitState(check, (tag, MSG_VALUE, oid))
