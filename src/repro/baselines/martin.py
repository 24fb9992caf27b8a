"""Baseline: Martin et al. (SBQ-L) replication-based atomic register.

The listeners-pattern register of Martin, Alvisi and Dahlin ("Minimal
Byzantine Storage", reference [23] of the paper), which Protocol Atomic
builds on.  Same optimal resilience ``n > 3t``, but:

* **full replication** — every server stores a complete copy of the value
  (storage blow-up ``n`` instead of ``n / k``);
* **client-generated timestamps** — the writer picks ``max + 1`` itself
  and sends the value directly; corrupted servers (via inflated ``ts``
  replies) or clients can make timestamps arbitrarily large (skipping);
* **no protection against Byzantine clients** — a corrupted writer can
  send *different* values under one timestamp to different servers,
  leaving the register in a state no read quorum agrees on.

Write: query ``get-ts`` from all, take ``max`` of ``n - t`` replies, send
``store(oid, [ts+1, oid], F)`` to every server, await ``n - t`` acks.
Servers adopt higher-timestamped values, forward to listeners, ack.

Read: identical listener scheme to Protocol Atomic, but ``value`` messages
carry the full value and the reader waits for ``n - t`` identical
``(TIMESTAMP, value)`` replies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set, Tuple

from repro.common.ids import PartyId
from repro.common.serialization import encode, encoded_size
from repro.config import SystemConfig
from repro.core.listeners import ListenerSet
from repro.core.register import OperationHandle, RegisterClientBase
from repro.core.timestamps import INITIAL_TIMESTAMP, Timestamp
from repro.net.message import Message
from repro.net.process import Process, WaitState

MSG_GET_TS = "get-ts"
MSG_TS = "ts"
MSG_STORE = "store"
MSG_ACK = "ack"
MSG_READ = "read"
MSG_VALUE = "value"
MSG_READ_COMPLETE = "read-complete"


@dataclass
class _ReplicaState:
    """Per-register replica state: the full value plus listeners."""

    timestamp: Timestamp
    value: bytes
    listeners: ListenerSet = field(default_factory=ListenerSet)
    accepted: Set[str] = field(default_factory=set)


class MartinServer(Process):
    """Replication-based register server (SBQ-L style)."""

    def __init__(self, pid: PartyId, config: SystemConfig,
                 initial_value: bytes = b""):
        super().__init__(pid)
        self.config = config
        self._initial_value = initial_value
        self._registers: Dict[str, _ReplicaState] = {}
        self.on(MSG_GET_TS, self._on_get_ts)
        self.on(MSG_STORE, self._on_store)
        self.on(MSG_READ, self._on_read)
        self.on(MSG_READ_COMPLETE, self._on_read_complete)

    def register_state(self, tag: str) -> _ReplicaState:
        """The replica's register state (created lazily)."""
        if tag not in self._registers:
            self._registers[tag] = _ReplicaState(
                timestamp=INITIAL_TIMESTAMP, value=self._initial_value)
        return self._registers[tag]

    # -- handlers ----------------------------------------------------------

    def _on_get_ts(self, message: Message) -> None:
        if len(message.payload) != 1:
            return
        (oid,) = message.payload
        state = self.register_state(message.tag)
        self.send(message.sender, message.tag, MSG_TS, oid,
                  state.timestamp.ts)

    def _on_store(self, message: Message) -> None:
        if len(message.payload) != 3:
            return
        oid, timestamp, value = message.payload
        if not (isinstance(oid, str) and isinstance(timestamp, Timestamp)
                and isinstance(value, bytes) and timestamp.oid == oid):
            return
        state = self.register_state(message.tag)
        if state.timestamp < timestamp:
            state.timestamp = timestamp
            state.value = value
        for listener_oid, listener in state.listeners.below(timestamp):
            self.send(listener, message.tag, MSG_VALUE, listener_oid,
                      timestamp, value)
        self.send(message.sender, message.tag, MSG_ACK, oid)
        if oid not in state.accepted:
            state.accepted.add(oid)
            self.output(message.tag, "write-accepted", oid, timestamp)

    def _on_read(self, message: Message) -> None:
        if len(message.payload) != 1:
            return
        (oid,) = message.payload
        if not isinstance(oid, str):
            return
        state = self.register_state(message.tag)
        if not state.listeners.add(oid, state.timestamp, message.sender):
            return
        self.send(message.sender, message.tag, MSG_VALUE, oid,
                  state.timestamp, state.value)

    def _on_read_complete(self, message: Message) -> None:
        if len(message.payload) != 1:
            return
        (oid,) = message.payload
        if isinstance(oid, str):
            self.register_state(message.tag).listeners.retire(oid)

    # -- measurements ----------------------------------------------------------

    def register_storage_bytes(self, tag: str) -> int:
        """Storage complexity of one register: the full value plus the
        TIMESTAMP and listener entries (replication stores everything)."""
        state = self.register_state(tag)
        return encoded_size((state.timestamp, state.value)) \
            + state.listeners.storage_bytes()

    def storage_bytes(self) -> int:
        """Total storage across all registers on this replica."""
        return sum(self.register_storage_bytes(tag)
                   for tag in self._registers)


class MartinClient(RegisterClientBase):
    """Replication-based register client (SBQ-L style)."""

    def _write_thread(self, handle: OperationHandle):
        tag, oid = handle.tag, handle.oid
        self.send_to_servers(tag, MSG_GET_TS, oid)
        replies = yield self.condition_quorum(
            tag, MSG_TS, self.config.quorum, oid=oid,
            where=lambda m: (m.sender.is_server and len(m.payload) == 2
                             and isinstance(m.payload[1], int)
                             and m.payload[1] >= 0))
        ts = self._choose_timestamp(
            sorted((m.payload[1] for m in replies), reverse=True))
        self.send_to_servers(tag, MSG_STORE, oid, Timestamp(ts + 1, oid),
                             handle.value)
        yield self.condition_quorum(
            tag, MSG_ACK, self.config.quorum, oid=oid,
            where=lambda m: m.sender.is_server and len(m.payload) == 1)
        self._finish_write(handle)

    def _choose_timestamp(self, descending_ts) -> int:
        """SBQ-L takes the maximum reply — skipping is possible because a
        single corrupted server controls the maximum."""
        return descending_ts[0]

    def _read_thread(self, handle: OperationHandle):
        tag, oid = handle.tag, handle.oid
        self.send_to_servers(tag, MSG_READ, oid)
        quorum = self.config.quorum

        def valid(message: Message) -> bool:
            payload = message.payload
            return (message.sender.is_server and len(payload) == 3
                    and isinstance(payload[1], Timestamp)
                    and isinstance(payload[2], bytes))

        def check():
            groups: Dict[bytes, Dict[PartyId, Message]] = {}
            for message in self.inbox.messages(tag, MSG_VALUE, where=valid,
                                               oid=oid):
                key = encode((message.payload[1], message.payload[2]))
                groups.setdefault(key, {}).setdefault(
                    message.sender, message)
            for group in groups.values():
                if len(group) >= quorum:
                    return list(group.values())
            return None

        messages = yield WaitState(check, (tag, MSG_VALUE, oid))
        self.send_to_servers(tag, MSG_READ_COMPLETE, oid)
        first = messages[0]
        self._finish_read(handle, first.payload[2], first.payload[1])
