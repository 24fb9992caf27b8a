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
from typing import Any, Set, Tuple

from repro.common.ids import PartyId
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
    listeners: ListenerSet
    accepted: Set[str] = field(default_factory=set)


class MartinServer(RegisterServerBase):
    """Replication-based register server (SBQ-L style)."""

    def __init__(self, pid: PartyId, config: SystemConfig,
                 initial_value: bytes = b""):
        super().__init__(pid, config, initial_value)
        self.on(MSG_GET_TS, self._on_get_ts)
        self.on(MSG_STORE, self._on_store)
        self.on(MSG_READ, self._on_read)
        self.on(MSG_READ_COMPLETE, self._on_read_complete)

    def _new_register(self) -> _ReplicaState:
        return _ReplicaState(timestamp=INITIAL_TIMESTAMP,
                             value=self._initial_value,
                             listeners=self._new_listeners())

    def _send_ts(self, client: PartyId, tag: str, oid: str,
                 *reply: Any) -> None:
        self.send(client, tag, MSG_TS, oid, *reply)

    def _version(self, state: _ReplicaState) -> Tuple[Any, ...]:
        """``(TIMESTAMP, value)`` — replication stores everything, so this
        is also all a register keeps at rest."""
        return (state.timestamp, state.value)

    def _send_version(self, reader: PartyId, tag: str, oid: str,
                      *version: Any) -> None:
        self.send(reader, tag, MSG_VALUE, oid, *version)

    # -- write path ---------------------------------------------------------

    def _on_store(self, message: Message) -> None:
        if len(message.payload) != 3:
            return
        oid, timestamp, value = message.payload
        if not (isinstance(oid, str) and isinstance(timestamp, Timestamp)
                and isinstance(value, bytes) and timestamp.oid == oid):
            return
        state = self.register_state(message.tag)
        if state.timestamp < timestamp:
            state.timestamp, state.value = timestamp, value
        self._forward(message.tag, state, timestamp, (timestamp, value))
        self.send(message.sender, message.tag, MSG_ACK, oid)
        if oid not in state.accepted:
            state.accepted.add(oid)
            self.output(message.tag, "write-accepted", oid, timestamp)


class MartinClient(RegisterClientBase):
    """Replication-based register client (SBQ-L style)."""

    def _write_thread(self, handle: OperationHandle):
        tag, oid = handle.tag, handle.oid
        replies = yield from self._ts_round(tag, oid, MSG_GET_TS, MSG_TS)
        ts = self._choose_timestamp(
            sorted((m.payload[1] for m in replies), reverse=True))
        self._store(tag, oid, Timestamp(ts + 1, oid), handle.value)
        yield self.condition_quorum(
            tag, MSG_ACK, self.config.quorum, oid=oid,
            where=lambda m: m.sender.is_server and len(m.payload) == 1)
        self._finish_write(handle)

    def _choose_timestamp(self, descending_ts) -> int:
        """SBQ-L takes the maximum reply — skipping is possible because a
        single corrupted server controls the maximum."""
        return descending_ts[0]

    def _store(self, tag: str, oid: str, timestamp: Timestamp,
               value: bytes) -> None:
        """Send the full value under ``timestamp`` to every server."""
        self.send_to_servers(tag, MSG_STORE, oid, timestamp, value)

    def _read_thread(self, handle: OperationHandle):
        tag, oid = handle.tag, handle.oid
        self.send_to_servers(tag, MSG_READ, oid)

        def valid(message: Message) -> bool:
            payload = message.payload
            return (message.sender.is_server and len(payload) == 3
                    and isinstance(payload[1], Timestamp)
                    and isinstance(payload[2], bytes))

        messages = yield self.condition_agreeing(
            tag, MSG_VALUE, self.config.quorum,
            lambda m: encode((m.payload[1], m.payload[2])),
            where=valid, oid=oid)
        self.send_to_servers(tag, MSG_READ_COMPLETE, oid)
        first = messages[0]
        self._finish_read(handle, first.payload[2], first.payload[1])
