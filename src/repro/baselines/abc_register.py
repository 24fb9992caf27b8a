"""Comparator: registers serialized by atomic broadcast (paper §3.4).

The paper notes that an atomic register "might be based on other
techniques (e.g., atomic broadcast from the clients to the servers to
serialize the operations)".  This module builds exactly that register so
the cost difference is measurable (experiment F13): every operation —
writes *and* reads — is totally ordered by the randomized atomic
broadcast stack (reliable broadcast + binary agreement + common subset),
then applied to replicated state.

Atomicity is trivial (one total order); the price is steep: every
operation costs a consensus round (``O(n^2)``-message RBCs plus ``n``
binary-agreement instances, each with coin rounds), full replication,
and reads as expensive as writes.  Clients need ``t + 1`` matching
replies (at least one honest server vouches for the ordered result).
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.agreement.atomic_broadcast import AtomicBroadcast
from repro.common.ids import PartyId
from repro.config import SystemConfig
from repro.core.register import OperationHandle, RegisterClientBase
from repro.core.timestamps import Timestamp
from repro.net.message import Message
from repro.net.process import Process, WaitState

MSG_SUBMIT = "abc-submit"
MSG_WRITE_DONE = "abc-write-done"
MSG_READ_RESULT = "abc-read-result"


class AbcRegisterServer(Process):
    """Replicated state machine: applies totally-ordered register ops."""

    def __init__(self, pid: PartyId, config: SystemConfig,
                 initial_value: bytes = b""):
        super().__init__(pid)
        self.config = config
        self._initial_value = initial_value
        self._values: Dict[str, Tuple[bytes, Timestamp]] = {}
        self._applied: set = set()
        self.abc = AtomicBroadcast(self, config, self._apply)
        self.on(MSG_SUBMIT, self._on_submit)

    # -- request intake -----------------------------------------------------

    def _on_submit(self, message: Message) -> None:
        if len(message.payload) != 1:
            return
        request = message.payload[0]
        if not (isinstance(request, tuple) and len(request) == 5
                and request[0] in ("write", "read")
                and isinstance(request[4], PartyId)):
            return
        self.abc.submit(request)

    # -- ordered application ----------------------------------------------------

    def _current(self, tag: str) -> Tuple[bytes, Timestamp]:
        return self._values.get(
            tag, (self._initial_value, Timestamp(0, "")))

    def _apply(self, sequence: int, request: Any) -> None:
        if not (isinstance(request, tuple) and len(request) == 5):
            return
        kind, tag, oid, value, client = request
        if not (isinstance(tag, str) and isinstance(oid, str)
                and isinstance(client, PartyId)):
            return
        if kind == "write" and isinstance(value, bytes):
            timestamp = Timestamp(sequence, oid)
            self._values[tag] = (value, timestamp)
            if (tag, oid) not in self._applied:
                self._applied.add((tag, oid))
                self.output(tag, "write-accepted", oid, timestamp)
            self.send(client, tag, MSG_WRITE_DONE, oid, sequence)
        elif kind == "read":
            current_value, timestamp = self._current(tag)
            self.send(client, tag, MSG_READ_RESULT, oid, current_value,
                      timestamp)

    # -- measurements ---------------------------------------------------------------

    def register_state(self, tag: str):
        """Compatibility probe: exposes a ``timestamp`` attribute like
        the other servers (the ABC sequence number plays the role)."""
        value, timestamp = self._current(tag)

        class _View:
            pass

        view = _View()
        view.timestamp = timestamp
        view.value = value
        return view

    def register_storage_bytes(self, tag: str) -> int:
        """Full replication: the whole value plus its order stamp."""
        from repro.common.serialization import encoded_size
        value, timestamp = self._current(tag)
        return encoded_size((value, timestamp))


class AbcRegisterClient(RegisterClientBase):
    """Client: submits operations for total ordering, waits for ``t + 1``
    matching replies."""

    def _write_thread(self, handle: OperationHandle):
        tag, oid = handle.tag, handle.oid
        request = ("write", tag, oid, handle.value, self.pid)
        self.send_to_servers(tag, MSG_SUBMIT, request)
        yield self.condition_quorum(
            tag, MSG_WRITE_DONE, self.config.t + 1, oid=oid,
            where=lambda m: m.sender.is_server and len(m.payload) == 2)
        self._finish_write(handle)

    def _read_thread(self, handle: OperationHandle):
        tag, oid = handle.tag, handle.oid
        request = ("read", tag, oid, b"", self.pid)
        self.send_to_servers(tag, MSG_SUBMIT, request)
        needed = self.config.t + 1

        def check():
            groups: Dict[bytes, list] = {}
            from repro.common.serialization import encode
            for message in self.inbox.first_per_sender(
                    tag, MSG_READ_RESULT, oid=oid,
                    where=lambda m: (m.sender.is_server
                                     and len(m.payload) == 3
                                     and isinstance(m.payload[1], bytes))):
                key = encode((message.payload[1], message.payload[2]))
                groups.setdefault(key, []).append(message)
            for group in groups.values():
                if len(group) >= needed:
                    return group[0]
            return None

        message = yield WaitState(check, (tag, MSG_READ_RESULT, oid))
        self._finish_read(handle, message.payload[1], message.payload[2])
