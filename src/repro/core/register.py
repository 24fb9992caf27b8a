"""Register operations, their observable handles, and the server skeleton.

Definition 1 of the paper specifies the interface of an atomic register
simulation protocol: clients invoke *write* and *read* operations named by
unique operation identifiers; operations terminate by generating output
actions, and servers signal accepted writes with ``write-accepted`` output
actions.  :class:`OperationHandle` captures one operation's lifecycle so
harnesses can build histories and check atomicity.
:class:`RegisterServerBase` is the server side every quorum register
shares: lazy per-register state, the ``(oid,)`` request check, and the
listener read path of Figures 1-2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.common.errors import ProtocolError
from repro.common.ids import PartyId
from repro.common.serialization import encoded_size
from repro.config import SystemConfig
from repro.core.listeners import ListenerSet
from repro.core.timestamps import Timestamp
from repro.net.message import Message
from repro.net.process import Process

KIND_WRITE = "write"
KIND_READ = "read"
#: Metadata-only revalidation round (protocols with a metadata plane);
#: completes with a TIMESTAMP and no value — not a register operation
#: of Definition 1, so it never enters operation histories.
KIND_VALIDATE = "validate"


@dataclass
class OperationHandle:
    """Observable state of one register operation at an honest client.

    ``invoke_time`` / ``complete_time`` are logical global-clock values, so
    the *precedes* relation of the paper is ``a.complete_time <
    b.invoke_time``.  For reads, ``result`` holds the returned value and
    ``timestamp`` the TIMESTAMP it was read with (exposed for analysis;
    not part of the register interface).
    """

    kind: str
    tag: str
    oid: str
    client: PartyId
    value: Optional[bytes] = None
    result: Optional[bytes] = None
    timestamp: Any = None
    invoke_time: Optional[int] = None
    complete_time: Optional[int] = None
    #: causal depth at completion == operation latency in message rounds
    latency_rounds: Optional[int] = None
    #: ``msg_id`` of the delivery that completed the operation — the
    #: anchor for :mod:`repro.obs.critical_path`'s happens-before walk
    completion_cause: Optional[int] = None

    @property
    def done(self) -> bool:
        return self.complete_time is not None

    def _complete(self, time: int, result: Optional[bytes] = None,
                  timestamp: Any = None) -> None:
        if self.done:
            raise ProtocolError(
                f"operation {self.oid} generated two output actions")
        self.complete_time = time
        self.result = result
        self.timestamp = timestamp


class ByzantineClient:
    """The mark of a corrupted client (every client attack carries it):
    :class:`~repro.analysis.history.HistoryRecorder` admits its writes
    only once they take effect, and never waits on its operations."""


class RegisterClientBase(Process):
    """Shared machinery of register protocol clients.

    Subclasses implement ``_write_thread`` / ``_read_thread`` as generator
    protocols; this base manages operation handles, input/output actions,
    and uniqueness of operation identifiers.
    """

    def __init__(self, pid: PartyId, config: SystemConfig):
        super().__init__(pid)
        self.config = config
        self._operations = {}

    # -- invocation API ---------------------------------------------------

    def invoke_write(self, tag: str, oid: str,
                     value: bytes) -> OperationHandle:
        """Invoke ``(ID, in, write, oid, F)``; returns the handle that
        completes when the write's ``ack`` output action fires."""
        handle = self._new_handle(KIND_WRITE, tag, oid, value=value)
        self.record_input(tag, "write", oid)
        handle.invoke_time = self.simulator.time
        self.start_thread(self._write_thread(handle))
        return handle

    def invoke_read(self, tag: str, oid: str) -> OperationHandle:
        """Invoke ``(ID, in, read, oid)``; the handle's ``result`` holds
        the returned value once done."""
        handle = self._new_handle(KIND_READ, tag, oid)
        self.record_input(tag, "read", oid)
        handle.invoke_time = self.simulator.time
        self.start_thread(self._read_thread(handle))
        return handle

    def _new_handle(self, kind: str, tag: str, oid: str,
                    value: Optional[bytes] = None) -> OperationHandle:
        if not oid:
            raise ProtocolError("operation identifiers must be non-empty")
        key = (tag, oid)
        if key in self._operations:
            raise ProtocolError(
                f"operation identifier {oid!r} reused for register {tag!r}")
        handle = OperationHandle(kind=kind, tag=tag, oid=oid,
                                 client=self.pid, value=value)
        self._operations[key] = handle
        return handle

    def operation(self, tag: str, oid: str) -> OperationHandle:
        """Look up the handle of a previously invoked operation."""
        return self._operations[(tag, oid)]

    @property
    def operations(self):
        """All handles created at this client, in invocation order."""
        return list(self._operations.values())

    # -- completion helpers ------------------------------------------------

    def _finish_write(self, handle: OperationHandle) -> None:
        self.output(handle.tag, "ack", handle.oid)
        self._complete(handle)

    def _finish_read(self, handle: OperationHandle, value: bytes,
                     timestamp: Any) -> None:
        self.output(handle.tag, "read", handle.oid, value)
        self._complete(handle, result=value, timestamp=timestamp)

    def _complete(self, handle: OperationHandle,
                  result: Optional[bytes] = None,
                  timestamp: Any = None) -> None:
        """Close the operation: stamp the handle from the completing
        activation and retire what the operation buffered."""
        handle._complete(self.simulator.time, result=result,
                         timestamp=timestamp)
        handle.latency_rounds = self.activation_depth
        handle.completion_cause = self.activation_msg_id
        self.inbox.retire(handle.tag, handle.oid)

    # -- the timestamp round --------------------------------------------------

    def _ts_round(self, tag: str, oid: str, get_ts: str, ts: str):
        """The first phase of every write (Figure 1): send ``get_ts`` to
        all servers and wait for ``n - t`` replies of type ``ts`` from
        servers that pass :meth:`_valid_ts_reply`.  Run with ``yield
        from``; returns the replies."""
        self.send_to_servers(tag, get_ts, oid)
        return (yield self.condition_quorum(
            tag, ts, self.config.quorum, oid=oid,
            where=lambda m: (m.sender.is_server
                             and self._valid_ts_reply(tag, m.payload))))

    def _valid_ts_reply(self, tag: str, payload: Tuple[Any, ...]) -> bool:
        """The reply hook: an ``(oid, ts)`` payload with a non-negative
        integer timestamp."""
        return (len(payload) == 2 and isinstance(payload[1], int)
                and payload[1] >= 0)

    # -- protocol threads (subclass responsibility) ---------------------------

    def _write_thread(self, handle: OperationHandle):
        raise NotImplementedError

    def _read_thread(self, handle: OperationHandle):
        raise NotImplementedError


class RegisterServerBase(Process):
    """Shared skeleton of the quorum register servers (Figures 1-2).

    One server process simulates any number of registers, each created
    on first use from the shared ``initial_value`` (the paper's
    initializing write of ``F_init``).  The base answers ``get-ts``,
    registers a reader as a listener and replies, retires it on
    ``read-complete``, and forwards each newer version to the listeners
    below it.  A protocol registers these handlers under its own message
    types and supplies ``_new_register()``, the replies ``_send_ts`` and
    ``_send_version`` (the read reply and every listener forward) and
    ``_version(state)``, the adopted version as a reply carries it.
    Byzantine behaviours override the hooks ``_ts_reply``, ``_listen``,
    ``_read_reply`` and ``_send_version`` rather than whole handlers.
    """

    #: the ``|L|`` bound of Section 3.5 (``None``: unbounded)
    _max_listeners: Optional[int] = None

    def __init__(self, pid: PartyId, config: SystemConfig,
                 initial_value: bytes = b""):
        super().__init__(pid)
        self.config = config
        self._initial_value = initial_value
        self._initial_state: Optional[Tuple[Any, bytes, Any]] = None
        self._registers: Dict[str, Any] = {}

    # -- register state -----------------------------------------------------

    def register_state(self, tag: str) -> Any:
        """The register's global variables (created lazily)."""
        if tag not in self._registers:
            self._registers[tag] = self._new_register()
        return self._registers[tag]

    def _new_listeners(self) -> ListenerSet:
        """The empty listener set ``L`` of a new register."""
        return ListenerSet(capacity=self._max_listeners)

    def _initial_block(self) -> Tuple[Any, bytes, Any]:
        """``(D, F_j, w_j)`` of the initial value: its cross-checksum and
        this server's block and witness, encoded and committed once per
        server."""
        if self._initial_state is None:
            blocks = self.config.coder.encode(self._initial_value)
            commitment, witnesses = \
                self.config.commitment_scheme.commit(blocks)
            index = self.pid.index
            self._initial_state = (commitment, blocks[index - 1],
                                   witnesses[index - 1])
        return self._initial_state

    # -- client-facing handlers ---------------------------------------------

    def _request_oid(self, message: Message) -> Optional[str]:
        """The oid of a well-formed ``(oid,)`` request, else ``None``."""
        if len(message.payload) != 1:
            return None
        (oid,) = message.payload
        if not isinstance(oid, str):
            return None  # byzantine oid: never echo unverified objects back
        return oid

    def _on_get_ts(self, message: Message) -> None:
        oid = self._request_oid(message)
        if oid is not None:
            self._send_ts(message.sender, message.tag, oid,
                          *self._ts_reply(self.register_state(message.tag)))

    def _ts_reply(self, state: Any) -> Tuple[Any, ...]:
        """Payload of the timestamp reply after the oid: the bare
        timestamp."""
        return (state.timestamp.ts,)

    def _on_read(self, message: Message) -> None:
        oid = self._request_oid(message)
        if oid is None:
            return
        state = self.register_state(message.tag)
        if self._listen(state, oid, message.sender):
            self._read_reply(message.sender, message.tag, oid, state)

    def _listen(self, state: Any, oid: str, reader: PartyId) -> bool:
        """Register ``reader`` as a listener; whether to reply at all."""
        if state.listeners.knows(oid):
            return False  # duplicate read or already completed: stay silent
        # At the §3.5 capacity bound the registration fails; the reader
        # still gets one reply but no forwarding of later writes.
        state.listeners.add(oid, state.timestamp, reader)
        return True

    def _read_reply(self, reader: PartyId, tag: str, oid: str,
                    state: Any) -> None:
        """Answer a read with the adopted version."""
        self._send_version(reader, tag, oid, *self._version(state))

    def _on_read_complete(self, message: Message) -> None:
        oid = self._request_oid(message)
        if oid is not None:
            self.register_state(message.tag).listeners.retire(oid)

    def _forward(self, tag: str, state: Any, timestamp: Timestamp,
                 version: Tuple[Any, ...]) -> None:
        """Send an accepted ``version`` with TIMESTAMP ``timestamp`` to
        every listener registered below it."""
        for listener_oid, listener in state.listeners.below(timestamp):
            self._send_version(listener, tag, listener_oid, *version)

    # -- measurements -------------------------------------------------------

    def _at_rest(self, state: Any) -> Tuple[Any, ...]:
        return self._version(state)

    def register_storage_bytes(self, tag: str) -> int:
        """Storage complexity of one register: what it keeps at rest
        plus the listener set."""
        state = self.register_state(tag)
        return encoded_size(self._at_rest(state)) \
            + state.listeners.storage_bytes()

    def storage_bytes(self) -> int:
        """All register state."""
        return sum(self.register_storage_bytes(tag)
                   for tag in self._registers)
