"""Client-side register operations and their observable handles.

Definition 1 of the paper specifies the interface of an atomic register
simulation protocol: clients invoke *write* and *read* operations named by
unique operation identifiers; operations terminate by generating output
actions, and servers signal accepted writes with ``write-accepted`` output
actions.  :class:`OperationHandle` captures one operation's lifecycle so
harnesses can build histories and check atomicity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.common.errors import ProtocolError
from repro.common.ids import PartyId
from repro.config import SystemConfig
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

    # -- protocol threads (subclass responsibility) ---------------------------

    def _write_thread(self, handle: OperationHandle):
        raise NotImplementedError

    def _read_thread(self, handle: OperationHandle):
        raise NotImplementedError
