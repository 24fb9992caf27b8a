"""Recording histories from cluster runs for atomicity checking.

Collects the operations of Definition 1 from a simulation: terminating
reads and writes at honest clients (from their operation handles) plus
writes that *took effect* on behalf of Byzantine clients (witnessed by a
``write-accepted`` output action at at least one honest server).

Every harness that judges a register run does so here, once:
:func:`effected_writes` is Definition 1's takes-effect rule and
:func:`run_verdict` classifies a run as ``ok``, ``stalled`` or
``violation``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.cluster import Cluster
from repro.analysis.linearizability import (
    KIND_READ,
    KIND_WRITE,
    HistoryOp,
    check_atomicity,
)
from repro.common.errors import AtomicityViolation, LivenessError
from repro.common.ids import PartyId
from repro.core.register import ByzantineClient, OperationHandle

#: Outcomes of :func:`run_verdict`, strictly worsening.
STATUS_OK = "ok"
STATUS_STALLED = "stalled"
STATUS_VIOLATION = "violation"


def _honest(cluster: Cluster,
            honest_servers: Optional[Iterable[PartyId]]) -> Set[PartyId]:
    if honest_servers is None:
        return {server.pid for server in cluster.servers}
    return set(honest_servers)


def effected_writes(cluster: Cluster, tag: str,
                    honest_servers: Optional[Iterable[PartyId]] = None
                    ) -> Set[str]:
    """Oids of the writes on register ``tag`` that *took effect*: some
    honest server (every server when ``honest_servers`` is ``None``)
    output ``write-accepted`` for them — Definition 1's rule."""
    honest = _honest(cluster, honest_servers)
    return {event.payload[0] for event in cluster.simulator.event_log
            if event.kind == "out" and event.action == "write-accepted"
            and event.tag == tag and event.party in honest
            and event.payload}


def run_verdict(cluster: Cluster, handles: Mapping[str, OperationHandle],
                tag: str,
                honest_servers: Optional[Iterable[PartyId]] = None
                ) -> Tuple[str, str]:
    """Classify a finished run of register ``tag``: ``(status, detail)``.

    Atomicity of whatever history completed is checked first, so a
    safety violation outranks a stall; then the run is ``stalled`` if
    any of ``handles`` (the run's operations by oid) never terminated
    — a wait-freedom violation.  Any error other than
    :class:`AtomicityViolation` from the checker propagates.
    """
    try:
        HistoryRecorder(cluster, tag, honest_servers).check(
            require_done=False)
    except AtomicityViolation as exc:
        return STATUS_VIOLATION, str(exc)
    stuck = sorted(oid for oid, handle in handles.items()
                   if not handle.done)
    if stuck:
        return STATUS_STALLED, (f"{len(stuck)}/{len(handles)} operations "
                                f"never terminated: {', '.join(stuck)}")
    return STATUS_OK, "atomic and wait-free"


class HistoryRecorder:
    """Builds a checkable history for one register of one cluster run.

    ``byzantine_writes`` maps operation identifiers of writes injected by
    Byzantine clients to the value they dispersed; such a write joins the
    history (with no real-time interval) iff some honest server emitted
    ``write-accepted`` for it — the paper's *takes effect* condition.
    """

    def __init__(self, cluster: Cluster, tag: str,
                 honest_servers: Optional[Iterable[PartyId]] = None):
        self._cluster = cluster
        self._tag = tag
        self._byzantine_writes: Dict[str, bytes] = {}
        self._honest_servers = _honest(cluster, honest_servers)

    def record_byzantine_write(self, oid: str, value: bytes) -> None:
        """Declare a write attempt by a Byzantine client (its value must
        be known to the harness so reads of it can be validated)."""
        self._byzantine_writes[oid] = value

    # -- history construction ------------------------------------------------

    def operations(self, require_done: bool = True) -> List[HistoryOp]:
        """The history: honest handles plus effected Byzantine writes.

        With ``require_done`` (the default), an unterminated operation at
        an honest client raises :class:`LivenessError` — wait-freedom says
        every invoked operation must terminate once the run is complete.
        """
        operations: List[HistoryOp] = []
        byzantine_writes = dict(self._byzantine_writes)
        for client in self._cluster.clients:
            for handle in getattr(client, "operations", ()):
                if handle.tag != self._tag:
                    continue
                if isinstance(client, ByzantineClient):
                    if handle.kind == "write":
                        byzantine_writes[handle.oid] = handle.value
                    continue
                if not handle.done:
                    if require_done:
                        raise LivenessError(
                            f"operation {handle.oid} at {handle.client} "
                            f"did not terminate")
                    continue
                operations.append(self._from_handle(handle))
        effected = effected_writes(self._cluster, self._tag,
                                   self._honest_servers)
        for oid, value in byzantine_writes.items():
            if oid in effected:
                operations.append(HistoryOp(
                    kind=KIND_WRITE, oid=oid, value=value))
        return operations

    @staticmethod
    def _from_handle(handle: OperationHandle) -> HistoryOp:
        if handle.kind == "write":
            return HistoryOp(kind=KIND_WRITE, oid=handle.oid,
                             value=handle.value,
                             invoke=handle.invoke_time,
                             complete=handle.complete_time)
        return HistoryOp(kind=KIND_READ, oid=handle.oid,
                         value=handle.result, invoke=handle.invoke_time,
                         complete=handle.complete_time)

    # -- one-call check -----------------------------------------------------------

    def check(self, initial_value: bytes = b"",
              require_done: bool = True) -> List[str]:
        """Assert atomicity of the recorded history; returns the witness
        linearization (see :func:`check_atomicity`)."""
        return check_atomicity(self.operations(require_done=require_done),
                               initial_value=initial_value)
