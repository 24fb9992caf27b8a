"""Repair operations: read-reconstruct-redisperse for AtomicMd registers.

A *repair* restores the redundancy of one register at one server
without advancing logical time.  The repair client runs the read
protocol's round trip — an agreeing quorum and ``k`` of its inline
blocks verified (reusing
:meth:`~repro.core.atomic_md.AtomicMdClient._read_condition`, which
skips missing and corrupted blocks) — decodes the value, re-encodes
it, and pushes the *target server's own* block back under
the version's original TIMESTAMP and proof of writing via
``md-repair``.  The server accepts exactly as it would an
``md-store``/``md-commit`` join — block verified against the carried
cross-checksum — and acks with ``md-repair-ack``.

Repair is **not** a register operation of Definition 1: it never enters
operation histories and never mints a TIMESTAMP.  Atomicity is
unaffected because the repaired version is byte-identical to one the
metadata quorum already vouched for; the re-encode is guarded by
re-deriving the cross-checksum and requiring it to equal the
quorum-agreed one, so a decode from inconsistently-dispersed blocks
(the poisonous-write vector AtomicMd tolerates from Byzantine writers)
surfaces as ``repair-failed`` instead of installing a forgery.

Clients are crash-only in this model, so the repair plane — like the
write plane — trusts the *repairer* to name versions honestly; see
docs/ROBUSTNESS.md for why repair authority stays with the operator.
"""

from __future__ import annotations

from repro.common.ids import server_id
from repro.common.serialization import encode
from repro.core.atomic_md import (
    MSG_READ,
    MSG_READ_COMPLETE,
    MSG_REPAIR,
    MSG_REPAIR_ACK,
    AtomicMdClient,
)
from repro.core.register import OperationHandle

#: Handle kind for repair rounds (never enters operation histories).
KIND_REPAIR = "repair"


class RepairClient(AtomicMdClient):
    """An AtomicMd client that can additionally run repair rounds.

    Used by :class:`repro.repair.coordinator.RepairCoordinator` as the
    inner client of a dedicated :class:`repro.kv.mux.KvClientHost`, so
    repair traffic rides the same envelope batching as live client
    load and is rate-limited by the coordinator's admission budget.
    """

    def invoke_repair(self, tag: str, oid: str,
                      target_index: int) -> OperationHandle:
        """Start a repair of ``tag`` at shard-local server
        ``target_index``; the handle completes once the target acks the
        re-dispersed block (``handle.repair_failed`` is set instead
        when the quorum-agreed version could not be faithfully
        re-encoded)."""
        handle = self._new_handle(KIND_REPAIR, tag, oid)
        self.record_input(tag, "repair", oid)
        handle.invoke_time = self.simulator.time
        self.start_thread(self._repair_thread(handle, target_index))
        return handle

    def _repair_thread(self, handle: OperationHandle, target_index: int):
        tag, oid = handle.tag, handle.oid
        self.send_to_servers(tag, MSG_READ, oid)
        timestamp, commitment, proof, pairs = \
            yield self._read_condition(tag, oid)
        self.send_to_servers(tag, MSG_READ_COMPLETE, oid)
        value = self.config.coder.decode(pairs)
        blocks = self.config.coder.encode(value)
        recommit, witnesses = \
            self.config.commitment_scheme.commit(blocks)
        if encode(recommit) != encode(commitment):
            # The decode came from an inconsistent dispersal (Byzantine
            # writer): re-dispersing would install blocks the original
            # cross-checksum never vouched for.  Fail loudly instead.
            handle.repair_failed = True
            self.output(tag, "repair-failed", oid, timestamp)
            self._complete(handle, timestamp=timestamp)
            return
        target = server_id(target_index)
        self.send(target, tag, MSG_REPAIR, oid, timestamp, commitment,
                  blocks[target_index - 1], witnesses[target_index - 1],
                  proof)
        # Not a quorum: repair targets exactly one (trusted-to-be-fresh)
        # server, so a single matching ack from *that* sender completes.
        yield self.condition_quorum(
            tag, MSG_REPAIR_ACK, 1,  # lint: disable=quorum-literal
            oid=oid,
            where=lambda m: (m.sender == target
                             and len(m.payload) == 2
                             and m.payload[1] == timestamp))
        self.output(tag, "repair", oid, timestamp)
        self._complete(handle, timestamp=timestamp)
