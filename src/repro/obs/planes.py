"""Metadata-plane vs data-plane traffic attribution.

The metadata/data separation (Protocol AtomicMd, following MDStore and
PoWerStore) is a claim about *which bytes move*: timestamps and
cross-checksums are tiny and may cross full quorums, while erasure-coded
blocks are bulky and should touch as few servers as possible.  This
module classifies every wire message into one of the two planes so the
bench harness, the health monitor, and ``repro monitor`` can report the
split per run and per operation — for every protocol, not just AtomicMd
(Protocol Atomic's AVID echo storm is exactly the data-plane cost the
separation removes).

Classification is by message type: the block-carrying types of each
substrate are the data plane — a reply that carries a block beside its
metadata included — and every other protocol message (timestamp
queries, acks, reliable-broadcast gossip of timestamps, AtomicMd's
store-acks, commits and revalidation replies) is metadata.  Transport
envelopes (``kv-batch``) are excluded entirely — their inner messages
are traced individually, so counting the envelope too would
double-book every byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.avid.disperse import MESSAGE_TYPES as _AVID_TYPES
from repro.core.atomic_md import DATA_PLANE_TYPES as _MD_DATA_TYPES
from repro.obs.recorder import WIRE_BYTES, MessageRecord, TraceRecorder
from repro.obs.spans import completed_operation_records

PLANE_METADATA = "metadata"
PLANE_DATA = "data"

#: Block-carrying message types across all protocols: the AVID dispersal
#: substrate (send/echo/ready/retrieve all move blocks), AtomicMd's
#: point-to-point store, read reply ``md-meta`` and repair, the classic
#: read reply ``value`` (commitment + block + witness), and the
#: unauthenticated baselines' ``store`` writes.
DATA_PLANE_MTYPES: FrozenSet[str] = frozenset(
    (*_AVID_TYPES, *_MD_DATA_TYPES, "value", "store"))

#: Transport envelopes whose inner messages are traced individually;
#: excluded from plane accounting to avoid double-booking.  The literal
#: mirrors :data:`repro.kv.envelope.MSG_KV_BATCH` — importing it here
#: would cycle ``obs -> kv -> obs``; a test pins the two in sync.
TRANSPORT_MTYPES: FrozenSet[str] = frozenset(("kv-batch",))


def plane_of_mtype(mtype: str) -> str:
    """The plane a message type belongs to (``"data"`` for
    block-carrying types, ``"metadata"`` otherwise); transport envelopes
    still classify as metadata — filter them with
    :data:`TRANSPORT_MTYPES` when accounting."""
    return PLANE_DATA if mtype in DATA_PLANE_MTYPES else PLANE_METADATA


@dataclass
class PlaneTraffic:
    """Message and byte totals split by plane."""

    metadata_messages: int = 0
    metadata_bytes: int = 0
    data_messages: int = 0
    data_bytes: int = 0

    def add(self, record: MessageRecord) -> None:
        """Fold one traced message into the totals (envelopes skipped)."""
        self.observe(record.mtype, record.wire_bytes)

    def observe(self, mtype: str, wire_bytes: int,
                messages: int = 1) -> None:
        """Fold ``messages`` wire messages of ``mtype`` (one by default),
        ``wire_bytes`` in all, into the totals (envelopes skipped)."""
        if mtype in TRANSPORT_MTYPES:
            return
        if mtype in DATA_PLANE_MTYPES:
            self.data_messages += messages
            self.data_bytes += wire_bytes
        else:
            self.metadata_messages += messages
            self.metadata_bytes += wire_bytes

    @property
    def total_bytes(self) -> int:
        """All protocol bytes, both planes."""
        return self.metadata_bytes + self.data_bytes

    def to_json(self) -> Dict[str, int]:
        """The totals as a plain JSON-serializable dictionary."""
        return {
            "metadata_messages": self.metadata_messages,
            "metadata_bytes": self.metadata_bytes,
            "data_messages": self.data_messages,
            "data_bytes": self.data_bytes,
        }


def plane_traffic(recorder: TraceRecorder) -> PlaneTraffic:
    """Whole-run plane totals of every message ``recorder`` was told
    was sent, read off its ``wire.bytes[mtype]`` histograms: one value
    per sent message, as in ``recorder.messages`` (the recorder refuses
    a ``msg_id`` reported twice)."""
    totals = PlaneTraffic()
    registry = recorder.registry
    for name in registry.names():
        if name.startswith(WIRE_BYTES):
            sizes = registry.histogram(name)
            totals.observe(name[len(WIRE_BYTES):-1], sizes.total,
                           sizes.count)
    return totals


def operation_plane_traffic(
        recorder: TraceRecorder,
        records: Optional[Dict[Tuple[str, str],
                               List[MessageRecord]]] = None
        ) -> Dict[str, PlaneTraffic]:
    """Per-operation-kind plane totals (``{"write": ..., "read": ...}``).

    Each *completed* operation's traffic — register-tag messages
    carrying its oid plus all sub-instance traffic — is attributed to
    the operation's kind, so a read-mostly workload shows directly how
    many data-plane bytes its reads move.  ``records`` is
    :func:`~repro.obs.spans.completed_operation_records`, when the
    caller already has it.
    """
    if records is None:
        records = completed_operation_records(recorder)
    totals: Dict[str, PlaneTraffic] = {"write": PlaneTraffic(),
                                       "read": PlaneTraffic()}
    pairs, _, _ = recorder.operations()
    for start, _end in pairs:
        oid = start.payload[0] if start.payload else ""
        bucket = totals.setdefault(start.action, PlaneTraffic())
        for record in records[start.tag, oid]:
            bucket.add(record)
    return totals
