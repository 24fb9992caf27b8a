"""Multiplexing wire envelope for the key-value plane.

Inner protocol messages (timestamp queries, disperse blocks, rbc echos,
…) never travel alone: each host buffers every inner message produced
during one activation and flushes them as a single fleet-level message
``(kv, kv-batch, (entries,))`` per destination.  One simulator delivery
therefore carries many inner protocol steps — the batching lever that
lets shard count translate into aggregate ops/tick.

:class:`KvEntry` is a registered wire type so envelopes round-trip
through the canonical encoding like every other payload (chaos
corruption, wire-size accounting, and reproducer digests all see real
bytes).  Entries carry their own causal identity (``msg_id``, ``depth``,
``cause_id``, allocated from the *fleet* simulator at send time) so the
observability plane records inner sends/deliveries exactly like
unbatched traffic.

Envelope sizes are composed, not measured: an entry's size follows from
the size of the inner message content it wraps (which the sender has
already computed, once for all ``n`` copies of a broadcast) plus its few
routing fields, and an envelope's size from the sum of its entries' —
so counting a ``kv-batch``'s bytes never serializes or re-walks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.common.ids import PartyId
from repro.common.serialization import (
    composite_size,
    encoded_size,
    register_wire_type,
)

#: Fleet-level tag of every kv envelope message.
KV_TAG = "kv"
#: Message type of the batched envelope.
MSG_KV_BATCH = "kv-batch"


@register_wire_type
@dataclass(frozen=True)
class KvEntry:
    """One inner protocol message riding inside a kv envelope.

    ``sender``/``recipient`` are *shard-local* identities (see
    :class:`repro.kv.directory.ShardSpec`); the hosting fleet parties are
    recovered from the shard placement at unwrap time.  ``msg_id`` is
    allocated from the fleet simulator when the entry is buffered, so
    inner message identities are globally unique — protocol ``where``
    predicates memoize validity by ``msg_id`` and must never see two
    different messages share one.
    """

    shard: int
    tag: str
    mtype: str
    sender: PartyId
    recipient: PartyId
    payload: Tuple[Any, ...]
    msg_id: int
    depth: int
    cause_id: Optional[int] = None

    def well_formed(self) -> bool:
        """Structural sanity check applied before unwrapping.

        Envelopes cross the (potentially adversarial) network, so hosts
        validate field types before reconstructing an inner message.
        """
        return (isinstance(self.shard, int)
                and isinstance(self.tag, str)
                and isinstance(self.mtype, str)
                and isinstance(self.sender, PartyId)
                and isinstance(self.recipient, PartyId)
                and isinstance(self.payload, tuple)
                and isinstance(self.msg_id, int)
                and isinstance(self.depth, int)
                and (self.cause_id is None or isinstance(self.cause_id, int)))


# Encoded sizes add up — a tuple or wire type is a header plus its
# parts — which is all the two functions below rely on.

#: What a :class:`KvEntry` adds to its routing fields and its content
#: when each of the two is sized as a tuple: its own header, less theirs.
_ENTRY_OVERHEAD = composite_size(KvEntry, 0) - 2 * composite_size(tuple, 0)
#: ``content_wire_size`` of an envelope with no entries.
_EMPTY_BATCH_SIZE = encoded_size((KV_TAG, MSG_KV_BATCH, ((),)))


def entry_wire_size(entry: KvEntry, content_size: int) -> int:
    """Encoded size of ``entry``, given ``content_size``: the
    ``content_wire_size`` of the ``(tag, mtype, payload)`` it wraps."""
    return _ENTRY_OVERHEAD + content_size + encoded_size(
        (entry.shard, entry.sender, entry.recipient, entry.msg_id,
         entry.depth, entry.cause_id))


def batch_wire_size(entries_size: int) -> int:
    """``content_wire_size(KV_TAG, MSG_KV_BATCH, (entries,))`` of an
    envelope whose entries' sizes add up to ``entries_size``."""
    return _EMPTY_BATCH_SIZE + entries_size
