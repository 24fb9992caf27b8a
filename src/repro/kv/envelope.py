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
bytes).  An entry carries exactly what the receiving host cannot derive
from the channel and the directory: its shard, its inner content, and
its causal identity (``msg_id``, ``depth``, ``cause_id``, allocated from
the *fleet* simulator at send time, so the observability plane records
inner sends/deliveries exactly like unbatched traffic).  Sender and
recipient are not on the wire, just as a plain ``Message`` is not
charged for them: the recipient is the inner process the receiving host
runs for the shard, and the sender is the envelope's channel-
authenticated fleet sender mapped through the shard's placement.

Envelope sizes are composed, not measured: an entry's size follows from
the size of the inner message content it wraps (which the sender has
already computed, once for all ``n`` copies of a broadcast), a per-shard
constant and its three stamps, and an envelope's size from the sum of
its entries' — so counting a ``kv-batch``'s bytes never serializes or
re-walks it.  :meth:`repro.kv.mux.ShardBus.enqueue` does that
arithmetic inline, once per inner send, from the constants below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.common.serialization import (
    composite_size,
    encoded_size,
    int_size,
    register_wire_type,
)

#: Fleet-level tag of every kv envelope message.
KV_TAG = "kv"
#: Message type of the batched envelope.
MSG_KV_BATCH = "kv-batch"


@register_wire_type
@dataclass(slots=True, unsafe_hash=True)
class KvEntry:
    """One inner protocol message riding inside a kv envelope.

    No addresses: the receiving host derives the shard-local sender and
    recipient (see :class:`repro.kv.directory.ShardSpec`) from the
    envelope's channel sender and ``shard``.  ``msg_id`` is allocated
    from the fleet simulator when the entry is buffered, so inner
    message identities are globally unique — protocol ``where``
    predicates memoize validity by ``msg_id`` and must never see two
    different messages share one.  The three stamps stay on the wire
    because the receiver cannot derive them: the entries of one
    envelope come from different inner activations.

    Built per inner send, so slotted and not frozen, like ``Message``
    (no ``object.__setattr__`` per field); immutable by convention.
    """

    shard: int
    tag: str
    mtype: str
    payload: Tuple[Any, ...]
    msg_id: int
    depth: int
    cause_id: Optional[int] = None

    def well_formed(self) -> bool:
        """Structural sanity check applied before unwrapping.

        Envelopes cross the (potentially adversarial) network, so hosts
        validate field types before reconstructing an inner message.
        Integers must be exact ``int``: ``True == 1``, but a ``bool``
        encodes as ``T``, not as the shard or stamp it would pass for.
        """
        cause_id = self.cause_id
        return (type(self.shard) is int
                and isinstance(self.tag, str)
                and isinstance(self.mtype, str)
                and isinstance(self.payload, tuple)
                and type(self.msg_id) is int
                and type(self.depth) is int
                and (cause_id is None or type(cause_id) is int))


# Encoded sizes add up — a tuple or wire type is a header plus its
# parts — which is all the constants below rely on.

#: What a :class:`KvEntry` adds to its content sized as a tuple: its own
#: header, less the tuple's.
_ENTRY_HEADER = composite_size(KvEntry, 0) - composite_size(tuple, 0)
#: ``int_size(v)`` less ``v``'s bytes, ``(v.bit_length() + 8) // 8``.
INT_HEADER_SIZE = int_size(0) - 1
NONE_SIZE = encoded_size(None)
#: ``content_wire_size`` of an envelope with no entries.
_EMPTY_BATCH_SIZE = encoded_size((KV_TAG, MSG_KV_BATCH, ((),)))


def entry_base_size(shard: int) -> int:
    """The part of an entry's size that is constant per shard: its
    header, shard id and two int headers.  Add the content's size, the
    bytes of ``msg_id`` and ``depth``, and ``NONE_SIZE`` or a header and
    the bytes of ``cause_id`` (``ShardBus.enqueue`` does)."""
    return _ENTRY_HEADER + encoded_size(shard) + 2 * INT_HEADER_SIZE


def batch_wire_size(entries_size: int) -> int:
    """``content_wire_size(KV_TAG, MSG_KV_BATCH, (entries,))`` of an
    envelope whose entries' sizes add up to ``entries_size``."""
    return _EMPTY_BATCH_SIZE + entries_size
