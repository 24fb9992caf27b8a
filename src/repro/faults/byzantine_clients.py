"""Byzantine client behaviours.

The paper tolerates an *arbitrary number* of corrupted clients colluding
with corrupted servers.  A corrupted client starts from the honest code
and deviates at one step of its write: each attack is a mixin over one
write-path hook of an honest client (its arguments are class
attributes), listed in :data:`BYZANTINE_CLIENTS` and derived in front of
the deployment's own client class by :func:`byzantine_client`.  Like any
client it is driven by input actions (``invoke_write``); harnesses check
that honest clients' views stay atomic, live, and — for AtomicNS — that
timestamps stay non-skipping.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.avid.disperse import send_blocks
from repro.baselines.goodson import GoodsonClient
from repro.baselines.martin import MSG_STORE, MartinClient
from repro.broadcast.reliable import MSG_SEND as RBC_SEND
from repro.core.atomic import AtomicClient, disp_tag, rbc_tag
from repro.core.atomic_ns import AtomicNSClient
from repro.core.register import ByzantineClient
from repro.core.timestamps import Timestamp
from repro.erasure.coder import ErasureCoder
from repro.faults.variants import named_variant

#: Timestamp value a skipping writer jumps to.
SKIP_TARGET = 10 ** 12


def _interleave(coder: ErasureCoder, values: Sequence[bytes]) -> List[bytes]:
    """Server ``j``'s block of ``values[j % len(values)]``, for each
    ``j``: a vector that is the encoding of no value."""
    encodings = [coder.encode(value) for value in values]
    return [encodings[j % len(encodings)][j] for j in range(coder.n)]


class Skipping(ByzantineClient):
    """Writes a (consistent) value but broadcasts an enormous timestamp.

    Against Protocol Atomic the write takes effect with timestamp
    ``SKIP_TARGET + 1`` — timestamps skip.  Against Protocol AtomicNS
    the client has no valid threshold signature on ``SKIP_TARGET``, only
    the one its timestamp round returned, so no honest server ever
    accepts the write.
    """

    def _choose_broadcast_value(self, tag: str, replies) -> Any:
        honest = super()._choose_broadcast_value(tag, replies)
        if isinstance(honest, tuple):  # AtomicNS: a [ts, σ] pair
            return (SKIP_TARGET, honest[1])
        return SKIP_TARGET


class Replaying(ByzantineClient):
    """The strongest timestamp attack available against AtomicNS: replay
    a *valid* ``[ts, σ]`` pair — the stalest its timestamp round saw —
    instead of the largest.  The accepted timestamp is then ``ts + 1 <=``
    (number of writes so far) ``+ 1`` — non-skipping by Lemma 7."""

    def _choose_broadcast_value(self, tag: str, replies) -> Any:
        stalest = min(replies, key=lambda message: message.payload[1])
        return (stalest.payload[1], stalest.payload[2])


class Inconsistent(ByzantineClient):
    """Attempts to store blocks that are *not* the encoding of any value.

    The blocks of the written value and of the ``DECOYS`` interleave.
    The commitment honestly commits to the garbage blocks (each block
    verifies individually), but the vector fails the servers' decode/
    re-encode consistency check, so no honest server ever sends ``ready``
    — the dispersal never completes and the write never takes effect.
    This is the attack that read-time-validation designs (Goodson et
    al.) pay for at every subsequent read.
    """

    DECOYS: Tuple[bytes, ...] = (b"decoy-A" * 8, b"decoy-B" * 8)

    def _disperse(self, tag: str, oid: str, value: bytes) -> None:
        blocks = _interleave(self.config.coder, (value, *self.DECOYS))
        send_blocks(self, disp_tag(tag, oid), blocks, self.config)


class Half(ByzantineClient):
    """Sends the dispersal to only ``COUNT`` servers (``None``: ``t + 1``)
    while broadcasting the timestamp properly.

    If no honest server completes, the write simply never takes effect; if
    one does, AVID agreement guarantees all honest servers eventually
    complete, so reads never block on a half-written value.
    """

    COUNT = None

    def _disperse(self, tag: str, oid: str, value: bytes) -> None:
        send_blocks(self, disp_tag(tag, oid), self.config.coder.encode(value),
                    self.config, reach=self.COUNT or self.config.t + 1)


class EquivocatingRbc(ByzantineClient):
    """Sends different ``TIMESTAMPS`` of the same broadcast instance to
    different servers.  Reliable-broadcast agreement guarantees honest
    servers never r-deliver different values."""

    TIMESTAMPS: Tuple[int, ...] = (5, 9)

    def _broadcast(self, tag: str, oid: str, value: Any) -> None:
        instance = rbc_tag(tag, oid)
        for index, server in enumerate(self.simulator.server_pids):
            self.send(server, instance, RBC_SEND,
                      self.TIMESTAMPS[index % len(self.TIMESTAMPS)])


class StoreSkipping(ByzantineClient):
    """Against a replication register, which authenticates no client:
    store the written value under the enormous timestamp ``SKIP_TARGET``
    directly, whatever the timestamp round returned."""

    def _choose_timestamp(self, descending_ts) -> int:
        return SKIP_TARGET - 1  # the write stores its successor


class SplitBrain(StoreSkipping):
    """The Byzantine-client attack on replication-based SBQ-L: store a
    *different* value at every server (the written one and the
    ``DECOYS``, in turn) under one timestamp, ``SKIP_TARGET``.

    No read quorum can ever assemble ``n - t`` matching replies for that
    timestamp — the register is wedged for any read that must return it.
    Protocol Atomic's verifiable dispersal makes this attack unmountable.
    """

    DECOYS: Tuple[bytes, ...] = (b"split-1", b"split-2", b"split-3")

    def _store(self, tag: str, oid: str, timestamp: Timestamp,
               value: bytes) -> None:
        values = (value, *self.DECOYS)
        for index, server in enumerate(self.simulator.server_pids):
            self.send(server, tag, MSG_STORE, oid, timestamp,
                      values[index % len(values)])


class Poisonous(ByzantineClient):
    """Writes poisonous versions to a Goodson et al. deployment: fragments
    of the written value and the ``DECOYS``, interleaved, whose
    cross-checksum matches each fragment but no value's encoding.

    Servers store them unquestioningly (no write-time validation); every
    subsequent read must fetch, attempt to decode, fail the re-encoding
    check, and roll back — one round trip per poisonous version
    (experiment F6)."""

    DECOYS: Tuple[bytes, ...] = (b"poison" * 8,)

    def _fragments(self, value: bytes) -> list:
        return _interleave(self._coder, (value, *self.DECOYS))


#: The client attacks: ``name -> (mixin, honest client classes it
#: deviates from)``; :func:`byzantine_client` derives one on a subclass.
BYZANTINE_CLIENTS: Dict[str, Tuple[type, Tuple[type, ...]]] = {
    "skip-ts": (Skipping, (AtomicClient,)),
    "replay-ts": (Replaying, (AtomicNSClient,)),
    "inconsistent-dispersal": (Inconsistent, (AtomicClient,)),
    "half-dispersal": (Half, (AtomicClient,)),
    "equivocate-rbc": (EquivocatingRbc, (AtomicClient,)),
    "skip-store": (StoreSkipping, (MartinClient,)),
    "split-brain": (SplitBrain, (MartinClient,)),
    "poison": (Poisonous, (GoodsonClient,)),
}


def byzantine_client(client_cls: type, attack: str) -> type:
    """``client_cls`` mounting the named client ``attack``
    (:func:`~repro.faults.variants.named_variant`)."""
    return named_variant(BYZANTINE_CLIENTS, "byzantine client attack",
                         client_cls, attack)
