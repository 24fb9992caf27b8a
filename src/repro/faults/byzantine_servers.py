"""Byzantine server behaviours.

Corrupted servers run arbitrary code but hold only their own key material
and channels — modeled here as behaviour mixins in front of the honest
server classes (a corrupted party starts from the honest code and
deviates), derived by :func:`byzantine`.  Up to ``t`` of these can be
injected into a cluster via ``server_overrides`` or a chaos plan's
``byzantine`` entries; Theorem 2 says every experiment below must leave
liveness and atomicity intact.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Tuple

from repro.baselines.martin import MartinServer
from repro.common.ids import PartyId
from repro.config import SystemConfig
from repro.core.atomic import AtomicServer
from repro.core.atomic_md import AtomicMdServer
from repro.core.atomic_ns import AtomicNSServer
from repro.core.timestamps import INITIAL_TIMESTAMP, Timestamp
from repro.faults.variants import named_variant
from repro.net.message import Message
from repro.net.process import Process

#: Timestamp offset used by inflation attacks (far beyond any write count).
INFLATION = 10 ** 12


class CrashServer(Process):
    """A server that is silent from the start (crash/omission faults are a
    special case of Byzantine faults)."""

    def __init__(self, pid: PartyId, config: SystemConfig,
                 initial_value: bytes = b""):
        super().__init__(pid)
        self.config = config

    def receive(self, message: Message) -> None:
        pass  # delivered, never read


class Inflator:
    """Reports absurdly large timestamps in its ``ts`` replies.

    Against Protocol Atomic and SBQ-L this *succeeds* in making honest
    writers skip timestamp values (the attack motivating Section 3.4):
    the writer takes the maximum of its replies and one lying server
    controls the maximum.  Against AtomicNS the rest of the honest reply
    — the stored threshold signature — goes out unchanged; it verifies
    only for the stored timestamp, so honest writers discard the reply
    and non-skipping holds.
    """

    def _ts_reply(self, state: Any) -> Tuple[Any, ...]:
        ts, *rest = super()._ts_reply(state)
        return (ts + INFLATION, *rest)


class EquivocatingReader:
    """Serves garbage ``value`` messages to readers: corrupted blocks under
    the real commitment and fabricated commitments with huge timestamps.

    Readers must discard both (block validation, quorum grouping); reads
    terminate via the ``n - t`` honest servers.
    """

    def _listen(self, state: Any, oid: str, reader: PartyId) -> bool:
        return True  # registers no listener: answers every read request

    def _read_reply(self, reader: PartyId, tag: str, oid: str,
                    state: Any) -> None:
        corrupted = bytes(byte ^ 0xFF for byte in state.block) or b"\x00"
        self._send_version(reader, tag, oid, state.commitment, corrupted,
                           state.witness, state.timestamp)
        bogus = Timestamp(state.timestamp.ts + INFLATION, "bogus")
        self._send_version(reader, tag, oid, state.commitment, state.block,
                           state.witness, bogus)


class StaleReader:
    """Answers reads with the initial value forever (stale replies).

    A single stale server cannot form a quorum group, so readers still
    return fresh values."""

    def _read_reply(self, reader: PartyId, tag: str, oid: str,
                    state: Any) -> None:
        # Reply with whatever this server held at initialization.
        self._send_version(reader, tag, oid, *self._initial_block(),
                           INITIAL_TIMESTAMP)


class AvidSpammer:
    """On top of otherwise-honest behaviour, floods the dispersal substrate
    with invalid echoes and readys, once for every instance it hears about.

    Tests robustness of the AVID quorum logic: invalid blocks are dropped
    at verification, and ``2t + 1`` readys for a fabricated commitment can
    never be reached with only ``t`` spammers."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._rng = random.Random(self.pid.index)
        self._spammed = set()
        self.on("avid-send", self._spam)
        self.on("avid-echo", self._spam)

    def _spam(self, message: Message) -> None:
        if message.tag in self._spammed:
            return  # its own fake echoes come back too: spam only once
        self._spammed.add(message.tag)
        garbage = bytes(self._rng.getrandbits(8) for _ in range(8))
        fake_commitment = tuple(
            bytes(self._rng.getrandbits(8) for _ in range(32))
            for _ in range(self.config.n))
        client = message.payload[1] if len(message.payload) > 1 and \
            isinstance(message.payload[1], PartyId) else self.pid
        self.send_to_servers(message.tag, "avid-echo", fake_commitment,
                             client, garbage, None)
        self.send_to_servers(message.tag, "avid-ready", fake_commitment,
                             client, garbage, None)


class CorruptBlock:
    """AtomicMd server whose data plane serves corrupted blocks.

    Metadata behaviour stays honest (it joins quorums and keeps reads
    live), but every ``md-meta`` it sends carries its block with the
    bytes flipped, so the reader's verification against the
    quorum-agreed cross-checksum fails and the read takes another
    agreeing server's block instead.  With ``k <= n - 2t`` honest
    servers inside every agreeing quorum, reads still return the
    correct value.
    """

    def _send_version(self, reader: PartyId, tag: str, oid: str,
                      commitment: Any, timestamp: Timestamp, proof: bytes,
                      block: bytes, witness: Any) -> None:
        corrupted = bytes(byte ^ 0xFF for byte in block) or b"\x00"
        super()._send_version(reader, tag, oid, commitment, timestamp,
                              proof, corrupted, witness)


class MissingBlock:
    """AtomicMd server that never sends its block.

    Pure omission on the data plane: every ``md-meta`` carries honest
    metadata and no block, so it counts toward the reader's agreeing
    quorum but never toward the ``k`` blocks a read decodes, and it is
    no verification failure.
    """

    def _send_version(self, reader: PartyId, tag: str, oid: str,
                      commitment: Any, timestamp: Timestamp, proof: bytes,
                      block: bytes, witness: Any) -> None:
        super()._send_version(reader, tag, oid, commitment, timestamp,
                              proof, None, None)


class StaleMetadata:
    """AtomicMd server answering revalidation probes with the initial
    TIMESTAMP forever (stale metadata).

    It cannot make a session serve a stale cache entry: revalidation
    succeeds only when the *maximum* over ``n - t`` replies equals the
    cached TIMESTAMP, and any such quorum shares an honest server with
    the metadata quorum of every completed write — the honest reply
    keeps the maximum at the true freshness, so one understating liar
    changes nothing.  Nor can it stall revalidation: the quorum fills
    from the ``n - t`` honest servers with or without it.
    """

    def _valid_reply(self, state: Any) -> Timestamp:
        return INITIAL_TIMESTAMP


class ForgedMetadata:
    """AtomicMd server forging an inflated TIMESTAMP at revalidation.

    The lie *raises* the quorum maximum above the cached TIMESTAMP, so
    every revalidation round it participates in reports a mismatch and
    the session falls back to a full protocol read — which the honest
    quorum answers correctly.  Safety is untouched; the attack can only
    tax performance by making the cache useless, never serve a wrong
    value (the forged TIMESTAMP names no decodable version).
    """

    def _valid_reply(self, state: Any) -> Timestamp:
        return Timestamp(state.timestamp.ts + INFLATION, "forged")


#: The Byzantine behaviours a :class:`repro.chaos.plan.ByzantineSpec`
#: names: ``name -> (mixin, honest classes it deviates from)``.  A
#: behaviour applies to a server class that subclasses one of them
#: (:func:`byzantine`); churn campaigns sweep malicious — not just
#: crashed — members through this table.
BYZANTINE_BEHAVIOURS: Dict[str, Tuple[type, Tuple[type, ...]]] = {
    "inflate-ts": (Inflator, (AtomicServer, MartinServer)),
    "equivocate-read": (EquivocatingReader, (AtomicServer,)),
    "stale-read": (StaleReader, (AtomicServer,)),
    "avid-spam": (AvidSpammer, (AtomicServer,)),
    "corrupt-block": (CorruptBlock, (AtomicMdServer,)),
    "missing-block": (MissingBlock, (AtomicMdServer,)),
    "stale-meta": (StaleMetadata, (AtomicMdServer,)),
    "forged-meta": (ForgedMetadata, (AtomicMdServer,)),
}


def byzantine(server_cls: type, behaviour: str) -> type:
    """``server_cls`` running the named Byzantine ``behaviour``
    (:func:`~repro.faults.variants.named_variant`)."""
    return named_variant(BYZANTINE_BEHAVIOURS, "byzantine behaviour",
                         server_cls, behaviour)


InflatorServer = byzantine(AtomicServer, "inflate-ts")
InflatorNSServer = byzantine(AtomicNSServer, "inflate-ts")
MartinInflatorServer = byzantine(MartinServer, "inflate-ts")
EquivocatingReaderServer = byzantine(AtomicServer, "equivocate-read")
StaleReaderServer = byzantine(AtomicServer, "stale-read")
AvidSpammerServer = byzantine(AtomicServer, "avid-spam")
CorruptBlockMdServer = byzantine(AtomicMdServer, "corrupt-block")
MissingBlockMdServer = byzantine(AtomicMdServer, "missing-block")
StaleMetadataMdServer = byzantine(AtomicMdServer, "stale-meta")
ForgedMetadataMdServer = byzantine(AtomicMdServer, "forged-meta")
