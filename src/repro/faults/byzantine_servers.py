"""Byzantine server behaviours.

Corrupted servers run arbitrary code but hold only their own key material
and channels — modeled here as subclasses of the honest server classes (a
corrupted party starts from the honest code and deviates).  Up to ``t`` of
these can be injected into a cluster via ``server_overrides``; Theorem 2
says every experiment below must leave liveness and atomicity intact.
"""

from __future__ import annotations

import random
from typing import Any, Tuple

from repro.baselines.martin import MartinServer
from repro.common.ids import PartyId
from repro.config import SystemConfig
from repro.core.atomic import MSG_VALUE, AtomicServer, _RegisterState
from repro.core.atomic_md import MSG_VALID, AtomicMdServer
from repro.core.atomic_ns import AtomicNSServer
from repro.core.timestamps import INITIAL_TIMESTAMP, Timestamp
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


class InflatorServer(AtomicServer):
    """Protocol Atomic server that reports absurdly large timestamps.

    Against Protocol Atomic this *succeeds* in making honest writers skip
    timestamp values (the attack motivating Section 3.4): the writer takes
    the maximum of its replies and one lying server controls the maximum.
    """

    def _ts_reply(self, state: _RegisterState) -> Tuple[Any, ...]:
        return (state.timestamp.ts + INFLATION,)


class InflatorNSServer(AtomicNSServer):
    """Protocol AtomicNS server attempting the same inflation.

    It cannot forge a threshold signature on the inflated value, so it
    replays its stored signature — which verifies only for the stored
    timestamp, so honest writers discard the reply and non-skipping holds.
    """

    def _ts_reply(self, state: _RegisterState) -> Tuple[Any, ...]:
        return (state.timestamp.ts + INFLATION, state.signature)


class MartinInflatorServer(MartinServer):
    """SBQ-L server reporting inflated timestamps (always succeeds —
    there is no authentication to stop it)."""

    def _on_get_ts(self, message: Message) -> None:
        if len(message.payload) != 1:
            return
        (oid,) = message.payload
        state = self.register_state(message.tag)
        self.send(message.sender, message.tag, "ts", oid,
                  state.timestamp.ts + INFLATION)


class EquivocatingReaderServer(AtomicServer):
    """Serves garbage ``value`` messages to readers: corrupted blocks under
    the real commitment and fabricated commitments with huge timestamps.

    Readers must discard both (block validation, quorum grouping); reads
    terminate via the ``n - t`` honest servers.
    """

    def _on_read(self, message: Message) -> None:
        if len(message.payload) != 1:
            return
        (oid,) = message.payload
        state = self.register_state(message.tag)
        corrupted = bytes(byte ^ 0xFF for byte in state.block) or b"\x00"
        self.send(message.sender, message.tag, MSG_VALUE, oid,
                  state.commitment, corrupted, state.witness,
                  state.timestamp)
        bogus = Timestamp(state.timestamp.ts + INFLATION, "bogus")
        self.send(message.sender, message.tag, MSG_VALUE, oid,
                  state.commitment, state.block, state.witness, bogus)


class StaleReaderServer(AtomicServer):
    """Answers reads with the initial value forever (stale replies).

    A single stale server cannot form a quorum group, so readers still
    return fresh values."""

    def _on_read(self, message: Message) -> None:
        if len(message.payload) != 1:
            return
        (oid,) = message.payload
        state = self.register_state(message.tag)
        if not state.listeners.add(oid, state.timestamp, message.sender):
            return
        # Reply with whatever this server held at initialization.
        blocks = self.config.coder.encode(b"")
        commitment, witnesses = self.config.commitment_scheme.commit(blocks)
        index = self.pid.index
        self.send(message.sender, message.tag, MSG_VALUE, oid, commitment,
                  blocks[index - 1], witnesses[index - 1],
                  INITIAL_TIMESTAMP)


class CorruptBlockMdServer(AtomicMdServer):
    """AtomicMd server whose data plane serves corrupted blocks.

    Metadata behaviour stays honest (it joins quorums and keeps reads
    live), but every ``md-meta`` it sends carries its block with the
    bytes flipped, so the reader's verification against the
    quorum-agreed cross-checksum fails and the read takes another
    agreeing server's block instead.  With ``k <= n - 2t`` honest
    servers inside every agreeing quorum, reads still return the
    correct value.
    """

    def _send_meta(self, reader: PartyId, tag: str, oid: str,
                   commitment: Any, timestamp: Timestamp, proof: bytes,
                   block: bytes, witness: Any) -> None:
        corrupted = bytes(byte ^ 0xFF for byte in block) or b"\x00"
        super()._send_meta(reader, tag, oid, commitment, timestamp, proof,
                           corrupted, witness)


class MissingBlockMdServer(AtomicMdServer):
    """AtomicMd server that never sends its block.

    Pure omission on the data plane: every ``md-meta`` carries honest
    metadata and no block, so it counts toward the reader's agreeing
    quorum but never toward the ``k`` blocks a read decodes, and it is
    no verification failure.
    """

    def _send_meta(self, reader: PartyId, tag: str, oid: str,
                   commitment: Any, timestamp: Timestamp, proof: bytes,
                   block: bytes, witness: Any) -> None:
        super()._send_meta(reader, tag, oid, commitment, timestamp, proof,
                           None, None)


class StaleMetadataMdServer(AtomicMdServer):
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

    def _on_validate(self, message: Message) -> None:
        if len(message.payload) != 1:
            return
        (oid,) = message.payload
        if not isinstance(oid, str):
            return
        self.send(message.sender, message.tag, MSG_VALID, oid,
                  INITIAL_TIMESTAMP)


class ForgedMetadataMdServer(AtomicMdServer):
    """AtomicMd server forging an inflated TIMESTAMP at revalidation.

    The lie *raises* the quorum maximum above the cached TIMESTAMP, so
    every revalidation round it participates in reports a mismatch and
    the session falls back to a full protocol read — which the honest
    quorum answers correctly.  Safety is untouched; the attack can only
    tax performance by making the cache useless, never serve a wrong
    value (the forged TIMESTAMP names no decodable version).
    """

    def _on_validate(self, message: Message) -> None:
        if len(message.payload) != 1:
            return
        (oid,) = message.payload
        if not isinstance(oid, str):
            return
        state = self.register_state(message.tag)
        forged = Timestamp(state.timestamp.ts + INFLATION, "forged")
        self.send(message.sender, message.tag, MSG_VALID, oid, forged)


#: ``FaultPlan``-selectable Byzantine behaviours for the metadata/data
#: separated protocol (the kv plane's default).  Keys are the names a
#: :class:`repro.chaos.plan.ByzantineSpec` (and ``kv-bench
#: --byzantine``) accepts; values are AtomicMd server subclasses that
#: deviate from the honest code.  Churn campaigns use this registry to
#: sweep malicious — not just crashed — members.
BYZANTINE_BEHAVIOURS = {
    "corrupt-block": CorruptBlockMdServer,
    "missing-block": MissingBlockMdServer,
    "stale-meta": StaleMetadataMdServer,
    "forged-meta": ForgedMetadataMdServer,
}


class AvidSpammerServer(AtomicServer):
    """On top of otherwise-honest behaviour, floods the dispersal substrate
    with invalid echoes and readys for every instance it hears about.

    Tests robustness of the AVID quorum logic: invalid blocks are dropped
    at verification, and ``2t + 1`` readys for a fabricated commitment can
    never be reached with only ``t`` spammers."""

    def __init__(self, pid: PartyId, config: SystemConfig,
                 initial_value: bytes = b""):
        super().__init__(pid, config, initial_value)
        self._rng = random.Random(pid.index)
        self.on("avid-send", self._spam)
        self.on("avid-echo", self._spam)

    def _spam(self, message: Message) -> None:
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
