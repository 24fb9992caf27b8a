"""Protocol AtomicNS — atomic register with non-skipping timestamps (Fig 3).

Protocol Atomic lets corrupted clients and servers inflate timestamps
arbitrarily (a denial-of-service vector: polynomially-bounded timestamp
storage can be overflowed).  AtomicNS authenticates every timestamp with an
``(n, t)``-threshold signature on ``[ID, ts]``:

* a ``ts`` reply carries the server's current signature ``sig_c``; the
  writer picks the largest *validly signed* timestamp and r-broadcasts the
  pair ``[ts, σ]``;
* servers accept the broadcast only if ``σ`` verifies; to increment, each
  server signs ``[ID, ts + 1]`` with its key share, exchanges one round of
  ``share`` messages, and combines ``n - t`` (of which ``t + 1`` suffice)
  valid shares into the new signature.

Because honest servers only sign ``ts + 1`` after seeing a valid signature
on ``ts``, no timestamp value can be skipped: a timestamp's value is
bounded by the number of writes that took effect (Lemma 7) — with optimal
resilience ``n > 3t``, improving Bazzi–Ding's ``n > 4t``.  Key management
is minimal: clients hold only the single public key of the service.

The read operation is unchanged from Protocol Atomic.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.common.ids import PartyId
from repro.config import SystemConfig
from repro.core.atomic import AtomicClient, AtomicServer, _RegisterState
from repro.core.timestamps import Timestamp
from repro.crypto.threshold import (
    SignatureShare,
    ThresholdScheme,
    ThresholdSignature,
)
from repro.net.message import Message

MSG_SHARE = "share"


def timestamp_signature_valid(scheme: ThresholdScheme, register_tag: str,
                              ts: Any, signature: Any) -> bool:
    """Check a threshold signature on ``[ID, ts]``.

    The initial timestamp 0 is vouched for by ``⊥`` (``None``) — the paper
    assumes ``⊥`` is a valid signature for 0, avoiding a bootstrap round.
    """
    if not isinstance(ts, int) or ts < 0:
        return False
    if ts == 0 and signature is None:
        return True
    return (isinstance(signature, ThresholdSignature)
            and scheme.verify((register_tag, ts), signature))


class AtomicNSServer(AtomicServer):
    """Server ``P_j`` of Protocol AtomicNS.

    Differs from :class:`AtomicServer` in the write path only: timestamp
    replies carry ``sig_c``, accepted broadcasts must be validly signed,
    and acceptance runs the signature-share exchange round.
    """

    def _ts_reply(self, state: _RegisterState) -> Tuple[Any, ...]:
        return (state.timestamp.ts, state.signature)

    def _process_write(self, register_tag: str, oid: str,
                       writer: PartyId, broadcast_value: Any,
                       state: _RegisterState) -> None:
        """Verify the broadcast ``[ts, σ]`` pair, then run the share round
        (a thread: it waits for ``n - t`` valid shares)."""
        if not (isinstance(broadcast_value, tuple)
                and len(broadcast_value) == 2):
            return
        ts, signature = broadcast_value
        scheme = self.config.threshold_scheme
        if not timestamp_signature_valid(scheme, register_tag, ts,
                                         signature):
            return  # forged or missing signature: never accept this write
        self.start_thread(
            self._share_round(register_tag, oid, writer, state, ts))

    def _share_round(self, register_tag: str, oid: str, writer: PartyId,
                     state: _RegisterState, ts: int):
        scheme = self.config.threshold_scheme
        new_ts = ts + 1
        signed_message = (register_tag, new_ts)
        my_share = scheme.sign(signed_message, self.pid.index)
        self.send_to_servers(register_tag, MSG_SHARE, oid, my_share)
        # Memoize validity verdicts per round (the predicate depends on
        # this round's oid and timestamp, so the cache cannot be shared).
        memo: Dict[int, bool] = {}

        def valid_share(message: Message) -> bool:
            cached = memo.get(message.msg_id)
            if cached is None:
                payload = message.payload
                well_formed = (message.sender.is_server
                               and len(payload) == 2
                               and isinstance(payload[1], SignatureShare)
                               and payload[1].signer
                               == message.sender.index)
                cached = well_formed and scheme.verify_share(
                    signed_message, payload[1])
                if well_formed and not cached:
                    # A shape-correct share that fails verification is a
                    # Byzantine signal; memo keeps it once per message.
                    self.note_verification_failure(register_tag,
                                                   MSG_SHARE,
                                                   message.sender)
                memo[message.msg_id] = cached
            return cached

        share_messages = yield self.condition_quorum(
            register_tag, MSG_SHARE, self.config.quorum, where=valid_share,
            oid=oid)
        signature = scheme.combine(
            signed_message,
            [message.payload[1] for message in share_messages])
        # The round is over: late shares have nothing left to sign.
        self.inbox.retire(register_tag, oid)
        self._accept_write(register_tag, oid, writer,
                           Timestamp(new_ts, oid), state,
                           signature=signature, ack_payload=(new_ts,))


class AtomicNSClient(AtomicClient):
    """Client ``C_i`` of Protocol AtomicNS.

    The write path validates timestamp signatures and broadcasts the
    ``[ts, σ]`` pair; reads are inherited unchanged.
    """

    def _valid_ts_reply(self, tag: str, payload: Tuple[Any, ...]) -> bool:
        if len(payload) != 3:
            return False
        return timestamp_signature_valid(self.config.threshold_scheme, tag,
                                         payload[1], payload[2])

    def _choose_broadcast_value(self, tag: str, replies) -> Any:
        best = max(replies, key=lambda message: message.payload[1])
        return (best.payload[1], best.payload[2])
