"""Threshold common coin (Cachin–Kursawe–Shoup style).

Randomized asynchronous agreement needs a source of shared, unpredictable
randomness.  The classic construction builds it from the same
non-interactive threshold signature scheme AtomicNS already deploys: the
coin for ``(tag, round)`` is a bit of the hash of the unique threshold
signature on that name.  No party can predict it before ``t + 1`` servers
release their shares, all parties compute the same value, and it costs
one message round.

This powers the binary-agreement substrate of the atomic-broadcast
comparator (the alternative register construction Section 3.4 mentions:
"atomic broadcast from the clients to the servers to serialize the
operations").
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.config import SystemConfig
from repro.crypto.hashing import hash_bytes
from repro.crypto.threshold import SignatureShare
from repro.net.message import Message
from repro.net.process import Process

MSG_COIN_SHARE = "coin-share"

#: ready(name, value) — fired once per coin name with the coin bit.
CoinCallback = Callable[[Tuple, int], None]


class CommonCoin:
    """Server-side common-coin component.

    Call :meth:`flip` with a hashable, serializable *name* (e.g.
    ``(tag, round)``); once ``t + 1`` valid shares for that name arrived,
    ``ready(name, bit)`` fires.  Flipping is idempotent, and shares
    arriving before the local flip are buffered by the inbox.
    """

    def __init__(self, process: Process, config: SystemConfig,
                 ready: CoinCallback):
        self._process = process
        self._config = config
        self._ready = ready
        self._flipped: Dict[bytes, bool] = {}
        self._done: Dict[bytes, int] = {}
        # Shares are counted by _collect's wait state as well.
        process.on(MSG_COIN_SHARE, self._on_share, retain=True)

    @staticmethod
    def _signing_name(name: Tuple) -> Tuple:
        return ("common-coin", name)

    def flip(self, name: Tuple) -> None:
        """Release this server's coin share for ``name``."""
        from repro.common.serialization import encode
        key = encode(name)
        if self._flipped.get(key):
            return
        self._flipped[key] = True
        scheme = self._config.threshold_scheme
        share = scheme.sign(self._signing_name(name),
                            self._process.pid.index)
        self._process.send_to_servers("coin", MSG_COIN_SHARE, name, share)
        self._process.start_thread(self._collect(name, key))

    def _collect(self, name: Tuple, key: bytes):
        scheme = self._config.threshold_scheme
        signing_name = self._signing_name(name)

        def valid(message: Message) -> bool:
            payload = message.payload
            return (message.sender.is_server
                    and len(payload) == 2
                    and payload[0] == name
                    and isinstance(payload[1], SignatureShare)
                    and payload[1].signer == message.sender.index
                    and scheme.verify_share(signing_name, payload[1]))

        shares = yield self._process.condition_quorum(
            "coin", MSG_COIN_SHARE, self._config.t + 1, where=valid)
        if key in self._done:
            return
        signature = scheme.combine(
            signing_name, [message.payload[1] for message in shares])
        bit = hash_bytes(signature.value)[0] & 1
        self._done[key] = bit
        self._ready(name, bit)

    def _on_share(self, message: Message) -> None:
        """Join a flip another server started (shares arriving for a name
        we have not flipped yet trigger our own share release, so every
        honest server's flip completes)."""
        if len(message.payload) != 2 or not message.sender.is_server:
            return
        self.flip(message.payload[0])

    def value(self, name: Tuple):
        """The coin bit, or ``None`` if not yet determined locally."""
        from repro.common.serialization import encode
        return self._done.get(encode(name))
