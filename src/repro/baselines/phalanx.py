"""Baseline: Phalanx-style *safe* replicated register (``n > 4t``).

Malkhi and Reiter's Phalanx (reference [21] of the paper) provides
survivable shared objects over Byzantine quorum systems; its data
abstraction for non-self-verifying data is a **safe** register at
``t < n/4`` — the weakest of Lamport's three conditions and the weakest
system in the paper's related-work comparison:

* writes store ``(TIMESTAMP, value)`` replicas at a write quorum, with
  client-generated timestamps (skipping possible, no client auth);
* a read collects one round of replies from ``n − t`` servers and
  returns the highest-timestamped value vouched for by at least
  ``t + 1`` of them (so it is a really-written value, not a fabrication).
  When no value reaches ``t + 1`` support — possible only while writes
  are in flight — the read retries, since *safe* semantics constrain
  only reads that do not overlap writes.

Why ``n > 4t``: an uncontended read overlaps every completed write
quorum (``n − t``) in at least ``n − 2t`` servers, of which at least
``n − 3t`` are honest; ``n − 3t ≥ t + 1`` — i.e. enough support to be
chosen over up-to-``t`` fabricated replies — needs ``n > 4t``.

There are no listeners and no second phase, so this is the cheapest
protocol in the comparison — and the weakest: sequential histories are
atomic, but concurrent reads may observe new-then-old inversions
(regular/atomicity violations) that the safe checker accepts and the
atomic checker rejects.  See ``tests/test_phalanx.py``.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional

from repro.baselines.martin import (
    MSG_ACK,
    MSG_GET_TS,
    MSG_STORE,
    MSG_TS,
    MartinServer,
)
from repro.common.errors import ConfigurationError, LivenessError
from repro.common.ids import PartyId
from repro.common.serialization import encode
from repro.config import SystemConfig
from repro.core.register import OperationHandle, RegisterClientBase
from repro.core.timestamps import Timestamp
from repro.net.message import Message

MSG_READ_SAFE = "read-safe"
MSG_VALUE_SAFE = "value-safe"


def _require_n_gt_4t(config: SystemConfig) -> None:
    if config.n <= 4 * config.t:
        raise ConfigurationError(
            f"Phalanx safe registers require n > 4t, got n={config.n} "
            f"t={config.t}")


class PhalanxServer(MartinServer):
    """Replica server: Martin-style storage, one-shot read replies, no
    listener machinery at all."""

    def __init__(self, pid: PartyId, config: SystemConfig,
                 initial_value: bytes = b""):
        _require_n_gt_4t(config)
        super().__init__(pid, config, initial_value)
        self.on(MSG_READ_SAFE, self._on_read_safe)

    def _on_read_safe(self, message: Message) -> None:
        if len(message.payload) != 2:
            return
        oid, round_no = message.payload
        state = self.register_state(message.tag)
        self.send(message.sender, message.tag, MSG_VALUE_SAFE, oid,
                  round_no, state.timestamp, state.value)


class PhalanxClient(RegisterClientBase):
    """Safe-register client: one-round reads with ``t + 1``-support
    selection and bounded retry under contention."""

    def __init__(self, pid: PartyId, config: SystemConfig,
                 max_read_rounds: int = 64):
        _require_n_gt_4t(config)
        super().__init__(pid, config)
        self._rounds = itertools.count(1)
        self.max_read_rounds = max_read_rounds

    # -- write (same two phases as SBQ-L) ---------------------------------

    def _write_thread(self, handle: OperationHandle):
        tag, oid = handle.tag, handle.oid
        self.send_to_servers(tag, MSG_GET_TS, oid)
        replies = yield self.condition_quorum(
            tag, MSG_TS, self.config.quorum, oid=oid,
            where=lambda m: (m.sender.is_server and len(m.payload) == 2
                             and isinstance(m.payload[1], int)
                             and m.payload[1] >= 0))
        ts = max(message.payload[1] for message in replies)
        self.send_to_servers(tag, MSG_STORE, oid, Timestamp(ts + 1, oid),
                             handle.value)
        yield self.condition_quorum(
            tag, MSG_ACK, self.config.quorum, oid=oid,
            where=lambda m: m.sender.is_server and len(m.payload) == 1)
        self._finish_write(handle)

    # -- read (single round, t+1 support) ------------------------------------

    def _read_thread(self, handle: OperationHandle):
        tag, oid = handle.tag, handle.oid
        support = self.config.t + 1
        for _ in range(self.max_read_rounds):
            round_no = next(self._rounds)
            self.send_to_servers(tag, MSG_READ_SAFE, oid, round_no)

            def valid(message: Message, r=round_no) -> bool:
                payload = message.payload
                return (message.sender.is_server and len(payload) == 4
                        and payload[1] == r
                        and isinstance(payload[2], Timestamp)
                        and isinstance(payload[3], bytes))

            replies = yield self.condition_quorum(
                tag, MSG_VALUE_SAFE, self.config.quorum, where=valid,
                oid=oid)
            counts: Dict[bytes, int] = {}
            best: Optional[Message] = None
            for message in replies:
                key = encode((message.payload[2], message.payload[3]))
                counts[key] = counts.get(key, 0) + 1
            for message in replies:
                key = encode((message.payload[2], message.payload[3]))
                if counts[key] >= support and (
                        best is None
                        or message.payload[2] > best.payload[2]):
                    best = message
            if best is not None:
                self._finish_read(handle, best.payload[3],
                                  best.payload[2])
                return
            # Contended round: no value had t+1 support.  Retry — safe
            # semantics only constrain uncontended reads.
        raise LivenessError(
            f"safe read {oid} found no supported value within "
            f"{self.max_read_rounds} rounds")
