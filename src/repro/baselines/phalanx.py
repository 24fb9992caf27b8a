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

from repro.baselines.martin import (
    MSG_ACK,
    MSG_GET_TS,
    MSG_STORE,
    MSG_TS,
    MartinServer,
)
from repro.common.errors import LivenessError
from repro.common.ids import PartyId
from repro.common.serialization import encode
from repro.config import SystemConfig, require_n_gt_4t
from repro.core.register import OperationHandle, RegisterClientBase
from repro.core.timestamps import Timestamp
from repro.net.message import Message
from repro.net.process import agreeing_groups

MSG_READ_SAFE = "read-safe"
MSG_VALUE_SAFE = "value-safe"


class PhalanxServer(MartinServer):
    """Replica server: Martin-style storage, one-shot read replies, no
    listener machinery at all."""

    def __init__(self, pid: PartyId, config: SystemConfig,
                 initial_value: bytes = b""):
        require_n_gt_4t(config, "Phalanx")
        super().__init__(pid, config, initial_value)
        self.on(MSG_READ_SAFE, self._on_read_safe)

    def _on_read_safe(self, message: Message) -> None:
        if len(message.payload) != 2:
            return
        oid, round_no = message.payload
        if not isinstance(oid, str) or not isinstance(round_no, int):
            return  # byzantine query: never echo unverified objects back
        state = self.register_state(message.tag)
        self.send(message.sender, message.tag, MSG_VALUE_SAFE, oid,
                  round_no, state.timestamp, state.value)


class PhalanxClient(RegisterClientBase):
    """Safe-register client: one-round reads with ``t + 1``-support
    selection and bounded retry under contention."""

    def __init__(self, pid: PartyId, config: SystemConfig):
        require_n_gt_4t(config, "Phalanx")
        super().__init__(pid, config)
        self._rounds = itertools.count(1)
        #: retry budget of one read under contention
        self.max_read_rounds = 64

    # -- write (same two phases as SBQ-L) ---------------------------------

    def _write_thread(self, handle: OperationHandle):
        tag, oid = handle.tag, handle.oid
        replies = yield from self._ts_round(tag, oid, MSG_GET_TS, MSG_TS)
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
            groups = agreeing_groups(
                replies, lambda m: encode((m.payload[2], m.payload[3])))
            supported = [next(iter(group.values()))
                         for group in groups.values()
                         if len(group) >= support]
            if supported:
                # the largest TIMESTAMP; the first to arrive among equals
                best = max(supported, key=lambda m: m.payload[2])
                self._finish_read(handle, best.payload[3],
                                  best.payload[2])
                return
            # Contended round: no value had t+1 support.  Retry — safe
            # semantics only constrain uncontended reads.
        raise LivenessError(
            f"safe read {oid} found no supported value within "
            f"{self.max_read_rounds} rounds")
