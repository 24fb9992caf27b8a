"""Ablation: Protocol Atomic *without* the listeners mechanism.

The listeners pattern (Martin et al.) is what makes reads wait-free under
concurrent writes: servers push every newer value to registered readers,
so a reader eventually assembles ``n - t`` matching replies no matter how
writes interleave.  This module removes it — servers answer each read
query once, and the reader *retries* whole query rounds until some
``(commitment, TIMESTAMP)`` group reaches ``n - t``.

What survives: safety.  Any group of ``n - t`` one-shot replies still
intersects every write quorum, so returned values are exactly as in
Protocol Atomic (reads linearize).  What is lost: wait-freedom — under
sustained concurrent writes a reader can retry unboundedly, and each
retry costs a fresh ``2n``-message round.  Experiment F9 (the ablation
bench) quantifies both effects; this is the design-choice justification
DESIGN.md calls out for the listeners mechanism.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional

from repro.common.errors import LivenessError
from repro.common.ids import PartyId
from repro.core.atomic import (
    MSG_VALUE,
    AtomicClient,
    AtomicServer,
    version_key,
)
from repro.core.register import OperationHandle
from repro.core.timestamps import Timestamp
from repro.net.message import Message
from repro.net.process import first_agreeing

MSG_READ_ONCE = "read-once"


class NoListenersServer(AtomicServer):
    """Server that answers read queries once, with no listener state.

    The write path is unchanged (it still serves whatever listeners
    exist, but none are ever registered).
    """

    def __init__(self, pid: PartyId, config, initial_value: bytes = b""):
        super().__init__(pid, config, initial_value)
        self.on(MSG_READ_ONCE, self._on_read_once)

    def _on_read_once(self, message: Message) -> None:
        if len(message.payload) != 2:
            return
        oid, round_no = message.payload
        if not isinstance(oid, str) or not isinstance(round_no, int):
            return  # byzantine query: never echo unverified objects back
        self._send_version(message.sender, message.tag, (oid, round_no),
                           *self._version(self.register_state(message.tag)))


class NoListenersClient(AtomicClient):
    """Client whose reads retry query rounds instead of listening.

    The ``max_read_rounds`` attribute bounds the retries (``None``, the
    default, = unbounded); a read that exhausts its budget raises
    :class:`LivenessError` — surfacing the wait-freedom loss as an
    observable failure.
    """

    def __init__(self, pid: PartyId, config):
        super().__init__(pid, config)
        self._rounds = itertools.count(1)
        self.max_read_rounds: Optional[int] = None
        #: per-oid count of query rounds the read needed (ablation metric)
        self.read_rounds: Dict[str, int] = {}

    def _read_thread(self, handle: OperationHandle):
        tag, oid = handle.tag, handle.oid
        quorum = self.config.quorum
        scheme = self.config.commitment_scheme
        attempts = 0
        while self.max_read_rounds is None or \
                attempts < self.max_read_rounds:
            attempts += 1
            self.read_rounds[oid] = attempts
            round_no = next(self._rounds)
            self.send_to_servers(tag, MSG_READ_ONCE, oid, round_no)

            def valid(message: Message, r=round_no) -> bool:
                payload = message.payload
                return (message.sender.is_server
                        and len(payload) == 5
                        and payload[0] == (oid, r)
                        and isinstance(payload[4], Timestamp)
                        and scheme.verify(payload[1], message.sender.index,
                                          payload[2], payload[3]))

            replies = yield self.condition_quorum(tag, MSG_VALUE, quorum,
                                                  where=valid)
            messages = first_agreeing(replies, quorum, version_key)
            if messages is not None:
                pairs = [(message.sender.index, message.payload[2])
                         for message in messages]
                value = self.config.coder.decode(pairs[: self.config.k])
                self._finish_read(handle, value, messages[0].payload[4])
                return
            # No group reached quorum: servers were caught mid-update by
            # concurrent writes.  Retry a fresh round.
        raise LivenessError(
            f"read {oid} found no stable quorum within "
            f"{self.max_read_rounds} rounds (no listeners)")
