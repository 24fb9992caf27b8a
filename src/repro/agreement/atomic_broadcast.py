"""Atomic broadcast: a total order on requests via rounds of ACS.

Servers buffer submitted requests; each round, every server proposes its
buffer, the common-subset protocol agrees on which proposals count, and
the union of accepted proposals is delivered in a deterministic order
(deduplicated across rounds).  All honest servers deliver the same
requests in the same sequence — the primitive that can serialize *any*
shared object, registers included (paper §3.4's alternative approach).

Liveness: a request submitted to ``n − t`` honest servers appears in
their proposals from the next round on; since every round's output
contains at least ``n − 2t ≥ t + 1`` honest proposals, the request is
delivered within a round or two.  Round ``R + 1`` opens when ``R``
completes locally (or when another server's round-``R + 1`` proposal
arrives first — late servers join by proposing their current buffer).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Set

from repro.agreement.acs import CommonSubset
from repro.common.serialization import encode
from repro.config import SystemConfig
from repro.net.process import Process

#: deliver(sequence_number, request) — in identical order everywhere.
DeliverCallback = Callable[[int, Any], None]


class AtomicBroadcast:
    """Server-side atomic-broadcast component.

    :meth:`submit` enqueues a request (any serializable value); requests
    are delivered through ``deliver(seq, request)`` in the same total
    order at every honest server, exactly once each.
    """

    def __init__(self, process: Process, config: SystemConfig,
                 deliver: DeliverCallback):
        self._process = process
        self._config = config
        self._deliver = deliver
        self._buffer: List[Any] = []
        self._buffered_keys: Set[bytes] = set()
        self._delivered_keys: Set[bytes] = set()
        self._proposed_rounds: Set[int] = set()
        self._outputs: Dict[int, Dict[int, Any]] = {}
        self._next_round_to_deliver = 1
        self._next_sequence = 0
        self.acs = CommonSubset(process, config, self._on_acs_done)
        # Join rounds other servers started even with an empty buffer.
        self.acs.on_first_contact = self._on_first_contact

    # -- public API ----------------------------------------------------------

    def submit(self, request: Any) -> None:
        """Enqueue a request for total ordering (idempotent per value)."""
        key = encode(request)
        if key in self._delivered_keys or key in self._buffered_keys:
            return
        self._buffer.append(request)
        self._buffered_keys.add(key)
        self._maybe_propose(self._next_round_to_deliver)

    # -- round management -------------------------------------------------------

    def _maybe_propose(self, round_no: int) -> None:
        if round_no in self._proposed_rounds:
            return
        if round_no != self._next_round_to_deliver:
            return  # never run ahead of our own delivery cursor
        self._proposed_rounds.add(round_no)
        self.acs.propose(("abc", round_no), list(self._buffer))

    def _on_first_contact(self, session: Any) -> None:
        if isinstance(session, tuple) and len(session) == 2 \
                and session[0] == "abc" and isinstance(session[1], int):
            self._maybe_propose(session[1])

    def _on_acs_done(self, session: Any, accepted: Dict[int, Any]) -> None:
        if not (isinstance(session, tuple) and len(session) == 2
                and session[0] == "abc"):
            return
        self._outputs[session[1]] = accepted
        self._drain()

    def _drain(self) -> None:
        while self._next_round_to_deliver in self._outputs:
            accepted = self._outputs.pop(self._next_round_to_deliver)
            requests: Dict[bytes, Any] = {}
            for proposal in accepted.values():
                if not isinstance(proposal, list):
                    continue  # malformed Byzantine proposal: skip it
                for request in proposal:
                    requests.setdefault(encode(request), request)
            for key in sorted(requests):
                if key in self._delivered_keys:
                    continue
                self._delivered_keys.add(key)
                if key in self._buffered_keys:
                    self._buffered_keys.discard(key)
                    self._buffer = [item for item in self._buffer
                                    if encode(item) != key]
                self._next_sequence += 1
                self._deliver(self._next_sequence, requests[key])
            self._next_round_to_deliver += 1
            if self._buffer:
                self._maybe_propose(self._next_round_to_deliver)
