"""Measurement plane: message, communication, and storage complexity.

Section 2.1 of the paper defines, per protocol instance:

* **message complexity** — the number of messages associated to the
  instance;
* **communication complexity** — the bit length of all such messages;
* **storage complexity** — the size of the instance's global variables.

Tags are hierarchical (``ID|disp.oid7`` is a sub-instance of ``ID``), so
querying by a tag prefix aggregates an instance together with all its
sub-protocol instances — e.g. a write's Disperse and reliable-broadcast
traffic counts toward the register instance.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, Tuple

from repro.common.ids import TAG_SEP, PartyId
from repro.net.message import Message


@dataclass
class TrafficCounter:
    """Message count and byte volume for one exact tag (kept by
    :meth:`Metrics.record`)."""

    messages: int = 0
    message_bytes: int = 0
    by_mtype: Dict[str, int] = field(default_factory=lambda: defaultdict(int))


class Metrics:
    """Aggregated traffic counters for a simulation run."""

    def __init__(self) -> None:
        self._by_tag: Dict[str, TrafficCounter] = defaultdict(TrafficCounter)
        self._received_bytes: Dict[PartyId, int] = defaultdict(int)
        self.total_messages = 0
        self.total_bytes = 0

    def record(self, message: Message) -> None:
        """Account one sent message (called by the simulator)."""
        # Most messages reach here with a size stamped by their sender.
        size = message._wire_size
        if size is None:
            size = message.wire_size()
        counter = self._by_tag[message.tag]
        counter.messages += 1
        counter.message_bytes += size
        counter.by_mtype[message.mtype] += 1
        self._received_bytes[message.recipient] += size
        self.total_messages += 1
        self.total_bytes += size

    def _matching(self, tag_prefix: str):
        for tag, counter in self._by_tag.items():
            if tag == tag_prefix or tag.startswith(tag_prefix + TAG_SEP):
                yield tag, counter

    def message_complexity(self, tag_prefix: str) -> int:
        """Messages associated with a tag and all of its sub-instances."""
        return sum(counter.messages
                   for _, counter in self._matching(tag_prefix))

    def communication_complexity(self, tag_prefix: str) -> int:
        """Bytes of all messages under a tag prefix."""
        return sum(counter.message_bytes
                   for _, counter in self._matching(tag_prefix))

    def messages_by_mtype(self, tag_prefix: str) -> Dict[str, int]:
        """Per-message-type counts under a tag prefix (for diagnostics)."""
        result: Dict[str, int] = defaultdict(int)
        for _, counter in self._matching(tag_prefix):
            for mtype, count in counter.by_mtype.items():
                result[mtype] += count
        return dict(result)

    def snapshot(self) -> Tuple[int, int]:
        """``(total_messages, total_bytes)`` so far — subtract two
        snapshots to isolate one operation's traffic."""
        return (self.total_messages, self.total_bytes)

    def load_imbalance(self, parties: Iterable[PartyId]) -> float:
        """Max/mean ratio of per-party received bytes (1.0 = perfectly
        balanced).  The register protocols are leaderless: server load is
        expected to be near-uniform."""
        loads = [self._received_bytes.get(party, 0) for party in parties]
        mean = sum(loads) / len(loads) if loads else 0
        return max(loads) / mean if mean else 1.0
