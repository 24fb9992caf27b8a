"""Per-process input buffer, queryable by wait-state conditions.

The paper's parties enter wait states whose conditions are predicates over
the received messages in the input buffer (e.g. "wait for ``n - t``
messages ``(ID, ack, oid)`` from distinct servers").  :class:`Inbox` holds
the messages such conditions may still read, bucketed by
``(tag, mtype, oid)`` — the operation identifier being ``payload[0]`` when
that is an exact ``str``, the convention every protocol follows — and
offers the query helpers those conditions need.  A query that names its
``oid`` touches one bucket; a query that does not (``oid=None``) sees the
whole ``(tag, mtype)`` key, oldest arrival first.

Retention rule (the only place it is stated): a delivered message is kept
iff a wait state may still read it.  That excludes

* messages whose type has an ``on()`` handler — the handler consumes
  them, so :class:`~repro.net.process.Process` never offers them here
  (unless the handler was registered with ``retain=True``);
* messages of an operation that was :meth:`retired <Inbox.retire>` —
  its thread returned, so its buckets are dropped and later arrivals
  for it are refused;
* an identical ``(sender, payload)`` repeat inside a bucket — Byzantine
  parties may send the same message many times; conditions count
  *distinct senders* and take each sender's earliest match, mirroring
  the proofs, so a repeat can never change an outcome.

A fault-free run therefore ends with empty inboxes, and what a process
holds is bounded by its open operations rather than by its history.
"""

from __future__ import annotations

from heapq import merge
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.common.ids import PartyId
from repro.net.message import Message

Predicate = Callable[[Message], bool]

#: What a wait state blocks on: ``(tag, mtype, oid)``; ``oid`` ``None``
#: names the whole ``(tag, mtype)`` key.
WaitKey = Tuple[str, str, Optional[str]]

#: One bucket: arrival numbers and messages, index-aligned.
_Bucket = Tuple[List[int], List[Message]]


class Inbox:
    """The messages a process's wait states may still read."""

    def __init__(self) -> None:
        #: tag -> oid -> mtype -> bucket
        self._by_tag: Dict[str, Dict[Optional[str],
                                     Dict[str, _Bucket]]] = {}
        self._retired: Set[Tuple[str, str]] = set()
        self._arrivals = 0
        self._count = 0

    def add(self, message: Message) -> Optional[WaitKey]:
        """Buffer a delivered message.

        Returns the bucket it joined, or ``None`` when it was refused:
        its operation is retired, or its bucket already holds the same
        payload from the same sender.
        """
        payload = message.payload
        tag = message.tag
        oid = payload[0] if payload and type(payload[0]) is str else None
        if oid is not None and (tag, oid) in self._retired:
            return None
        operations = self._by_tag.get(tag)
        if operations is None:
            operations = self._by_tag[tag] = {}
        buckets = operations.get(oid)
        if buckets is None:
            buckets = operations[oid] = {}
        mtype = message.mtype
        bucket = buckets.get(mtype)
        if bucket is None:
            bucket = buckets[mtype] = ([], [])
        else:
            sender = message.sender
            for held in bucket[1]:
                if held.payload == payload and held.sender == sender:
                    return None
        self._arrivals += 1
        bucket[0].append(self._arrivals)
        bucket[1].append(message)
        self._count += 1
        return (tag, mtype, oid)

    def retire(self, tag: str, oid: str) -> None:
        """Close operation ``oid`` of ``tag``: drop what it buffered and
        refuse its later arrivals (its thread has returned, so no wait
        state will read them)."""
        self._retired.add((tag, oid))
        operations = self._by_tag.get(tag)
        if operations is None:
            return
        buckets = operations.pop(oid, None)
        if buckets is not None:
            for _, messages in buckets.values():
                self._count -= len(messages)
        if not operations:
            del self._by_tag[tag]

    def __len__(self) -> int:
        return self._count

    def _bucketed(self, tag: str, mtype: str,
                  oid: Optional[str]) -> Sequence[Message]:
        """Buffered messages of one bucket, or of the whole key in
        arrival order (``oid=None``).  Callers must not mutate it."""
        operations = self._by_tag.get(tag)
        if operations is None:
            return ()
        if oid is not None:
            buckets = operations.get(oid)
            bucket = None if buckets is None else buckets.get(mtype)
            return () if bucket is None else bucket[1]
        found = [buckets[mtype] for buckets in operations.values()
                 if mtype in buckets]
        if len(found) == 1:
            return found[0][1]
        return [message for _, message in merge(
            *(zip(arrivals, messages) for arrivals, messages in found),
            key=lambda pair: pair[0])]

    def messages(self, tag: str, mtype: str,
                 where: Optional[Predicate] = None,
                 oid: Optional[str] = None) -> List[Message]:
        """Buffered messages with this tag and type, oldest first."""
        found = self._bucketed(tag, mtype, oid)
        if where is None:
            return list(found)
        return [message for message in found if where(message)]

    def senders(self, tag: str, mtype: str,
                where: Optional[Predicate] = None,
                oid: Optional[str] = None) -> Set[PartyId]:
        """Distinct senders of matching messages."""
        return {message.sender
                for message in self.messages(tag, mtype, where, oid)}

    def count_distinct(self, tag: str, mtype: str,
                       where: Optional[Predicate] = None,
                       oid: Optional[str] = None) -> int:
        """Number of distinct senders of matching messages."""
        return len(self.senders(tag, mtype, where, oid))

    def first_per_sender(self, tag: str, mtype: str,
                         where: Optional[Predicate] = None,
                         oid: Optional[str] = None) -> List[Message]:
        """The earliest matching message from each distinct sender.

        Quorum conditions that then *use* the message contents (e.g. "the
        maximum timestamp among ``n - t`` received ``ts`` messages") take
        one message per sender so a Byzantine flood cannot pad a quorum.
        """
        seen: Set[PartyId] = set()
        result: List[Message] = []
        for message in self.messages(tag, mtype, where, oid):
            if message.sender not in seen:
                seen.add(message.sender)
                result.append(message)
        return result
