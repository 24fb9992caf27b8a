"""Execution-trace tooling: summaries and export of simulation runs.

The simulator's event log is the paper's global clock made concrete.
These helpers turn a run into something a human can audit: a timeline of
input/output actions, per-message-type traffic summaries, and a JSON-lines
export for external analysis.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence, TextIO, Tuple

from repro.net.message import EVENT_INPUT, EVENT_OUTPUT, LocalEvent
from repro.net.metrics import Metrics

#: completion output action -> the invocation input action it terminates
COMPLETION_ACTIONS = {"ack": "write", "read": "read"}


def _payload_repr(payload) -> str:
    parts = []
    for item in payload:
        if isinstance(item, bytes):
            parts.append(f"<{len(item)}B>")
        else:
            text = str(item)
            parts.append(text if len(text) <= 24 else text[:21] + "...")
    return ", ".join(parts)


def format_timeline(events: Sequence[LocalEvent],
                    tag: Optional[str] = None,
                    kinds: Sequence[str] = (EVENT_INPUT, EVENT_OUTPUT),
                    limit: Optional[int] = None) -> str:
    """Render a run's local events as a readable timeline.

    ``tag`` filters to one register/protocol instance; ``limit`` truncates
    to the first N matching events.
    """
    lines: List[str] = []
    for event in events:
        if event.kind not in kinds:
            continue
        if tag is not None and event.tag != tag:
            continue
        lines.append(f"t={event.time:<6} {str(event.party):<5} "
                     f"{event.kind:<3} ({event.tag}, {event.action}"
                     f"{', ' if event.payload else ''}"
                     f"{_payload_repr(event.payload)})")
        if limit is not None and len(lines) >= limit:
            lines.append(f"... (showing first {limit} events)")
            break
    return "\n".join(lines) if lines else "(no matching events)"


class OperationMatcher:
    """Pairs operation invocations with their completing output actions
    as the events arrive, one :meth:`feed` at a time.

    A completion (``ack`` for writes, ``read`` for reads) is matched to
    the *most recent still-open* invocation with the same tag, operation
    identifier, client, and kind — so a reused operation key closes its
    invocations LIFO instead of silently overwriting earlier ones.
    :func:`match_operations` is this matcher run over a whole log.
    """

    def __init__(self) -> None:
        self._open_by_key: Dict[Tuple, List[LocalEvent]] = {}
        #: completions that found no open invocation (e.g. a truncated
        #: event log), in arrival order
        self.unmatched: List[LocalEvent] = []

    def feed(self, event: LocalEvent
             ) -> Optional[Tuple[LocalEvent, LocalEvent]]:
        """Take one event; returns ``(invocation, completion)`` when it
        completes an open operation, else ``None``."""
        oid = event.payload[0] if event.payload else None
        if event.kind == EVENT_INPUT and event.action in ("write", "read"):
            key = (event.tag, oid, event.party, event.action)
            self._open_by_key.setdefault(key, []).append(event)
        elif event.kind == EVENT_OUTPUT \
                and event.action in COMPLETION_ACTIONS:
            key = (event.tag, oid, event.party,
                   COMPLETION_ACTIONS[event.action])
            stack = self._open_by_key.get(key)
            if stack:
                return stack.pop(), event
            self.unmatched.append(event)
        return None

    def open_invocations(self) -> List[LocalEvent]:
        """Invocations not yet completed, in invocation order."""
        still_open = [invocation
                      for stack in self._open_by_key.values()
                      for invocation in stack]
        still_open.sort(key=lambda e: e.time)
        return still_open


def match_operations(events: Sequence[LocalEvent]) -> Tuple[
        List[Tuple[LocalEvent, LocalEvent]], List[LocalEvent],
        List[LocalEvent]]:
    """Pair operation invocations with their completing output actions
    (the :class:`OperationMatcher` rule, over a whole log).

    Returns ``(pairs, unmatched_completions, open_invocations)``:
    matched pairs in completion order, completions with no open
    invocation (e.g. a truncated event log), and invocations that never
    completed, in invocation order.
    """
    matcher = OperationMatcher()
    pairs = [pair for pair in map(matcher.feed, events) if pair is not None]
    return pairs, matcher.unmatched, matcher.open_invocations()


def operation_summary(events: Sequence[LocalEvent]) -> str:
    """One line per register operation: invocation, completion, duration.

    Completions are matched to the most recent open invocation of the
    same ``(tag, oid, client, kind)``; completions that match no open
    invocation and invocations that never completed are flagged instead
    of being silently dropped.
    """
    pairs, unmatched, still_open = match_operations(events)
    lines: List[str] = []
    for start, end in pairs:
        oid = start.payload[0] if start.payload else None
        duration = end.time - start.time
        lines.append(
            f"{start.action:<5} {oid:<12} tag={end.tag:<12} "
            f"client={start.party} t={start.time}->{end.time} "
            f"({duration} events)")
    for event in unmatched:
        oid = event.payload[0] if event.payload else None
        lines.append(f"?     {oid:<12} tag={event.tag:<12} "
                     f"client={event.party} t=?->{event.time} "
                     f"(unmatched completion)")
    for event in still_open:
        oid = event.payload[0] if event.payload else None
        lines.append(f"{event.action:<5} {oid:<12} tag={event.tag:<12} "
                     f"client={event.party} t={event.time}->? "
                     f"(never completed)")
    return "\n".join(lines) if lines else "(no operations)"


def traffic_summary(metrics: Metrics, tag_prefix: str) -> str:
    """Per-message-type counts under a tag prefix, largest first."""
    by_mtype = metrics.messages_by_mtype(tag_prefix)
    total_messages = metrics.message_complexity(tag_prefix)
    total_bytes = metrics.communication_complexity(tag_prefix)
    lines = [f"traffic under {tag_prefix!r}: {total_messages} messages, "
             f"{total_bytes} bytes"]
    for mtype, count in sorted(by_mtype.items(),
                               key=lambda item: -item[1]):
        lines.append(f"  {mtype:<16} {count}")
    return "\n".join(lines)


def export_events_jsonl(events: Iterable[LocalEvent],
                        stream: TextIO) -> int:
    """Write events as JSON lines; returns the number written.

    Byte payload fields become ``{"bytes": <length>}`` placeholders so the
    export stays small and text-safe.
    """
    count = 0
    for event in events:
        payload = [{"bytes": len(item)} if isinstance(item, bytes)
                   else str(item) for item in event.payload]
        record = {
            "time": event.time,
            "party": str(event.party),
            "kind": event.kind,
            "tag": event.tag,
            "action": event.action,
            "payload": payload,
        }
        stream.write(json.dumps(record) + "\n")
        count += 1
    return count
