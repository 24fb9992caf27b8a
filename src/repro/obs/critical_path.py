"""Critical-path extraction over the happens-before DAG.

Every delivery in the simulator activates exactly one party, and every
message carries the ``msg_id`` of the delivery that activated its sender
(:attr:`repro.net.message.Message.cause_id`).  Walking those links
backward from the delivery that completed an operation yields the
*message chain that determined the operation's latency* — the causal
spine the adversarial scheduler could not shorten.

The chain decomposes the operation's logical-clock duration exactly
(telescoping sum)::

    duration =   (first send - invocation)                  -> local
               + sum over hops of (deliver - send)          -> hop phase
               + sum of gaps between a delivery and the
                 next send it triggered                     -> local
               + (completion - last delivery)               -> local

Each hop's in-flight interval is attributed to its protocol phase
(:func:`repro.obs.spans.classify_phase`): the Disperse echo/ready
rounds, the reliable-broadcast rounds, the timestamp query, the final
quorum wait.  When a concurrent operation's traffic completed this one
(e.g. a listener forwarding a fresh value to a reader), the chain can
reach back before the invocation; the pre-invocation portion shows up
as a *negative* local share, keeping the sum exact rather than hiding
the cross-operation causality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.obs.recorder import MessageRecord, TraceRecorder
from repro.obs.spans import PHASE_LOCAL, Span, classify_phase


@dataclass(frozen=True)
class PathHop:
    """One message on the critical path.

    ``local_gap`` is the logical time between the previous hop's
    delivery (or the invocation) and this message's send — the sender's
    local processing share; ``queue_wait`` is the message's own
    in-flight time, attributed to ``phase``.
    """

    record: MessageRecord
    phase: str
    local_gap: int
    queue_wait: int


@dataclass
class CriticalPath:
    """The latency explanation of one completed operation."""

    tag: str
    oid: str
    op: str
    client: str
    invoke_time: int
    complete_time: int
    hops: List[PathHop]
    #: logical-clock share per phase (including ``local``); sums to
    #: ``duration`` exactly.
    attribution: Dict[str, int]

    @property
    def duration(self) -> int:
        return self.complete_time - self.invoke_time

    @property
    def rounds(self) -> int:
        """Length of the causal spine in message delays."""
        return len(self.hops)


def critical_path(recorder: TraceRecorder,
                  span: Span) -> Optional[CriticalPath]:
    """Extract the critical path of one operation span.

    Returns ``None`` for spans that are not operation spans or carry no
    completion cause *and* no duration to attribute.  The chain is
    walked from the operation's ``completion_cause`` annotation (the
    delivery processed when the completing output action fired).
    """
    annotations = span.annotations
    if "oid" not in annotations:
        return None
    chain = recorder.causal_chain(annotations.get("completion_cause"))
    hops: List[PathHop] = []
    attribution: Dict[str, int] = {}

    def attribute(phase: str, amount: int) -> None:
        if amount != 0:
            attribution[phase] = attribution.get(phase, 0) + amount

    previous = span.open_time
    for record in chain:
        if record.deliver_time is None:
            continue  # undelivered messages cannot be causes
        phase = classify_phase(record.tag, record.mtype, span.tag)
        local_gap = record.send_time - previous
        queue_wait = record.queue_wait
        hops.append(PathHop(record=record, phase=phase,
                            local_gap=local_gap, queue_wait=queue_wait))
        attribute(PHASE_LOCAL, local_gap)
        attribute(phase, queue_wait)
        previous = record.deliver_time
    attribute(PHASE_LOCAL, span.close_time - previous)
    return CriticalPath(
        tag=span.tag,
        oid=annotations["oid"],
        op=annotations.get("op", ""),
        client=annotations.get("client", ""),
        invoke_time=span.open_time,
        complete_time=span.close_time,
        hops=hops,
        attribution=attribution)


def attribution_summary(path: CriticalPath) -> str:
    """One line: phase shares largest-first, e.g.
    ``disperse 41, rbc 18, ts-query 12, quorum-wait 8, local 3``."""
    parts = sorted(path.attribution.items(),
                   key=lambda item: (-item[1], item[0]))
    return ", ".join(f"{phase} {share}" for phase, share in parts)
