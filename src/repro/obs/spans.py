"""Operation and sub-protocol spans derived from a causal trace.

A *span* is a named interval of the logical global clock.  The span tree
of a run has one **operation span** per register operation (``write`` /
``read``, from the invocation input action to the completing output
action) with **phase spans** nested inside, derived from the hierarchical
tag scheme and the message types:

* traffic on sub-instance tags ``ID|disp.oid`` / ``ID|rbc.oid`` becomes
  the write's *disperse* / *rbc* phases; AtomicMd's ``md-commit`` (its
  replacement for the broadcast, a reader's write-back included) is the
  *commit* phase;
* ``get-ts``/``ts`` traffic on the register tag is the *ts-query* phase,
  ``ack`` traffic the *quorum-wait* phase, and ``read`` / ``value`` /
  ``read-complete`` traffic the *retrieve* phase; AtomicNS's ``share``
  exchange is the *sig-round* phase;
* unknown message types fall back to the message type itself, so
  baseline protocols get phases for free (e.g. Martin et al.'s
  ``store``).

Each span carries logical open/close times, message and byte counts,
and annotations: quorum releases (which arrival tipped the threshold),
the servers that output ``write-accepted``, and the *tail* — traffic of
the operation's sub-protocols still draining after the client completed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.avid.disperse import MESSAGE_TYPES as DISPERSE_MESSAGE_TYPES
from repro.broadcast.reliable import MESSAGE_TYPES as RBC_MESSAGE_TYPES
from repro.common.ids import TAG_SEP, PartyId
from repro.obs.recorder import MessageRecord, QuorumRelease, TraceRecorder

KIND_OPERATION = "operation"
KIND_PHASE = "phase"

PHASE_TS_QUERY = "ts-query"
PHASE_DISPERSE = "disperse"
PHASE_RBC = "rbc"
PHASE_QUORUM_WAIT = "quorum-wait"
PHASE_RETRIEVE = "retrieve"
PHASE_SIG_ROUND = "sig-round"
PHASE_BLOCK_PUSH = "block-push"
PHASE_COMMIT = "commit"
PHASE_LOCAL = "local"

#: register-tag message types -> phase
_MTYPE_PHASES = {
    "get-ts": PHASE_TS_QUERY,
    "ts": PHASE_TS_QUERY,
    "ack": PHASE_QUORUM_WAIT,
    "read": PHASE_RETRIEVE,
    "value": PHASE_RETRIEVE,
    "read-complete": PHASE_RETRIEVE,
    "share": PHASE_SIG_ROUND,
    # AtomicMd (metadata/data separation): the read is the classic
    # one-round retrieve; the write's point-to-point block push and its
    # commit get phases of their own.
    "md-get-ts": PHASE_TS_QUERY,
    "md-ts": PHASE_TS_QUERY,
    "md-ack": PHASE_QUORUM_WAIT,
    "md-read": PHASE_RETRIEVE,
    "md-meta": PHASE_RETRIEVE,
    "md-read-complete": PHASE_RETRIEVE,
    "md-store": PHASE_BLOCK_PUSH,
    "md-stored": PHASE_BLOCK_PUSH,
    "md-commit": PHASE_COMMIT,
}

#: sub-protocol substrate message types -> phase (from the substrates'
#: own wire-type registries)
_SUBSTRATE_PHASES = {
    **{mtype: PHASE_DISPERSE for mtype in DISPERSE_MESSAGE_TYPES},
    **{mtype: PHASE_RBC for mtype in RBC_MESSAGE_TYPES},
}

#: sub-instance tag components (``disp.oid`` -> ``disp``) -> phase
_SUBTAG_PHASES = {
    "disp": PHASE_DISPERSE,
    "rbc": PHASE_RBC,
}


def classify_phase(tag: str, mtype: str, operation_tag: str) -> str:
    """The phase a message belongs to within its operation.

    Sub-protocol substrates are recognised by their registered message
    types (``avid-*``, ``rbc-*``), then by the sub-instance tag
    component; register-tag traffic maps by message type, falling back
    to the message type itself for protocols this table does not know.
    """
    if mtype in _SUBSTRATE_PHASES:
        return _SUBSTRATE_PHASES[mtype]
    if tag != operation_tag and tag.startswith(operation_tag + TAG_SEP):
        component = tag.rsplit(TAG_SEP, 1)[1].partition(".")[0]
        if component in _SUBTAG_PHASES:
            return _SUBTAG_PHASES[component]
    return _MTYPE_PHASES.get(mtype, mtype)


@dataclass
class Span:
    """A named logical-clock interval with traffic totals.

    Operation spans hold their phase spans in ``children`` (ordered by
    open time); ``annotations`` carries span-kind-specific detail (see
    :func:`build_spans`).
    """

    name: str
    kind: str
    tag: str
    open_time: int
    close_time: int
    party: Optional[PartyId] = None
    messages: int = 0
    message_bytes: int = 0
    annotations: Dict[str, Any] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    @property
    def duration(self) -> int:
        """Logical-clock ticks from open to close."""
        return self.close_time - self.open_time

    def child(self, name: str) -> Optional["Span"]:
        """The first child span with this name, if any."""
        for candidate in self.children:
            if candidate.name == name:
                return candidate
        return None


def operation_records(recorder: TraceRecorder, tag: str,
                      oid: str) -> List[MessageRecord]:
    """All message records belonging to one operation, in send order:
    register-tag messages carrying its oid plus all sub-instance
    traffic (``ID|<kind>.oid``) — the recorder's belongs-to predicate
    (:func:`repro.obs.recorder.record_belongs`) applied to the
    operation's index bucket.  Public because plane attribution
    (:mod:`repro.obs.planes`) folds the same record set by wire plane.
    """
    return recorder.operation_records(tag, oid)


def completed_operation_records(recorder: TraceRecorder
                                ) -> Dict[Tuple[str, str],
                                          List[MessageRecord]]:
    """:func:`operation_records` of every completed operation, by
    ``(tag, oid)``: each operation's records computed once, for
    :func:`build_spans` and
    :func:`repro.obs.planes.operation_plane_traffic` to share."""
    records: Dict[Tuple[str, str], List[MessageRecord]] = {}
    for start, _end in recorder.operations()[0]:
        key = (start.tag, start.payload[0] if start.payload else "")
        if key not in records:
            records[key] = operation_records(recorder, *key)
    return records


def _phase_spans(records: List[MessageRecord], tag: str) -> List[Span]:
    # A record's phase depends on its tag and type only, so the records
    # are totalled per (tag, mtype) first, in one pass, and the pairs
    # then folded into their phases in first-seen order.
    totals: Dict[Tuple[str, str], List[int]] = {}
    for record in records:
        send_time = record.send_time
        close_time = record.deliver_time
        if close_time is None:
            close_time = send_time
        try:
            pair = totals[record.tag, record.mtype]
        except KeyError:
            totals[record.tag, record.mtype] = [
                send_time, close_time, 1, record.wire_bytes]
            continue
        if send_time < pair[0]:
            pair[0] = send_time
        if close_time > pair[1]:
            pair[1] = close_time
        pair[2] += 1
        pair[3] += record.wire_bytes
    phases: Dict[str, Span] = {}
    for (record_tag, mtype), (open_time, close_time, messages,
                              message_bytes) in totals.items():
        phase = classify_phase(record_tag, mtype, tag)
        span = phases.get(phase)
        if span is None:
            phases[phase] = Span(
                name=phase, kind=KIND_PHASE, tag=tag, open_time=open_time,
                close_time=close_time, messages=messages,
                message_bytes=message_bytes,
                annotations={"mtypes": {mtype: messages}})
            continue
        span.open_time = min(span.open_time, open_time)
        span.close_time = max(span.close_time, close_time)
        span.messages += messages
        span.message_bytes += message_bytes
        mtypes = span.annotations["mtypes"]
        mtypes[mtype] = mtypes.get(mtype, 0) + messages
    spans = list(phases.values())
    spans.sort(key=lambda span: (span.open_time, span.name))
    return spans


def _quorum_annotations(releases: List[QuorumRelease]
                        ) -> List[Dict[str, Any]]:
    return [{
        "party": str(release.party),
        "tag": release.tag,
        "mtype": release.mtype,
        "threshold": release.threshold,
        "time": release.time,
        "released_by": release.releasing_msg_id,
    } for release in releases]


def build_spans(recorder: TraceRecorder,
                records: Optional[Dict[Tuple[str, str],
                                       List[MessageRecord]]] = None
                ) -> List[Span]:
    """Fold a recorded run into operation spans with nested phases.

    Returns one span per *completed* operation, ordered by completion.
    Operations still open at the end of the run get no span; they are
    the third element of :meth:`TraceRecorder.operations`.

    Every per-operation lookup (records, quorum releases, accepting
    servers) reads the recorder's index, so the fold is linear in the
    trace — no pass over the whole run per operation.  ``records`` is
    :func:`completed_operation_records`, when the caller already has it.
    """
    if records is None:
        records = completed_operation_records(recorder)
    pairs, _, _ = recorder.operations()
    spans = []
    for start, end in pairs:
        oid = start.payload[0] if start.payload else ""
        children = _phase_spans(records[start.tag, oid], start.tag)
        tail = max((span.close_time for span in children),
                   default=end.time) - end.time
        completion_record = recorder.messages.get(end.cause_id) \
            if end.cause_id is not None else None
        span = Span(
            name=f"{start.action} {oid}",
            kind=KIND_OPERATION,
            tag=start.tag,
            open_time=start.time,
            close_time=end.time,
            party=start.party,
            messages=sum(child.messages for child in children),
            message_bytes=sum(child.message_bytes
                              for child in children),
            annotations={
                "oid": oid,
                "op": start.action,
                "client": str(start.party),
                "completion_cause": end.cause_id,
                "latency_rounds": completion_record.depth
                if completion_record is not None else None,
                "quorum_releases": _quorum_annotations(
                    recorder.operation_releases(
                        start.tag, oid, start.party, start.time,
                        end.time)),
                "accepted_by": [
                    str(party) for party
                    in recorder.accepted_by(start.tag, oid)],
                "tail_time": max(tail, 0),
            },
            children=children)
        spans.append(span)
    return spans
