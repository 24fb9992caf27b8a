"""Per-server health scoring and run-level telemetry aggregation.

The protocols tolerate ``t < n/3`` Byzantine servers, but tolerating a
fault is not the same as *noticing* one: an operator wants to know which
servers are drifting toward the fault budget while reads still succeed.
:class:`HealthMonitor` is the runtime layer that answers this.  It is a
simulator observer that attaches side by side with its own
:class:`~repro.obs.recorder.TraceRecorder` (keeping the full causal
trace) and folds every callback into:

* **windowed time-series** (:mod:`repro.obs.timeseries`): bucketed
  throughput/latency/in-flight rollups, per op type and per kv shard;
* **per-server suspicion scores**: a deterministic weighted blend of
  the Byzantine signals one run exposes —

  - *verification failures* (``verify``): well-formed messages whose
    commitment/signature check failed; honest servers never produce
    one, so this saturates quickly;
  - *missed quorum participation* (``quorum``): how often the server
    was absent from released quorums it should have fed;
  - *silence* (``silence``): send deficit relative to the chattiest
    server — a crashed or withholding server goes quiet;
  - *chaos attribution* (``chaos``): injected drops/delays/corruptions
    the fault plan attributed to the server;
  - *re-broadcast anomalies* (``rebroadcast``): per-message-type send
    counts far above the fleet median — duplicate floods;

* **SLO burn rates** (:mod:`repro.obs.slo`): every completed (or
  abandoned) operation classified good/bad against declarative
  latency/availability objectives.

All signals are derived from the logical clock and sorted iteration,
so two runs of the same seed produce identical scores, series, and
alerts.  The monitor is measurement-only: it never writes events, never
ticks the clock, and never feeds back into scheduling — attaching it
preserves golden-schedule digests byte for byte.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.trace import OperationMatcher
from repro.common.ids import PartyId
from repro.net.message import LocalEvent, Message
from repro.obs.planes import (
    TRANSPORT_MTYPES,
    PlaneTraffic,
    plane_of_mtype,
)
from repro.obs.recorder import TraceRecorder
from repro.obs.slo import (
    KIND_REPLICATION,
    SloSpec,
    SloTracker,
    default_slos,
)
from repro.obs.timeseries import TimeSeriesStore

#: Default blend of suspicion components.  Verification failures are the
#: strongest signal (cryptographically attributable), silence and missed
#: quorums catch crash-like behaviour, chaos attribution folds in the
#: fault plan's own bookkeeping, re-broadcast anomalies catch floods.
DEFAULT_WEIGHTS: Dict[str, float] = {
    "verify": 0.30,
    "quorum": 0.25,
    "silence": 0.25,
    "chaos": 0.15,
    "rebroadcast": 0.05,
}

#: Re-broadcast excess (sends above fleet median for one message type)
#: at which that component reaches 0.5.
_REBROADCAST_HALFPOINT = 8


def shard_of_tag(tag: str) -> Optional[int]:
    """The kv shard index encoded in a register tag (``kv.s<shard>.*``),
    or ``None`` for non-sharded traffic."""
    if not tag.startswith("kv.s"):
        return None
    head = tag[4:].split(".", 1)[0]
    try:
        return int(head)
    except ValueError:
        return None


class HealthMonitor:
    """Observer that scores server health and rolls telemetry into
    windowed series; attach with :meth:`attach` before the run.

    Parameters
    ----------
    recorder:
        The :class:`TraceRecorder` :meth:`attach` attaches beside the
        monitor (one is created when omitted); its full causal trace
        stays available as ``monitor.recorder`` for span/critical-path
        analysis.
    bucket_ticks / max_buckets:
        Time-series geometry (see :mod:`repro.obs.timeseries`).
    slos:
        Objectives to evaluate (:func:`repro.obs.slo.default_slos`
        when omitted).
    weights:
        Suspicion component weights (:data:`DEFAULT_WEIGHTS` merged
        with any overrides).
    """

    def __init__(self, recorder: Optional[TraceRecorder] = None,
                 bucket_ticks: int = 32, max_buckets: int = 512,
                 slos: Optional[Sequence[SloSpec]] = None,
                 weights: Optional[Dict[str, float]] = None):
        self.recorder = recorder if recorder is not None \
            else TraceRecorder()
        self.store = TimeSeriesStore(bucket_ticks=bucket_ticks,
                                     max_buckets=max_buckets)
        self.slos = list(slos) if slos is not None else default_slos()
        self.trackers = [SloTracker(spec) for spec in self.slos]
        self.weights = dict(DEFAULT_WEIGHTS)
        if weights:
            self.weights.update(weights)
        self._simulator = None
        #: run totals split metadata-plane vs data-plane (transport
        #: envelopes excluded; see :mod:`repro.obs.planes`)
        self.planes = PlaneTraffic()
        # -- per-server signal accumulators (keyed by PartyId) --------
        self._sends: Dict[PartyId, int] = {}
        self._sends_by_type: Dict[Tuple[PartyId, str], int] = {}
        self._verify_fails: Dict[PartyId, int] = {}
        self._chaos_hits: Dict[PartyId, int] = {}
        self._quorum_present: Dict[PartyId, int] = {}
        self._quorum_missed: Dict[PartyId, int] = {}
        # -- operation lifecycle --------------------------------------
        self._operations = OperationMatcher()
        # oid -> (op kind, tag); feeds replication-skew classification
        self._op_meta: Dict[str, Tuple[str, str]] = {}
        # oid -> {server: first delivery time of the op's traffic}
        self._op_delivery: Dict[str, Dict[PartyId, int]] = {}
        self.ops_completed = 0
        self.ops_abandoned = 0
        self._finalized = False

    # -- attachment ----------------------------------------------------------

    def attach(self, simulator) -> "HealthMonitor":
        """Attach the recorder, then the monitor, to a simulator as two
        observers side by side; returns ``self`` for chaining."""
        self.recorder.attach(simulator)
        simulator.add_observer(self)
        self._simulator = simulator
        return self

    @property
    def roster(self) -> List[PartyId]:
        """Server identities under health scoring, in index order."""
        if self._simulator is None:
            return []
        return self._simulator.server_pids

    @property
    def bucket_ticks(self) -> int:
        return self.store.bucket_ticks

    # -- observer callbacks --------------------------------------------------

    def on_send(self, message: Message, time: int,
                pending: int = 0) -> None:
        """Count the send per server/mtype, split its bytes by wire
        plane, and sample the in-flight gauge."""
        sender = message.sender
        if sender.is_server:
            self._sends[sender] = self._sends.get(sender, 0) + 1
            key = (sender, message.mtype)
            self._sends_by_type[key] = self._sends_by_type.get(key, 0) + 1
        self.store.counter("net.sent").record(time)
        self.store.gauge("net.in_flight").record(time, pending)
        if message.mtype not in TRANSPORT_MTYPES:
            wire_bytes = message.wire_size()
            self.planes.observe(message.mtype, wire_bytes)
            plane = plane_of_mtype(message.mtype)
            self.store.counter(
                f"plane.bytes[{plane}]").record(time, wire_bytes)

    def on_deliver(self, message: Message, time: int,
                   inbox_depth: int = 0, pending: int = 0) -> None:
        """Roll the delivery into the series and note each server's
        first sight of an operation's traffic (replication skew)."""
        self.store.counter("net.delivered").record(time)
        self.store.gauge("net.in_flight").record(time, pending)
        if message.recipient.is_server and message.payload \
                and isinstance(message.payload[0], str):
            arrivals = self._op_delivery.get(message.payload[0])
            if arrivals is not None \
                    and message.recipient not in arrivals:
                arrivals[message.recipient] = time

    def on_input(self, event: LocalEvent) -> None:
        """Open an operation: start its lifecycle tracking and count
        the invocation."""
        self._operations.feed(event)
        if event.action in ("write", "read"):
            oid = event.payload[0] if event.payload else None
            if isinstance(oid, str):
                self._op_meta[oid] = (event.action, event.tag)
                self._op_delivery.setdefault(oid, {})
            self.store.counter(
                f"ops.invoked[{event.action}]").record(event.time)

    def on_output(self, event: LocalEvent) -> None:
        """Close the matching invocation (:class:`OperationMatcher`)
        and classify the completed operation against the SLOs."""
        pair = self._operations.feed(event)
        if pair is not None:
            self._complete(*pair)

    def on_quorum(self, time: int, party: PartyId, tag: str, mtype: str,
                  threshold: int, quorum_msg_ids: Tuple[int, ...],
                  releasing_msg_id: Optional[int]) -> None:
        """Mark each roster server present in or absent from the
        released quorum (the missed-participation signal; reads the
        records of the recorder attached before it)."""
        messages = self.recorder.messages
        participants = set()
        for msg_id in quorum_msg_ids:
            record = messages.get(msg_id)
            if record is not None and record.sender.is_server:
                participants.add(record.sender)
        if not participants:
            return  # client-fed quorum: no server signal in it
        for server in self.roster:
            if server in participants:
                self._quorum_present[server] = \
                    self._quorum_present.get(server, 0) + 1
            else:
                self._quorum_missed[server] = \
                    self._quorum_missed.get(server, 0) + 1

    def on_verify_fail(self, party: PartyId, suspect: PartyId, tag: str,
                       mtype: str) -> None:
        """Charge a failed commitment/signature check to the suspect
        — the strongest (cryptographically attributable) signal."""
        self._verify_fails[suspect] = \
            self._verify_fails.get(suspect, 0) + 1
        time = self._simulator.time if self._simulator is not None \
            else self.store.horizon
        self.store.counter("verify.failed").record(time)

    def on_tick(self, time: int) -> None:
        """Per-delivery flush hook: advances the bucket horizon."""
        self.store.observe_time(time)

    def on_chaos(self, event: LocalEvent) -> None:
        """Fold an injected-fault event into chaos attribution (held
        messages being *released* are bookkeeping, not new faults)."""
        if event.action.startswith("release["):
            return
        party = event.party
        if party.is_server:
            self._chaos_hits[party] = self._chaos_hits.get(party, 0) + 1
        self.store.counter(
            f"chaos.events[{event.action}]").record(event.time)

    # -- operation accounting ------------------------------------------------

    def _complete(self, invocation: LocalEvent,
                  completion: LocalEvent) -> None:
        kind = invocation.action
        latency = completion.time - invocation.time
        time = completion.time
        self.ops_completed += 1
        self.store.counter(f"ops.completed[{kind}]").record(time)
        self.store.digest(f"ops.latency[{kind}]").record(time, latency)
        shard = shard_of_tag(invocation.tag)
        if shard is not None:
            self.store.counter(f"shard.ops[s{shard}]").record(time)
            self.store.digest(
                f"shard.latency[s{shard}]").record(time, latency)
        bucket = time // self.store.bucket_ticks
        for tracker in self.trackers:
            # replication specs are judged at finalize, once the op's
            # traffic has finished propagating
            if tracker.spec.kind != KIND_REPLICATION \
                    and tracker.spec.matches(kind, shard):
                tracker.observe(bucket,
                                tracker.spec.is_good(True, latency))

    def finalize(self) -> None:
        """Close the run: every still-open invocation becomes a *bad*
        SLO observation anchored to its invocation bucket, and every
        operation's replication skew — how far the last fleet member
        lagged the quorum median in receiving its traffic, known only
        once propagation settled — is classified against the
        ``replication`` objectives.  Idempotent.
        """
        if self._finalized:
            return
        self._finalized = True
        for invocation in self._operations.open_invocations():
            self.ops_abandoned += 1
            kind = invocation.action
            shard = shard_of_tag(invocation.tag)
            bucket = invocation.time // self.store.bucket_ticks
            for tracker in self.trackers:
                if tracker.spec.kind != KIND_REPLICATION \
                        and tracker.spec.matches(kind, shard):
                    tracker.observe(bucket,
                                    tracker.spec.is_good(False, None))
        self._classify_replication()

    def _classify_replication(self) -> None:
        """Judge per-op replication skew (last fleet arrival minus the
        median arrival) against ``replication`` specs, anchored to the
        bucket where the last arrival landed."""
        observations = []
        for oid in sorted(self._op_delivery):
            arrivals = sorted(self._op_delivery[oid].values())
            if len(arrivals) < 2:
                continue
            skew = arrivals[-1] - arrivals[len(arrivals) // 2]
            observations.append((arrivals[-1], skew, oid))
        observations.sort()
        for settle_time, skew, oid in observations:
            kind, tag = self._op_meta[oid]
            shard = shard_of_tag(tag)
            self.store.digest("ops.replication_skew").record(
                settle_time, skew)
            bucket = settle_time // self.store.bucket_ticks
            for tracker in self.trackers:
                if tracker.spec.kind == KIND_REPLICATION \
                        and tracker.spec.matches(kind, shard):
                    tracker.observe(bucket,
                                    tracker.spec.is_good(True, skew))

    # -- health scoring ------------------------------------------------------

    def _components(self, server: PartyId,
                    max_sends: int,
                    rebroadcast_excess: Dict[PartyId, int]
                    ) -> Dict[str, float]:
        fails = self._verify_fails.get(server, 0)
        verify = fails / (fails + 2)
        present = self._quorum_present.get(server, 0)
        missed = self._quorum_missed.get(server, 0)
        total_quorums = present + missed
        quorum = missed / total_quorums if total_quorums else 0.0
        sends = self._sends.get(server, 0)
        silence = 1.0 - sends / max_sends if max_sends else 0.0
        hits = self._chaos_hits.get(server, 0)
        chaos = hits / (hits + 4)
        excess = rebroadcast_excess.get(server, 0)
        rebroadcast = excess / (excess + _REBROADCAST_HALFPOINT) \
            if excess > 0 else 0.0
        return {"verify": verify, "quorum": quorum, "silence": silence,
                "chaos": chaos, "rebroadcast": rebroadcast}

    def _rebroadcast_excess(self) -> Dict[PartyId, int]:
        """Per-server sends above the fleet median, summed over message
        types (an honest fleet re-broadcasts symmetrically)."""
        roster = self.roster
        if not roster:
            return {}
        mtypes = sorted({mtype for (_, mtype) in self._sends_by_type})
        excess: Dict[PartyId, int] = {}
        for mtype in mtypes:
            counts = sorted(self._sends_by_type.get((server, mtype), 0)
                            for server in roster)
            median = counts[len(counts) // 2]
            for server in roster:
                over = self._sends_by_type.get((server, mtype), 0) \
                    - median
                if over > 0:
                    excess[server] = excess.get(server, 0) + over
        return excess

    def server_health(self) -> List[Dict[str, Any]]:
        """Per-server suspicion rows, in server index order.

        Each row carries the blended ``score`` (0 = healthy, → 1 =
        certainly misbehaving), the per-signal ``components``, and the
        raw ``signals`` they were derived from.
        """
        roster = self.roster
        max_sends = max((self._sends.get(server, 0)
                         for server in roster), default=0)
        excess = self._rebroadcast_excess()
        rows = []
        for server in roster:
            components = self._components(server, max_sends, excess)
            score = sum(self.weights[name] * value
                        for name, value in components.items())
            rows.append({
                "server": str(server),
                "score": round(score, 6),
                "components": {name: round(value, 6)
                               for name, value in
                               sorted(components.items())},
                "signals": {
                    "sends": self._sends.get(server, 0),
                    "verify_fails": self._verify_fails.get(server, 0),
                    "quorums_present":
                        self._quorum_present.get(server, 0),
                    "quorums_missed":
                        self._quorum_missed.get(server, 0),
                    "chaos_hits": self._chaos_hits.get(server, 0),
                    "rebroadcast_excess": excess.get(server, 0),
                },
            })
        return rows

    def suspicion_scores(self) -> Dict[str, float]:
        """``{server: score}`` in server index order."""
        return {row["server"]: row["score"]
                for row in self.server_health()}

    def plane_totals(self) -> Dict[str, int]:
        """Run-level metadata-plane vs data-plane message/byte totals
        (:meth:`PlaneTraffic.to_json` form; envelopes excluded)."""
        return self.planes.to_json()

    # -- SLO evaluation ------------------------------------------------------

    def slo_report(self) -> List[Dict[str, Any]]:
        """Every objective evaluated at the current horizon bucket
        (call :meth:`finalize` first so abandoned ops are counted)."""
        end_bucket = self.store.horizon_bucket
        return [tracker.evaluate(end_bucket)
                for tracker in self.trackers]

    def alerts(self) -> List[Dict[str, Any]]:
        """The subset of :meth:`slo_report` whose multi-window burn
        alert is firing."""
        return [entry for entry in self.slo_report() if entry["alert"]]

    # -- export --------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The whole telemetry state as one JSON-exportable payload:
        ops totals, health rows, SLO evaluations, and every series."""
        self.finalize()
        return {
            "bucket_ticks": self.store.bucket_ticks,
            "horizon": self.store.horizon,
            "ops": {"completed": self.ops_completed,
                    "abandoned": self.ops_abandoned},
            "planes": self.plane_totals(),
            "health": self.server_health(),
            "slos": self.slo_report(),
            "series": self.store.snapshot(),
        }
