"""The causal tracing plane: recorder, spans, critical paths,
instruments, and bench emission."""

import json

import pytest

from repro.analysis.invariants import install_commit_invariant
from repro.analysis.trace import (
    COMPLETION_ACTIONS,
    OperationMatcher,
    match_operations,
)
from repro.cluster import build_cluster, run_register_case
from repro.common.errors import LivenessError, SimulationError
from repro.common.ids import TAG_SEP, client_id, server_id
from repro.config import SystemConfig
from repro.kv.bench import run_kv_case
from repro.net.message import (
    EVENT_CHAOS,
    EVENT_INPUT,
    EVENT_OUTPUT,
    LocalEvent,
    Message,
)
from repro.net.schedulers import FifoScheduler, RandomScheduler
from repro.obs import (
    KIND_OPERATION,
    KIND_PHASE,
    PHASE_DISPERSE,
    PHASE_LOCAL,
    PHASE_QUORUM_WAIT,
    PHASE_RBC,
    PHASE_RETRIEVE,
    PHASE_TS_QUERY,
    Counter,
    Gauge,
    HealthMonitor,
    Histogram,
    Registry,
    TraceRecorder,
    attribution_summary,
    build_spans,
    classify_phase,
    critical_path,
    emit_bench,
    operation_plane_traffic,
    operation_records,
    to_jsonable,
    wall_seconds,
)
from repro.obs.clock import WallTimer
from repro.repair.bench import CHURN_CASE, churn_storm_plan


@pytest.fixture
def traced_cluster():
    """A small Atomic run (n=4, t=1) with a tracer attached: one write
    and one read from different clients."""
    cluster = build_cluster(SystemConfig(n=4, t=1), protocol="atomic",
                            num_clients=2,
                            scheduler=RandomScheduler(0))
    recorder = TraceRecorder().attach(cluster.simulator)
    write = cluster.write(1, "reg", "w1", b"traced value")
    cluster.run()
    read = cluster.read(2, "reg", "r1")
    cluster.run()
    return cluster, recorder, write, read


# -- causal stamping -----------------------------------------------------------

def test_cause_links_point_to_earlier_deliveries(traced_cluster):
    _, recorder, _, _ = traced_cluster
    assert recorder.messages
    for record in recorder.messages.values():
        if record.cause_id is None:
            continue
        cause = recorder.record(record.cause_id)
        assert cause.deliver_time is not None
        assert cause.deliver_time <= record.send_time


def test_causal_chain_roots_at_spontaneous_send(traced_cluster):
    _, recorder, write, _ = traced_cluster
    assert write.completion_cause is not None
    chain = recorder.causal_chain(write.completion_cause)
    assert len(chain) >= 2
    assert chain[0].cause_id is None  # the client's own first send
    for earlier, later in zip(chain, chain[1:]):
        assert later.cause_id == earlier.msg_id
    # depth counts the hops of the causal spine
    assert chain[-1].depth == write.latency_rounds


def test_causal_chain_handles_missing_and_none():
    recorder = TraceRecorder()
    assert recorder.causal_chain(None) == []
    assert recorder.causal_chain(12345) == []
    with pytest.raises(SimulationError):
        recorder.record(12345)


def test_same_observer_attaches_once(traced_cluster):
    cluster, recorder, _, _ = traced_cluster
    with pytest.raises(SimulationError):
        recorder.attach(cluster.simulator)
    assert cluster.simulator.observers == (recorder,)


def test_untraced_simulator_pays_nothing():
    cluster = build_cluster(SystemConfig(n=4, t=1), protocol="atomic",
                            num_clients=1, scheduler=FifoScheduler())
    assert cluster.simulator.observers == ()
    cluster.write(1, "reg", "w1", b"value")
    cluster.run()  # no tracer attached: nothing recorded, nothing broken


# -- spans ---------------------------------------------------------------------

def test_operation_spans_nest_phases(traced_cluster):
    _, recorder, _, _ = traced_cluster
    spans = build_spans(recorder)
    assert [span.kind for span in spans] == [KIND_OPERATION] * 2
    write_span = next(s for s in spans if s.annotations["op"] == "write")
    read_span = next(s for s in spans if s.annotations["op"] == "read")

    phases = {child.name for child in write_span.children}
    assert {PHASE_TS_QUERY, PHASE_DISPERSE, PHASE_RBC,
            PHASE_QUORUM_WAIT} <= phases
    for child in write_span.children:
        assert child.kind == KIND_PHASE
        assert child.messages > 0
        assert child.message_bytes > 0
        assert child.open_time >= write_span.open_time
        assert sum(child.annotations["mtypes"].values()) == child.messages

    assert read_span.child(PHASE_RETRIEVE) is not None
    assert read_span.child(PHASE_DISPERSE) is None
    assert read_span.duration > 0


def test_span_annotations(traced_cluster):
    _, recorder, write, _ = traced_cluster
    spans = build_spans(recorder)
    write_span = next(s for s in spans if s.annotations["op"] == "write")
    annotations = write_span.annotations
    assert annotations["oid"] == "w1"
    assert annotations["client"] == "C1"
    assert annotations["completion_cause"] == write.completion_cause
    assert annotations["latency_rounds"] == write.latency_rounds
    assert annotations["tail_time"] >= 0
    # all n - t = 3 honest acks arrive before completion in a clean run
    assert len(annotations["accepted_by"]) >= 3


def test_quorum_releases_bound_to_operations(traced_cluster):
    _, recorder, _, _ = traced_cluster
    assert recorder.quorum_releases
    spans = build_spans(recorder)
    write_span = next(s for s in spans if s.annotations["op"] == "write")
    releases = write_span.annotations["quorum_releases"]
    ack_releases = [r for r in releases if r["mtype"] == "ack"]
    assert len(ack_releases) == 1
    assert ack_releases[0]["threshold"] == 3  # n - t
    released_by = ack_releases[0]["released_by"]
    if released_by is not None:
        assert recorder.record(released_by).mtype == "ack"


def test_classify_phase_fallback():
    assert classify_phase("reg", "avid-echo", "reg") == PHASE_DISPERSE
    assert classify_phase("reg|rbc.w1", "rbc-ready", "reg") == PHASE_RBC
    assert classify_phase("reg|disp.w1", "unknown-sub",
                          "reg") == PHASE_DISPERSE
    assert classify_phase("reg", "ack", "reg") == PHASE_QUORUM_WAIT
    # unknown register-tag mtypes name their own phase (baselines)
    assert classify_phase("reg", "store", "reg") == "store"
    # traffic of an unrelated instance never inherits sub-tag phases
    assert classify_phase("other|disp.w1", "unknown-sub", "reg") \
        == "unknown-sub"


def test_spans_on_overlapping_operations():
    cluster = build_cluster(SystemConfig(n=4, t=1), protocol="atomic",
                            num_clients=2,
                            scheduler=RandomScheduler(7))
    recorder = TraceRecorder().attach(cluster.simulator)
    cluster.write(1, "reg", "w-a", b"a" * 64)  # concurrent writers
    cluster.write(2, "reg", "w-b", b"b" * 64)
    cluster.run()
    spans = build_spans(recorder)
    assert {span.annotations["oid"] for span in spans} == {"w-a", "w-b"}
    # concurrent spans overlap in logical time yet keep their own traffic
    for span in spans:
        assert span.messages > 0
        path = critical_path(recorder, span)
        assert sum(path.attribution.values()) == span.duration


def test_spans_empty_run():
    recorder = TraceRecorder()
    assert build_spans(recorder) == []


# -- critical paths ------------------------------------------------------------

def test_critical_path_sums_to_duration(traced_cluster):
    _, recorder, _, _ = traced_cluster
    for span in build_spans(recorder):
        path = critical_path(recorder, span)
        assert path is not None
        assert sum(path.attribution.values()) == path.duration \
            == span.duration
        assert path.rounds == len(path.hops) > 0
        assert path.rounds == span.annotations["latency_rounds"]
        # the hop intervals telescope: queue waits + local gaps + the
        # final completion step reconstruct the duration exactly
        final_local = path.duration - sum(
            h.local_gap + h.queue_wait for h in path.hops)
        assert path.attribution.get(PHASE_LOCAL, 0) \
            == sum(h.local_gap for h in path.hops) + final_local


def test_write_path_crosses_disperse_and_quorum(traced_cluster):
    _, recorder, _, _ = traced_cluster
    spans = build_spans(recorder)
    write_span = next(s for s in spans if s.annotations["op"] == "write")
    path = critical_path(recorder, write_span)
    phases = {hop.phase for hop in path.hops}
    assert PHASE_QUORUM_WAIT in phases  # the final ack hop
    assert phases & {PHASE_DISPERSE, PHASE_RBC}
    assert path.dominant_phase() in path.attribution
    summary = attribution_summary(path)
    assert all(phase in summary for phase in path.attribution)


def test_critical_path_rejects_non_operation_spans(traced_cluster):
    _, recorder, _, _ = traced_cluster
    span = build_spans(recorder)[0].children[0]  # a phase span
    assert critical_path(recorder, span) is None


# -- instruments ---------------------------------------------------------------

def test_counter_monotonic():
    counter = Counter("c")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    with pytest.raises(SimulationError):
        counter.inc(-1)


def test_gauge_extremes():
    gauge = Gauge("g")
    assert gauge.summary()["samples"] == 0
    for value in (5, 2, 9):
        gauge.set(value)
    assert gauge.value == 9
    assert gauge.min_value == 2 and gauge.max_value == 9
    assert gauge.summary()["samples"] == 3


def test_histogram_percentiles():
    histogram = Histogram("h")
    assert histogram.percentile(50) == 0.0
    for value in range(1, 101):
        histogram.record(value)
    assert histogram.count == 100
    assert histogram.mean == pytest.approx(50.5)
    assert histogram.percentile(0) == 1
    assert histogram.percentile(50) == 51  # nearest-rank on 0..99
    assert histogram.percentile(100) == 100
    with pytest.raises(SimulationError):
        histogram.percentile(101)


def test_registry_create_or_get_and_kind_conflict():
    registry = Registry()
    assert registry.counter("net.sent") is registry.counter("net.sent")
    registry.gauge("depth")
    with pytest.raises(SimulationError):
        registry.counter("depth")
    assert registry.names() == ["depth", "net.sent"]
    snapshot = registry.snapshot()
    assert snapshot["net.sent"] == {"type": "counter", "value": 0}


def test_builtin_instruments_populated(traced_cluster):
    _, recorder, _, _ = traced_cluster
    registry = recorder.registry
    sent = registry.counter("net.sent").value
    delivered = registry.counter("net.delivered").value
    assert sent == len(recorder.messages)
    assert 0 < delivered <= sent
    assert registry.histogram("wire.bytes[avid-echo]").count > 0
    assert registry.gauge("inbox.depth[P1]").samples > 0
    assert registry.counter("quorum.released").value \
        == len(recorder.quorum_releases)
    rounds = registry.histogram("quorum.rounds[ack]")
    assert rounds.count >= 1


# -- wall clock quarantine -----------------------------------------------------

def test_wall_clock_measures_and_records():
    start = wall_seconds()
    assert wall_seconds() >= start
    histogram = Histogram("wall")
    with WallTimer(histogram) as timer:
        pass
    assert timer.elapsed >= 0.0
    assert histogram.count == 1


# -- metrics scoping -----------------------------------------------------------

def test_metrics_scoped_isolates_one_operation():
    cluster = build_cluster(SystemConfig(n=4, t=1), protocol="atomic",
                            num_clients=1, scheduler=FifoScheduler())
    cluster.write(1, "reg", "prime", b"prime")
    cluster.run()
    metrics = cluster.simulator.metrics
    before = metrics.message_complexity("reg")
    with metrics.scoped() as scope:
        cluster.write(1, "reg", "w", b"scoped")
        cluster.run()
    assert scope.messages == metrics.message_complexity("reg") - before
    assert scope.message_bytes > 0
    with metrics.scoped() as idle:
        pass
    assert idle.messages == 0 and idle.message_bytes == 0


# -- bench emission ------------------------------------------------------------

def test_emit_bench_roundtrip(tmp_path):
    path = emit_bench("unit", {"rows": [1, 2], "party": "ok"},
                      directory=tmp_path)
    assert path == tmp_path / "BENCH_unit.json"
    document = json.loads(path.read_text())
    assert document == {"bench": "unit",
                        "data": {"rows": [1, 2], "party": "ok"}}


def test_emit_bench_disabled_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_DIR", raising=False)
    assert emit_bench("unit", {"x": 1}) is None


def test_emit_bench_env_configuration(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path / "sub"))
    path = emit_bench("env", [to_jsonable(b"\x00\x01")])
    assert path is not None and path.parent == tmp_path / "sub"
    assert json.loads(path.read_text())["data"] == [{"bytes": 2}]


def test_to_jsonable_shapes():
    from dataclasses import dataclass

    @dataclass
    class Row:
        n: int
        blob: bytes

    assert to_jsonable(Row(4, b"abc")) == {"n": 4, "blob": {"bytes": 3}}
    assert to_jsonable((1, "x", None)) == [1, "x", None]
    assert to_jsonable({2: 3.5}) == {"2": 3.5}


# -- critical paths under injected faults --------------------------------------

def _traced_write(rules):
    """One FIFO-scheduled write, optionally under delay rules; returns
    the write's critical path."""
    from repro.chaos.injector import FaultInjector
    from repro.chaos.plan import FaultPlan, FaultRule  # noqa: F401
    cluster = build_cluster(SystemConfig(n=4, t=1), protocol="atomic",
                            num_clients=1, scheduler=FifoScheduler())
    recorder = TraceRecorder().attach(cluster.simulator)
    if rules:
        plan = FaultPlan(name="hold", faulty=(1,), rules=rules)
        cluster.simulator.attach_injector(FaultInjector(plan))
    cluster.write(1, "reg", "w1", b"delayed value")
    cluster.run()
    spans = [span for span in build_spans(recorder)
             if span.annotations.get("oid") == "w1"]
    assert len(spans) == 1
    path = critical_path(recorder, spans[0])
    assert path is not None
    return path


def test_injected_delays_show_as_attributed_wait():
    """The satellite case: a ``delay`` FaultPlan's hold must *show up*
    in the critical-path attribution, not vanish.  Holding the traffic
    of two servers forces the quorum to wait on released messages; the
    telescoping decomposition stays exact, so every extra tick of the
    slower run is attributed to some phase (here the sender-side
    ``local`` share of the causal spine)."""
    from repro.chaos.plan import FaultRule
    clean = _traced_write(())
    delayed = _traced_write((
        FaultRule(kind="delay", party=1, limit=40, delay=150),
        FaultRule(kind="delay", party=2, limit=40, delay=150)))
    # exact telescoping with and without injected holds
    assert sum(clean.attribution.values()) == clean.duration
    assert sum(delayed.attribution.values()) == delayed.duration
    # the hold is visible end to end ...
    assert delayed.duration > clean.duration
    # ... and lands in the attribution: the surplus is exactly the
    # growth of the phase shares, dominated by the spine's wait on
    # released messages
    surplus = delayed.duration - clean.duration
    growth = sum(delayed.attribution.values()) \
        - sum(clean.attribution.values())
    assert growth == surplus
    assert delayed.attribution[PHASE_LOCAL] \
        > clean.attribution[PHASE_LOCAL]
    assert delayed.dominant_phase() == PHASE_LOCAL


# -- the per-operation index ---------------------------------------------------
#
# The recorder files what it records under the operation(s) it can
# belong to, and every per-operation query reads one bucket.  The full
# scans the index replaced survive here, as the reference the indexed
# queries must equal: same records, same order.

def _scan_belongs(record, tag, oid):
    if record.tag == tag:
        return record.oid == oid
    if record.tag.startswith(tag + TAG_SEP):
        return record.tag.rsplit(TAG_SEP, 1)[1].partition(".")[2] == oid
    return False


def _scan_operation_records(recorder, tag, oid):
    return [record for record in recorder.messages.values()
            if _scan_belongs(record, tag, oid)]


def _scan_records_under(recorder, tag_prefix):
    return [record for record in recorder.messages.values()
            if record.tag == tag_prefix
            or record.tag.startswith(tag_prefix + TAG_SEP)]


def _scan_releases(recorder, tag, oid, client, open_time, close_time):
    bound = []
    for release in recorder.quorum_releases:
        if release.releasing_msg_id is not None:
            record = recorder.messages.get(release.releasing_msg_id)
            if record is not None and _scan_belongs(record, tag, oid):
                bound.append(release)
        elif (release.tag == tag and release.party == client
              and open_time <= release.time <= close_time):
            bound.append(release)
    return bound


def _scan_match_operations(events):
    """The whole-log matcher the streaming one replaced: LIFO per
    ``(tag, oid, client, kind)``."""
    open_by_key, pairs, unmatched = {}, [], []
    for event in events:
        oid = event.payload[0] if event.payload else None
        if event.kind == EVENT_INPUT and event.action in ("write", "read"):
            open_by_key.setdefault(
                (event.tag, oid, event.party, event.action), []).append(event)
        elif event.kind == EVENT_OUTPUT \
                and event.action in COMPLETION_ACTIONS:
            stack = open_by_key.get((event.tag, oid, event.party,
                                     COMPLETION_ACTIONS[event.action]))
            if stack:
                pairs.append((stack.pop(), event))
            else:
                unmatched.append(event)
    still_open = sorted((invocation for stack in open_by_key.values()
                         for invocation in stack), key=lambda e: e.time)
    return pairs, unmatched, still_open


def _assert_matchers_agree(events):
    """The streaming matcher, fed one event at a time, and
    ``match_operations`` both equal the whole-log scan."""
    reference = _scan_match_operations(events)
    matcher = OperationMatcher()
    pairs = []
    for event in events:
        pair = matcher.feed(event)
        if pair is not None:
            pairs.append(pair)
    assert (pairs, matcher.unmatched, matcher.open_invocations()) \
        == reference
    assert match_operations(events) == reference
    return reference


def _scan_accepted_by(recorder, tag, oid):
    return [event.party for event in recorder.events
            if event.kind == EVENT_OUTPUT
            and event.action == "write-accepted" and event.tag == tag
            and event.payload and event.payload[0] == oid]


def _assert_index_equals_scan(recorder, min_operations=1):
    """Every indexed per-operation query equals its full-scan
    reference, for every completed *and* still-open operation."""
    matched = _assert_matchers_agree(recorder.events)
    assert recorder.operations() == matched
    pairs, _, still_open = matched
    end_of_run = max((event.time for event in recorder.events), default=0)
    operations = [(start, end.time) for start, end in pairs] \
        + [(start, end_of_run) for start in still_open]
    assert len(operations) >= min_operations
    for start, close_time in operations:
        tag, oid = start.tag, start.payload[0]
        records = operation_records(recorder, tag, oid)
        reference = _scan_operation_records(recorder, tag, oid)
        assert len(records) == len(reference)
        assert all(mine is theirs
                   for mine, theirs in zip(records, reference))
        assert recorder.operation_releases(
            tag, oid, start.party, start.time, close_time) \
            == _scan_releases(recorder, tag, oid, start.party,
                              start.time, close_time)
        assert recorder.accepted_by(tag, oid) \
            == _scan_accepted_by(recorder, tag, oid)
    for tag in sorted({record.tag for record
                       in recorder.messages.values()}):
        assert recorder.records_under(tag) \
            == _scan_records_under(recorder, tag)
    return operations


@pytest.mark.parametrize("protocol", ["atomic", "atomic_ns", "atomic_md"])
def test_index_equals_scan_on_register_runs(protocol):
    recorder = TraceRecorder()
    _, cluster = run_register_case(protocol, 4, 1, seed=3, tracer=recorder)
    cluster.client(1).invoke_write("reg", "w-open", b"never finishes")
    for _ in range(6):  # a few deliveries only: the write stays open
        cluster.simulator.step()
    operations = _assert_index_equals_scan(recorder, min_operations=7)
    open_tag, open_oid = "reg", "w-open"
    assert (open_tag, open_oid) in {
        (start.tag, start.payload[0]) for start, _ in operations}
    assert operation_records(recorder, open_tag, open_oid)
    assert not any(span.annotations["oid"] == open_oid
                   for span in build_spans(recorder))


def test_index_equals_scan_on_a_sharded_kv_run():
    _, cluster = run_kv_case(4, n=4, t=1, ops=48, seed=3)
    (recorder,) = cluster.simulator.observers
    operations = _assert_index_equals_scan(recorder, min_operations=40)
    assert len({start.tag for start, _ in operations}) > 4


def test_index_keeps_one_oid_on_two_registers_apart():
    """Operation identifiers are only unique per register: the same oid
    running on two registers at once must not leak across them."""
    cluster = build_cluster(SystemConfig(n=4, t=1), protocol="atomic",
                            num_clients=2, scheduler=RandomScheduler(5))
    recorder = TraceRecorder().attach(cluster.simulator)
    cluster.client(1).invoke_write("left", "w1", b"left value")
    cluster.client(2).invoke_write("right", "w1", b"right value")
    cluster.run()
    _assert_index_equals_scan(recorder, min_operations=2)
    left = operation_records(recorder, "left", "w1")
    right = operation_records(recorder, "right", "w1")
    assert left and right
    assert all(record.tag.split(TAG_SEP)[0] == "left" for record in left)
    assert all(record.tag.split(TAG_SEP)[0] == "right"
               for record in right)
    spans = {span.tag: span for span in build_spans(recorder)}
    assert spans["left"].messages == len(left)
    assert spans["right"].messages == len(right)


@pytest.mark.parametrize("plan_name", ["duplicates", "delays"])
def test_index_equals_scan_under_chaos(plan_name):
    """Duplicate clones are recorded under fresh ``msg_id``s; held
    messages are recorded when released, so send order is not id
    order.  The index follows recording order either way."""
    _, cluster = run_kv_case(4, n=4, t=1, ops=48, seed=1,
                             plan=plan_name)
    (recorder,) = cluster.simulator.observers
    assert any(event.kind == EVENT_CHAOS
               for event in cluster.simulator.event_log)
    if plan_name == "delays":
        assert list(recorder.messages) != sorted(recorder.messages)
    _assert_index_equals_scan(recorder, min_operations=40)


def test_index_equals_scan_on_a_stalled_kv_run_with_retries():
    """The unrepaired churn storm stalls after its sessions retried:
    retried and never-completed operations both reach the matchers."""
    plan = churn_storm_plan(7, 2, first_crash=20, stagger=80,
                            replace_after=30)
    with pytest.raises(LivenessError) as stall:
        run_kv_case(2, n=7, t=2, sessions=2, keys=4, ops=48, seed=0,
                    value_size=32, plan=plan, **CHURN_CASE)
    assert stall.value.stats["retries"] > 0
    (recorder,) = stall.value.cluster.simulator.observers
    _assert_index_equals_scan(recorder, min_operations=30)
    assert recorder.operations()[2]  # operations the stall left open


def test_matchers_close_a_reused_key_lifo():
    """A reused operation key closes its invocations LIFO; a completion
    with nothing open is unmatched, not dropped."""
    client = client_id(1)

    def event(time, kind, action, oid="w1"):
        return LocalEvent(time, client, kind, "reg", action, (oid,))

    first = event(1, EVENT_INPUT, "write")
    second = event(2, EVENT_INPUT, "write")
    ack = event(3, EVENT_OUTPUT, "ack")
    stray = event(4, EVENT_OUTPUT, "read", oid="r9")
    read = event(5, EVENT_INPUT, "read", oid="r1")
    assert _assert_matchers_agree([first, second, ack, stray, read]) \
        == ([(second, ack)], [stray], [first, read])


def _watched_md_case(monitor):
    """One cached ``atomic_md`` kv case with a Byzantine data plane
    (verification failures, cache counters, quorum releases)."""
    return run_kv_case(2, n=4, t=1, protocol="atomic_md", ops=48,
                       write_ratio=0.25, seed=4, byzantine="corrupt-block",
                       cache_size=2, lease_ticks=32, monitor=monitor)


class _MonitorWithNeighbours(HealthMonitor):
    """A monitor whose ``attach`` also attaches a plain recorder and the
    commit invariant, so the kv runner drives all of them at once."""

    def attach(self, simulator):
        super().attach(simulator)
        self.neighbour = TraceRecorder().attach(simulator)
        install_commit_invariant(simulator, "kv.s0.k0")
        return self


def test_observers_attach_side_by_side():
    """A monitor, a second recorder and an invariant's send observer
    watch one run together; each sees what it would see alone."""
    monitor = _MonitorWithNeighbours()
    row, cluster = _watched_md_case(monitor)
    observers = cluster.simulator.observers
    assert observers[:3] == (monitor.recorder, monitor, monitor.neighbour)
    assert len(observers) == 4  # the invariant's send observer
    assert row.verify_failures > 0
    mine, theirs = monitor.recorder, monitor.neighbour
    assert mine.messages == theirs.messages
    assert mine.events == theirs.events
    assert mine.quorum_releases == theirs.quorum_releases
    snapshot = mine.registry.snapshot()
    assert snapshot == theirs.registry.snapshot()
    assert any(name.startswith("kv.cache[") for name in snapshot)
    assert any(name.startswith("verify.failed[") for name in snapshot)
    alone = HealthMonitor()
    _watched_md_case(alone)
    assert monitor.snapshot() == alone.snapshot()
    assert snapshot == alone.recorder.registry.snapshot()


def _hand_recorder():
    """A hand-built trace around register ``ID``: nested sub-instances,
    a colliding oid on another register, a look-alike root, a payload
    oid that disagrees with its sub-instance tag, and a dotless one."""
    recorder = TraceRecorder()
    traffic = [
        ("ID", "get-ts", ("w1",)),
        ("ID|disp.w1", "avid-send", (b"block",)),
        ("ID|a.x|disp.w1", "avid-echo", (b"block",)),
        ("ID|a.x", "ack", ("w1",)),
        ("ID2", "get-ts", ("w1",)),
        ("ID2|disp.w1", "avid-send", (b"block",)),
        ("IDX|disp.w1", "avid-send", (b"block",)),
        ("ID|rbc.w1", "rbc-echo", ("w2",)),
        ("ID|disp", "avid-send", (7,)),
        ("ID", "ack", ("w2",)),
        ("ID", "noise", ()),
        ("ID|a.x|rbc.w1", "rbc-ready", ("w1",)),
    ]
    for msg_id, (tag, mtype, payload) in enumerate(traffic):
        recorder.on_send(Message(tag=tag, mtype=mtype,
                                 sender=client_id(1),
                                 recipient=server_id(1),
                                 payload=payload, msg_id=msg_id),
                         time=msg_id)
    return recorder


_HAND_QUERIES = [("ID", "w1"), ("ID|a.x", "w1"), ("ID", "w2"),
                 ("ID", ""), ("ID2", "w1"), ("IDX", "w1"),
                 ("ID|a", "w1"), ("I", "w1"), ("ID", "w3"),
                 ("nowhere", "w1")]


def test_index_on_nested_and_colliding_tags():
    recorder = _hand_recorder()
    for tag, oid in _HAND_QUERIES:
        assert operation_records(recorder, tag, oid) \
            == _scan_operation_records(recorder, tag, oid), (tag, oid)
        assert recorder.records_under(tag) \
            == _scan_records_under(recorder, tag), tag
    # the nested Disperse instance belongs to the operation of both
    # the register and the intermediate instance it hangs off
    nested = recorder.messages[2]
    assert nested in operation_records(recorder, "ID", "w1")
    assert nested in operation_records(recorder, "ID|a.x", "w1")
    assert [record.msg_id
            for record in operation_records(recorder, "ID", "w1")] \
        == [0, 1, 2, 7, 11]
    assert operation_records(recorder, "nowhere", "w1") == []
    assert operation_records(recorder, "ID", "w3") == []
    assert recorder.records_under("nowhere") == []


def test_index_binds_unwaited_releases_in_release_order():
    """Releases that never waited are bound by tag, client and time
    window and interleave with the waited ones in release order."""
    recorder = _hand_recorder()
    client = client_id(1)

    def release(time, tag, releasing_msg_id, party=client):
        recorder.on_quorum(time, party, tag, "ack", 3, (),
                           releasing_msg_id)

    release(1, "ID", None)          # in window, unwaited
    release(2, "ID", 0)             # waited, tipped by ID/w1 traffic
    release(2, "ID", None)          # same tick, after the waited one
    release(3, "ID", 9)             # tipped by w2's ack: not w1's
    release(3, "ID", None, party=client_id(2))  # another client
    release(4, "ID|a.x", 11)        # nested sub-instance traffic of w1
    release(5, "ID", 4242)          # tipping arrival never recorded
    release(9, "ID", None)          # outside the window
    for tag, oid in _HAND_QUERIES:
        assert recorder.operation_releases(tag, oid, client, 0, 5) \
            == _scan_releases(recorder, tag, oid, client, 0, 5)
    bound = recorder.operation_releases("ID", "w1", client, 0, 5)
    assert [recorder.quorum_releases.index(release)
            for release in bound] == [0, 1, 2, 5]


def test_index_agrees_with_messages_when_a_msg_id_is_recorded_twice():
    """Simulators never reuse a ``msg_id``; if a tracer is fed one
    twice, the last write wins in ``messages`` — keeping the first
    write's position — and the index says the same."""
    recorder = _hand_recorder()
    recorder.on_quorum(3, client_id(1), "ID", "ack", 3, (), 1)
    recorder.on_send(Message(tag="ID2|disp.w9", mtype="avid-send",
                             sender=client_id(1), recipient=server_id(2),
                             payload=(b"moved",), msg_id=1), time=40)
    assert recorder.messages[1].tag == "ID2|disp.w9"
    assert list(recorder.messages)[1] == 1  # position of the first write
    for tag, oid in _HAND_QUERIES + [("ID2", "w9")]:
        assert operation_records(recorder, tag, oid) \
            == _scan_operation_records(recorder, tag, oid), (tag, oid)
        assert recorder.records_under(tag) \
            == _scan_records_under(recorder, tag), tag
        assert recorder.operation_releases(tag, oid, client_id(1), 0, 9) \
            == _scan_releases(recorder, tag, oid, client_id(1), 0, 9)
    assert recorder.messages[1] not in operation_records(
        recorder, "ID", "w1")
    assert operation_records(recorder, "ID2", "w9") \
        == [recorder.messages[1]]
    assert len(recorder.operation_releases(
        "ID2", "w9", client_id(1), 0, 9)) == 1


class _CountingDict(dict):
    """A dict that counts full iterations (lookups stay free)."""

    scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()

    def keys(self):
        self.scans += 1
        return super().keys()

    def values(self):
        self.scans += 1
        return super().values()

    def items(self):
        self.scans += 1
        return super().items()


class _CountingList(list):
    """A list that counts full iterations (indexing stays free)."""

    scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


def _attribution_scans(ops):
    """Full iterations of each trace container over a whole
    ``ops``-operation kv-bench row: the traced run, the row's columns,
    then the two attribution consumers once more."""
    monitor = HealthMonitor()  # the supported way to hand a recorder in
    recorder = monitor.recorder
    recorder.messages = _CountingDict()
    recorder.events = _CountingList()
    recorder.quorum_releases = _CountingList()
    run_kv_case(4, n=4, t=1, ops=ops, seed=2, monitor=monitor)
    spans = build_spans(recorder)
    operation_plane_traffic(recorder)
    assert len(spans) >= ops * 3 // 4  # all but the coalesced writes
    return {"operations": len(spans),
            "messages": recorder.messages.scans,
            "events": recorder.events.scans,
            "quorum_releases": recorder.quorum_releases.scans}


def test_attribution_never_rescans_the_trace_per_operation():
    """The guard that keeps the quadratic from coming back, by count
    not by clock: attributing a run iterates each trace container a
    small constant number of times, however many operations it has."""
    small, large = _attribution_scans(24), _attribution_scans(96)
    assert large.pop("operations") >= 3 * small.pop("operations")
    assert small == large
    # one pass for the row's whole-run columns, one match of the
    # events shared by every consumer, and no pass over the releases
    assert small == {"messages": 1, "events": 1, "quorum_releases": 0}
