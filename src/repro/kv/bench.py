"""End-to-end load harness for the kv plane (``repro kv-bench``).

One benchmark *case* (:func:`run_kv_case`) runs a seeded Zipf/uniform
multi-key workload against a kv deployment with a given shard count —
optionally under a chaos plan, with a Byzantine server, with session
caches, with the repair plane attached — and reports:

* **throughput** — completed operations per logical tick.  A tick is
  one simulator delivery, so ops/tick directly measures how densely the
  envelope layer batches inner protocol traffic; more shards admit more
  concurrent operations per session, which packs more inner messages
  into each envelope.
* **per-phase latency attribution** — operation spans from
  ``repro.obs`` (timestamp query, dispersal, reliable broadcast,
  quorum waits, retrieval), summed per phase across all operations.
* **per-key linearizability** — every key's completed history must
  pass :func:`repro.analysis.linearizability.check_atomicity`.
* **plane split** — wire bytes divided metadata-plane vs data-plane
  (:mod:`repro.obs.planes`), whole-run and attributed to reads alone.

A *comparison* (:class:`Comparison`) is a named set of cases over one
pinned workload, with the summary, acceptance gates and table that go
with it: :data:`SWEEP`, :data:`MD_COMPARE` and :data:`READHEAVY` live
here, the churn storm in :mod:`repro.repair.bench`.
:func:`run_comparison` runs one into the payload
:func:`repro.obs.emit_bench` writes as ``BENCH_*.json``;
:func:`check_comparison` holds such a payload to the gates.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.linearizability import (
    KIND_READ,
    KIND_WRITE,
    HistoryOp,
    check_atomicity,
)
from repro.chaos.library import builtin_plan
from repro.chaos.injector import FaultInjector
from repro.chaos.plan import ByzantineSpec, FaultPlan
from repro.cluster import default_k, protocol_classes
from repro.common.errors import LivenessError
from repro.config import SystemConfig
from repro.faults.failstop import fault_overrides
from repro.kv.cluster import (
    KvCluster,
    KvServer,
    build_kv_cluster,
    drive,
)
from repro.kv.directory import KvDirectory
from repro.kv.envelope import MSG_KV_BATCH
from repro.kv.session import KvSession
from repro.obs import (
    PHASE_BLOCK_PUSH,
    PHASE_COMMIT,
    PHASE_QUORUM_WAIT,
    PHASE_RETRIEVE,
    PHASE_TS_QUERY,
    MessageRecord,
    TraceRecorder,
    build_spans,
    completed_operation_records,
    operation_plane_traffic,
    plane_traffic,
)
from repro.obs.recorder import WIRE_BYTES
from repro.workloads.kv import DEFAULT_SHIFT_EVERY, kv_workload

#: Prefix distinguishing kv operation spans from other traffic.
_KV_SPAN_PREFIX = "kv.s"

#: Row columns serialized rounded, and to how many digits.
_ROUNDED = {"ops_per_tick": 6, "batch_factor": 3, "reads_per_tick": 6}


@dataclass
class KvBenchRow:
    """One measured kv-bench case (one shard count, one plan)."""

    shards: int
    protocol: str
    plan: Optional[str]
    sessions: int
    keys: int
    ops: int
    completed: int
    ticks: int
    ops_per_tick: float
    envelopes: int
    inner_messages: int
    wire_bytes: int
    batch_factor: float
    retries: int
    backpressure_hits: int
    coalesced: int
    keys_checked: int
    linearizable: bool
    #: whole-run wire bytes split by plane (envelopes excluded)
    metadata_bytes: int = 0
    data_bytes: int = 0
    #: plane split attributed to completed reads only
    read_metadata_bytes: int = 0
    read_data_bytes: int = 0
    #: completed read operations
    reads_completed: int = 0
    #: always 0: AtomicMd reads have no second, block-fetch round trip
    #: (each ``md-meta`` carries its sender's block).  Kept only because
    #: the kvperf benchmark reads both columns; they go when it does.
    block_fetches: int = 0
    block_misses: int = 0
    #: failed cryptographic checks observed anywhere in the run — a
    #: Byzantine block server shows up here
    verify_failures: int = 0
    #: session read-cache configuration and outcomes, summed across
    #: sessions (all zero when ``cache_size == 0``); ``reads_per_tick``
    #: is the read-heavy headline — leases complete reads with no wire
    #: traffic, so it can exceed the uncached protocol ceiling.
    cache_size: int = 0
    lease_ticks: int = 0
    reads_per_tick: float = 0.0
    lease_hits: int = 0
    revalidations: int = 0
    revalidate_hits: int = 0
    revalidate_fallbacks: int = 0
    phase_ticks: Dict[str, int] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        """The row as a plain JSON-serializable dictionary."""
        doc = {spec.name: getattr(self, spec.name)
               for spec in fields(self)}
        for name, digits in _ROUNDED.items():
            doc[name] = round(doc[name], digits)
        doc["phase_ticks"] = {name: self.phase_ticks[name]
                              for name in sorted(self.phase_ticks)}
        return doc


def _case_plan(plan: Union[None, str, FaultPlan],
               byzantine: Optional[str], n: int, t: int,
               seed: int) -> Optional[FaultPlan]:
    """The validated plan one case runs under (``None``: fault-free).

    A builtin name is scaled to the deployment; ``byzantine`` joins the
    plan as a :class:`~repro.chaos.plan.ByzantineSpec` on server ``n``
    — the conventional faulty designate of the builtin plans — so
    crashes and Byzantine behaviours are validated together and reach
    the cluster by one route.
    """
    if isinstance(plan, str):
        plan = builtin_plan(plan, n, t, seed=seed)
    if byzantine is not None:
        label = f"byz-{byzantine}"
        base = FaultPlan(seed=seed) if plan is None else plan
        plan = replace(
            base, name=label if plan is None else f"{plan.name}+{label}",
            faulty=base.faulty + (n,),
            byzantine=base.byzantine + (
                ByzantineSpec(server=n, behaviour=byzantine),))
    if plan is not None:
        plan.validate(n, t)
    return plan


def session_history(sessions: Sequence[KvSession]
                    ) -> Dict[str, List[HistoryOp]]:
    """Group every completed session handle into per-key histories.

    Handle intervals span submission to observed completion, which
    contains the inner operation's own interval — so any order the
    checker admits for these intervals is admissible for the real ones.
    Coalesced writes appear as their own operations (their values are
    never read, so they linearize immediately before their superseder).
    """
    histories: Dict[str, List[HistoryOp]] = {}
    counter = 0
    for session in sessions:
        for handle in session.handles:
            if not handle.done:
                continue
            counter += 1
            value = handle.value if handle.kind == KIND_WRITE \
                else handle.result
            histories.setdefault(handle.key, []).append(HistoryOp(
                kind=handle.kind, oid=f"s{session.index}.h{counter}",
                value=value, invoke=handle.invoke_time,
                complete=handle.complete_time))
    return histories


def check_kv_histories(sessions: Sequence[KvSession]) -> int:
    """Check per-key linearizability; returns the number of keys checked.

    Raises :class:`repro.common.errors.AtomicityViolation` on the first
    key whose history admits no atomic order.
    """
    histories = session_history(sessions)
    for key in sorted(histories):
        check_atomicity(histories[key], initial_value=b"")
    return len(histories)


def _phase_attribution(recorder: TraceRecorder,
                       records: Dict[Tuple[str, str], List[MessageRecord]]
                       ) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for span in build_spans(recorder, records):
        if not span.tag.startswith(_KV_SPAN_PREFIX):
            continue
        for child in span.children:
            totals[child.name] = totals.get(child.name, 0) \
                + child.duration
    return totals


def run_kv_case(num_shards: int, n: int = 4, t: int = 1,
                protocol: str = "atomic", sessions: int = 4,
                keys: int = 32, ops: int = 96,
                write_ratio: float = 0.5, distribution: str = "zipf",
                zipf_exponent: float = 1.1, seed: int = 0,
                value_size: int = 64,
                plan: Union[None, str, FaultPlan] = None,
                max_attempts: int = 4, monitor=None,
                shard_k: Optional[int] = None,
                shift_every: int = DEFAULT_SHIFT_EVERY,
                byzantine: Optional[str] = None,
                cache_size: int = 0, lease_ticks: int = 0,
                invoke_probability: float = 0.25,
                batch_size: Optional[int] = None
                ) -> Tuple[KvBenchRow, KvCluster]:
    """Run one kv-bench case and return ``(row, cluster)``.

    The one place a kv deployment is built, faulted, instrumented,
    driven and measured: ``kv-bench`` and its comparisons, ``repro
    repair`` and ``repro monitor --source kv-bench`` all call it.

    ``plan`` is the case's faults: a builtin chaos plan's name (scaled
    to ``n``/``t``), a :class:`~repro.chaos.plan.FaultPlan`, or ``None``
    for a fault-free run.  ``byzantine`` makes the last fleet server
    run one of
    :data:`~repro.faults.byzantine_servers.BYZANTINE_BEHAVIOURS` that
    deviates from ``protocol``'s server.  On ``atomic_md`` a
    within-budget Byzantine data plane (corrupted or missing blocks)
    makes every read that evaluates its block take another agreeing
    server's instead; stale or forged metadata attacks cache
    revalidation.  It travels inside the plan, so a plan that also
    crashes that server, or already spends the budget ``t``, is
    rejected instead of one fault masking the other.  The row's
    ``plan`` column reads the plan's name (``byz-<name>`` for a
    Byzantine-only case), so the case never counts as fault-free.

    ``monitor`` (a :class:`repro.obs.health.HealthMonitor`) attaches
    with its recorder when given — that recorder then feeds the row's
    traffic/phase columns and the monitor's per-shard series feed
    ``repro monitor``; otherwise a fresh recorder does.

    ``shard_k`` pins every shard's erasure threshold.  When
    ``protocol`` is ``atomic_md`` and ``shard_k`` is unset, ``k = t + 1``
    is chosen automatically (:func:`repro.cluster.default_k`).

    ``cache_size``/``lease_ticks`` enable session-cached reads with
    metadata-only revalidation and local lease serving (see
    :mod:`repro.kv.session_cache`); both default off, which keeps
    uncached schedules byte-identical.  ``invoke_probability`` is the
    drive loop's per-step submission density (how aggressively the
    closed-loop clients push while the network is busy).

    ``batch_size`` attaches the repair plane with that many concurrent
    repair rounds (:func:`repro.repair.attach_repair`; the coordinator
    is ``cluster.repair``); ``None`` leaves it off.

    When the drive loop loses liveness the case is still finished —
    what completed is checked atomic, the row built from the counters
    the loop had reached — and the
    :class:`~repro.common.errors.LivenessError` is re-raised carrying
    ``row`` and ``cluster``: a caller that *expects* the stall (the
    unrepaired churn storm) reports it, everyone else fails as before.
    """
    fleet = SystemConfig(n=n, t=t, seed=seed)
    directory = KvDirectory(fleet, num_shards,
                            shard_k=default_k(protocol, t, shard_k))
    plan = _case_plan(plan, byzantine, n, t, seed)
    cluster = build_kv_cluster(
        directory, protocol=protocol, num_sessions=sessions,
        scheduler=(plan or FaultPlan()).build_scheduler(seed),
        server_overrides=None if plan is None else fault_overrides(
            plan, protocol_classes(protocol)[0], host=KvServer),
        max_attempts=max_attempts,
        cache_size=cache_size, lease_ticks=lease_ticks)
    if monitor is not None:
        recorder = monitor.attach(cluster.simulator).recorder
    else:
        recorder = TraceRecorder().attach(cluster.simulator)
    if plan is not None:
        cluster.simulator.attach_injector(FaultInjector(plan))
    if batch_size is not None:
        # Imported here: repro.repair builds on repro.kv.cluster, whose
        # package imports this module.
        from repro.repair.coordinator import attach_repair
        attach_repair(cluster, plan=plan, batch_size=batch_size,
                      monitor=monitor)
    workload = kv_workload(
        num_sessions=sessions, num_keys=keys, ops=ops,
        write_ratio=write_ratio, distribution=distribution,
        zipf_exponent=zipf_exponent, seed=seed, value_size=value_size,
        shift_every=shift_every)
    stall = None
    try:
        stats = drive(cluster, workload, seed=seed,
                      invoke_probability=invoke_probability)
    except LivenessError as error:
        if error.stats is None:
            raise  # a protocol's own liveness failure, not a drive stall
        stall, stats = error, error.stats
    if monitor is not None:
        monitor.finalize()
    row = collect_kv_row(recorder, cluster, stats,
                         num_shards=num_shards, protocol=protocol,
                         plan_label=None if plan is None else plan.name,
                         sessions=sessions, keys=keys, ops=ops,
                         cache_size=cache_size, lease_ticks=lease_ticks)
    if stall is not None:
        stall.row, stall.cluster = row, cluster
        raise stall
    return row, cluster


def collect_kv_row(recorder: TraceRecorder, cluster: KvCluster,
                   stats: Dict[str, int], *, num_shards: int,
                   protocol: str, plan_label: Optional[str],
                   sessions: int, keys: int, ops: int,
                   cache_size: int = 0, lease_ticks: int = 0
                   ) -> KvBenchRow:
    """Measure a driven kv cluster into a :class:`KvBenchRow`.

    ``stats`` is what :func:`~repro.kv.cluster.drive` returned — or,
    for a run that stalled, what its
    :class:`~repro.common.errors.LivenessError` carried.  Per-key
    linearizability of whatever history *did* complete is always
    checked (it raises on violation), so even a run that lost liveness
    proves its completed operations atomic.
    """
    keys_checked = check_kv_histories(cluster.sessions)
    coalesced = reads_completed = 0
    cache_stats = {name: 0 for name in
                   ("lease_hits", "revalidations", "revalidate_hits",
                    "revalidate_fallbacks")}
    for session in cluster.sessions:
        for handle in session.handles:
            if handle.coalesced:
                coalesced += 1
            if handle.kind == KIND_READ and handle.done:
                reads_completed += 1
        for name in cache_stats:
            cache_stats[name] += session.cache.stats[name]
    ticks = cluster.simulator.time
    # The whole-run columns read the recorder's instruments, which
    # sample every record once (``wire.bytes[mtype]``: one value per
    # message sent); the per-operation ones below read its index.
    registry = recorder.registry
    planes = plane_traffic(recorder)
    inner = planes.metadata_messages + planes.data_messages
    envelopes = wire_bytes = 0
    batch_sizes = f"{WIRE_BYTES}{MSG_KV_BATCH}]"
    if batch_sizes in registry.names():
        sizes = registry.histogram(batch_sizes)
        envelopes, wire_bytes = sizes.count, sizes.total
    verify_failures = sum(
        registry.counter(name).value for name in registry.names()
        if name.startswith("verify.failed.by["))
    records = completed_operation_records(recorder)
    read_planes = operation_plane_traffic(recorder, records)["read"]
    return KvBenchRow(
        shards=num_shards, protocol=protocol, plan=plan_label,
        sessions=sessions, keys=keys, ops=ops,
        completed=stats["completed"], ticks=ticks,
        ops_per_tick=stats["completed"] / ticks if ticks else 0.0,
        envelopes=envelopes, inner_messages=inner,
        wire_bytes=wire_bytes,
        batch_factor=inner / envelopes if envelopes else 0.0,
        retries=stats["retries"],
        backpressure_hits=stats["backpressure_hits"],
        coalesced=coalesced, keys_checked=keys_checked,
        linearizable=True,
        metadata_bytes=planes.metadata_bytes,
        data_bytes=planes.data_bytes,
        read_metadata_bytes=read_planes.metadata_bytes,
        read_data_bytes=read_planes.data_bytes,
        reads_completed=reads_completed,
        verify_failures=verify_failures,
        cache_size=cache_size, lease_ticks=lease_ticks,
        reads_per_tick=reads_completed / ticks if ticks else 0.0,
        lease_hits=cache_stats["lease_hits"],
        revalidations=cache_stats["revalidations"],
        revalidate_hits=cache_stats["revalidate_hits"],
        revalidate_fallbacks=cache_stats["revalidate_fallbacks"],
        phase_ticks=_phase_attribution(recorder, records))


# -- comparisons ----------------------------------------------------------------


def _case_column(label: str, cluster: KvCluster,
                 stalled: bool) -> Dict[str, Any]:
    return {"case": label}


@dataclass(frozen=True)
class Comparison:
    """A named set of kv cases over one pinned workload: everything a
    committed ``BENCH_kv_*.json`` needs — how to run it, shrink it,
    summarize it, gate it and print it — as one table entry.

    ``shape`` holds the :func:`run_kv_case` arguments every case shares
    and ``settings`` what only ``cases`` reads; together they are the
    document's ``config`` block, each entry overridable per run.
    """

    #: default ``BENCH_<label>.json`` name
    label: str
    shape: Dict[str, Any]
    settings: Dict[str, Any]
    #: config overrides of the ``--smoke`` profile
    smoke: Dict[str, Any]
    #: ``config -> [(case label, run_kv_case overrides)]``
    cases: Callable[[Dict[str, Any]], List[Tuple[str, Dict[str, Any]]]]
    #: row columns to print, in order
    table: Sequence[str]
    #: ``payload -> {acceptance gate: whether the payload meets it}``,
    #: when the document backs a claim
    gates: Optional[Callable[[Dict[str, Any]], Dict[str, bool]]] = None
    #: ``(config, rows) -> summary block``, when the document has one
    summary: Optional[Callable[[Dict[str, Any], List[Dict[str, Any]]],
                               Any]] = None
    #: ``(label, cluster, stalled) -> columns`` put in front of the
    #: :class:`KvBenchRow` ones
    columns: Optional[Callable[[str, KvCluster, bool],
                               Dict[str, Any]]] = None
    #: cases that may lose liveness; anywhere else a stall propagates
    may_stall: FrozenSet[str] = frozenset()


def run_comparison(comparison: Comparison,
                   overrides: Optional[Dict[str, Any]] = None,
                   smoke: bool = False) -> Dict[str, Any]:
    """Run every case of ``comparison`` and build its payload.

    The config is the pinned shape and settings, shrunk by the smoke
    profile when asked, then by ``overrides``.  A custom
    :class:`~repro.chaos.plan.FaultPlan` a case runs under is recorded
    whole as ``config["plan"]`` — builtin plans are settings already,
    by name.
    """
    config = {**comparison.shape, **comparison.settings,
              **(comparison.smoke if smoke else {}), **(overrides or {})}
    shape = {name: config[name] for name in comparison.shape}
    rows: List[Dict[str, Any]] = []
    for label, case in comparison.cases(config):
        stalled = False
        try:
            row, cluster = run_kv_case(**{**shape, **case})
        except LivenessError as stall:
            if label not in comparison.may_stall:
                raise
            row, cluster, stalled = stall.row, stall.cluster, True
        if isinstance(case.get("plan"), FaultPlan):
            config["plan"] = case["plan"].to_json()
        leading = (comparison.columns(label, cluster, stalled)
                   if comparison.columns is not None else {})
        rows.append({**leading, **row.to_json()})
    payload = {"config": config, "rows": rows}
    if comparison.summary is not None:
        payload["summary"] = comparison.summary(config, rows)
    return payload


def check_comparison(comparison: Comparison,
                     payload: Dict[str, Any]) -> List[str]:
    """The acceptance gates ``payload`` fails (none: the document
    supports its claim); a document too incomplete to judge fails."""
    try:
        gates = comparison.gates(payload) if comparison.gates else {}
    except (KeyError, IndexError) as error:
        return [f"document lacks {error.args[0]!r}"]
    return [gate for gate, met in gates.items() if not met]


def _all_linearizable(payload: Dict[str, Any]) -> bool:
    return all(row["linearizable"] for row in payload["rows"])


def _sweep_cases(config):
    cases = [(f"shards={shards}", {"num_shards": shards})
             for shards in config["shards"]]
    if config["chaos_plan"] is not None and config["shards"]:
        # the chaos case reuses the largest shard count, so one sweep
        # shows both scaling and fault recovery
        cases.append(("chaos", {"num_shards": max(config["shards"]),
                                "plan": config["chaos_plan"]}))
    return cases


#: The shard sweep plus one chaos case (``repro kv-bench``; the
#: committed ``benchmarks/BENCH_kv_baseline.json``).
SWEEP = Comparison(
    label="kv",
    shape={"n": 4, "t": 1, "protocol": "atomic", "sessions": 4,
           "keys": 32, "ops": 96, "write_ratio": 0.5,
           "distribution": "zipf", "zipf_exponent": 1.1, "seed": 0,
           "value_size": 64, "shard_k": None,
           "shift_every": DEFAULT_SHIFT_EVERY, "cache_size": 0,
           "lease_ticks": 0},
    settings={"shards": [1, 4, 16], "chaos_plan": "delays"},
    smoke={"shards": [1, 2], "sessions": 2, "keys": 8, "ops": 24,
           "value_size": 32},
    cases=_sweep_cases,
    table=("shards", "plan", "ops_per_tick", "ticks", "batch_factor",
           "retries", "backpressure_hits", "linearizable",
           "metadata_bytes", "data_bytes", "read_data_bytes",
           "reads_per_tick", "lease_hits", "revalidations",
           "revalidate_fallbacks"))


def _md_cases(config):
    cases = [(f"n{n}t{t}:{protocol}",
              {"n": n, "t": t, "protocol": protocol})
             for n, t in config["deployments"]
             for protocol in ("atomic_ns", "atomic_md")]
    if config["byzantine"] is not None:
        n, t = config["deployments"][-1]
        cases.append(("byzantine",
                      {"n": n, "t": t, "protocol": "atomic_md",
                       "byzantine": config["byzantine"]}))
    return cases


def _md_columns(label, cluster, stalled):
    fleet = cluster.directory.fleet_config
    return {"n": fleet.n, "t": fleet.t}


def _md_summary(config, rows):
    summary = []
    for n, t in config["deployments"]:
        by_protocol = {row["protocol"]: row for row in rows
                       if (row["n"], row["t"]) == (n, t)
                       and "byz" not in (row["plan"] or "")}
        ns, md = by_protocol["atomic_ns"], by_protocol["atomic_md"]
        summary.append({
            "n": n, "t": t,
            "read_data_bytes_atomic_ns": ns["read_data_bytes"],
            "read_data_bytes_atomic_md": md["read_data_bytes"],
            "read_data_bytes_ratio": round(
                ns["read_data_bytes"] / md["read_data_bytes"], 3)
            if md["read_data_bytes"] else 0.0,
            "ops_per_tick_ratio": round(
                md["ops_per_tick"] / ns["ops_per_tick"], 3)
            if ns["ops_per_tick"] else 0.0,
        })
    return summary


#: The phases an ``atomic_md`` kv operation may spend ticks in: the
#: two-phase write's and the one-round-trip read's.
_MD_PHASES = frozenset((PHASE_TS_QUERY, PHASE_BLOCK_PUSH, PHASE_COMMIT,
                        PHASE_QUORUM_WAIT, PHASE_RETRIEVE))


def _md_gates(p):
    largest = p["summary"][-1]
    return {
        "every row linearizable": _all_linearizable(p),
        "a summary entry per configured deployment":
            [[entry["n"], entry["t"]] for entry in p["summary"]]
            == p["config"]["deployments"],
        "reads move data-plane bytes under both protocols":
            all(entry["read_data_bytes_atomic_ns"] > 0
                and entry["read_data_bytes_atomic_md"] > 0
                for entry in p["summary"]),
        "atomic_md serves >= 1.5x the ops per tick of atomic_ns at the "
        "largest deployment":
            largest["ops_per_tick_ratio"] >= 1.5,
        "a Byzantine case whose corrupt blocks failed verification":
            any(row["verify_failures"] > 0 for row in p["rows"]
                if (row["plan"] or "").startswith("byz-")),
        "every atomic_md row reads in one round trip (no block-fetch "
        "phase)":
            all(set(row["phase_ticks"]) <= _MD_PHASES for row in p["rows"]
                if row["protocol"] == "atomic_md"),
    }


#: Head-to-head ``atomic_ns`` vs ``atomic_md`` (``kv-bench
#: --md-compare``; ``benchmarks/BENCH_kv_md.json``): for each ``(n, t)``
#: deployment both protocols run the *same* read-mostly
#: drifting-hot-set workload at their canonical erasure thresholds
#: (``k = n - t`` for atomic_ns, ``k = t + 1`` for atomic_md), and the
#: summary reports the read-attributed data-plane byte ratio and the
#: ops-per-tick ratio.  A final ``byzantine`` case re-runs atomic_md at
#: the largest deployment with one corrupt-data-plane server, pinning
#: that reads skip its blocks (and still linearize).
MD_COMPARE = Comparison(
    label="kv_md",
    shape={"num_shards": 4, "sessions": 4, "keys": 32, "ops": 96,
           "write_ratio": 0.1, "distribution": "zipf-shift",
           "zipf_exponent": 1.1, "seed": 0, "value_size": 64,
           "shift_every": DEFAULT_SHIFT_EVERY},
    settings={"deployments": [[4, 1], [7, 2]],
              "byzantine": "corrupt-block"},
    smoke={"sessions": 2, "keys": 8, "ops": 24, "value_size": 32},
    cases=_md_cases, columns=_md_columns, summary=_md_summary,
    table=("n", "t", "protocol", "plan", "ops_per_tick", "linearizable",
           "read_metadata_bytes", "read_data_bytes", "verify_failures"),
    gates=_md_gates)


def _readheavy_cases(config):
    cached = {"cache_size": config["cache_size"],
              "lease_ticks": config["lease_ticks"]}
    return [
        ("uncached", {}),
        ("cached", cached),
        ("cached+chaos", {**cached, "plan": config["chaos_plan"]}),
        ("cached+byz-stale", {**cached, "byzantine": "stale-meta"}),
        ("cached+byz-forged", {**cached, "byzantine": "forged-meta"}),
    ]


def _readheavy_summary(config, rows):
    by_case = {row["case"]: row for row in rows}
    base = by_case["uncached"]["reads_per_tick"]
    boosted = by_case["cached"]["reads_per_tick"]
    return {
        "reads_per_tick_uncached": base,
        "reads_per_tick_cached": boosted,
        "read_throughput_ratio": round(boosted / base, 3) if base
        else 0.0,
        "all_linearizable": all(row["linearizable"] for row in rows),
        "lease_hits_cached": by_case["cached"]["lease_hits"],
        "revalidations_cached": by_case["cached"]["revalidations"],
        "fallbacks_forged": by_case["cached+byz-forged"][
            "revalidate_fallbacks"],
    }


def _readheavy_gates(p):
    cases = {row["case"]: row for row in p["rows"]}
    summary = p["summary"]
    return {
        "exactly the five cases": set(cases) == {
            "uncached", "cached", "cached+chaos", "cached+byz-stale",
            "cached+byz-forged"},
        "every case linearizable":
            _all_linearizable(p) and summary["all_linearizable"] is True,
        # 4.5 since one-round-trip reads: the uncached reads they speed
        # up gained 1.23x, the cached case 1.07x (lease hits had no
        # round trip to lose), so the ratio fell from 5.67 to 4.91.
        "read throughput ratio > 4.5":
            summary["read_throughput_ratio"] > 4.5,
        "the cached case served lease hits":
            summary["lease_hits_cached"] > 0,
        "the cached case revalidated successfully":
            cases["cached"]["revalidate_hits"] > 0,
        "the forged-metadata case fell back to full reads":
            cases["cached+byz-forged"]["revalidate_fallbacks"] > 0,
    }


#: Cached vs uncached ``atomic_md`` on one read-heavy workload
#: (``kv-bench --readheavy``; ``benchmarks/BENCH_kv_readheavy.json``):
#: the same 90/10 Zipf workload runs once uncached and once with
#: session-cached reads and leases; the summary reports the
#: read-throughput ratio (``reads_per_tick`` cached over uncached) — the
#: number the session cache is judged on.  Three adversarial cases
#: re-run the cached configuration under the ``chaos_plan`` builtin and
#: with one Byzantine metadata server per flavour (``stale-meta``
#: understates at revalidation and is outvoted by the quorum maximum;
#: ``forged-meta`` inflates and only forces the full-read fallback).
#: Every row's per-key histories pass ``check_atomicity`` — the cache
#: trades wire traffic for bookkeeping, never consistency.
READHEAVY = Comparison(
    label="kv_readheavy",
    shape={"n": 4, "t": 1, "protocol": "atomic_md", "num_shards": 4,
           "sessions": 4, "keys": 8, "ops": 576, "write_ratio": 0.1,
           "distribution": "zipf", "zipf_exponent": 1.5, "seed": 0,
           "value_size": 64, "invoke_probability": 1.0},
    settings={"cache_size": 32, "lease_ticks": 128,
              "chaos_plan": "delays"},
    smoke={"sessions": 2, "keys": 4, "ops": 48, "value_size": 32},
    cases=_readheavy_cases, columns=_case_column,
    summary=_readheavy_summary,
    table=("case", "reads_per_tick", "ticks", "linearizable",
           "lease_hits", "revalidations", "revalidate_hits",
           "revalidate_fallbacks"),
    gates=_readheavy_gates)
