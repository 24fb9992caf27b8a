"""End-to-end load harness for the kv plane (``repro kv-bench``).

One benchmark *case* runs a seeded Zipf/uniform multi-key workload
against a kv deployment with a given shard count, optionally under a
builtin chaos plan, and reports:

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
  (:mod:`repro.obs.planes`), whole-run and attributed to reads alone,
  which is the column the ``atomic_md`` metadata/data separation is
  judged on.

A *bench* sweeps shard counts (and one chaos case) and emits a
``BENCH_*.json`` payload via :func:`repro.obs.emit_bench`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.linearizability import (
    KIND_READ,
    KIND_WRITE,
    HistoryOp,
    check_atomicity,
)
from repro.chaos.library import builtin_plan
from repro.chaos.injector import FaultInjector
from repro.chaos.plan import FaultPlan
from repro.cluster import PROTOCOLS
from repro.common.errors import ConfigurationError
from repro.config import SystemConfig
from repro.core.atomic_md import MSG_BLOCK_MISS, MSG_GET_BLOCK
from repro.faults.byzantine_servers import BYZANTINE_BEHAVIOURS
from repro.kv.cluster import (
    FailStopKvServer,
    KvCluster,
    KvServer,
    build_kv_cluster,
    drive,
)
from repro.kv.directory import KvDirectory
from repro.kv.envelope import KV_TAG
from repro.kv.session import KvSession
from repro.net.schedulers import RandomScheduler, Scheduler
from repro.obs import (
    PlaneTraffic,
    TraceRecorder,
    build_spans,
    operation_plane_traffic,
)
from repro.workloads.kv import DEFAULT_SHIFT_EVERY, kv_workload

#: Prefix distinguishing kv operation spans from other traffic.
_KV_SPAN_PREFIX = "kv.s"

#: Byzantine cases ``run_kv_case(byzantine=...)`` accepts: one fleet
#: server serves corrupted blocks / claims universal misses (data
#: plane, forcing read escalation) or answers cache revalidation with
#: stale / forged-inflated metadata (metadata plane — stale replies
#: cannot defeat the quorum maximum, forged ones only force the
#: session's full-read fallback).  The canonical registry lives in
#: :mod:`repro.faults.byzantine_servers`, where chaos
#: :class:`~repro.chaos.plan.ByzantineSpec` entries resolve the same
#: names; this alias keeps the historical import path working.
BYZANTINE_MD_SERVERS = BYZANTINE_BEHAVIOURS


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
    #: plane split attributed to completed reads only — the column the
    #: metadata/data separation is judged on (a read should touch ``k``
    #: blocks, not ``n``)
    read_metadata_bytes: int = 0
    read_data_bytes: int = 0
    #: completed read operations, and AtomicMd data-plane activity:
    #: ``md-get-block`` requests sent and ``md-block-miss`` replies.
    #: Fault-free, ``block_fetches == k * reads`` per md read; anything
    #: beyond that (or any miss) means the reader escalated past its
    #: first ``k`` data-plane targets.
    reads_completed: int = 0
    block_fetches: int = 0
    block_misses: int = 0
    #: failed cryptographic checks observed anywhere in the run — a
    #: Byzantine block server shows up here, never in ``block_misses``
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
        return {
            "shards": self.shards, "protocol": self.protocol,
            "plan": self.plan, "sessions": self.sessions,
            "keys": self.keys, "ops": self.ops,
            "completed": self.completed, "ticks": self.ticks,
            "ops_per_tick": round(self.ops_per_tick, 6),
            "envelopes": self.envelopes,
            "inner_messages": self.inner_messages,
            "wire_bytes": self.wire_bytes,
            "batch_factor": round(self.batch_factor, 3),
            "retries": self.retries,
            "backpressure_hits": self.backpressure_hits,
            "coalesced": self.coalesced,
            "keys_checked": self.keys_checked,
            "linearizable": self.linearizable,
            "metadata_bytes": self.metadata_bytes,
            "data_bytes": self.data_bytes,
            "read_metadata_bytes": self.read_metadata_bytes,
            "read_data_bytes": self.read_data_bytes,
            "reads_completed": self.reads_completed,
            "block_fetches": self.block_fetches,
            "block_misses": self.block_misses,
            "verify_failures": self.verify_failures,
            "cache_size": self.cache_size,
            "lease_ticks": self.lease_ticks,
            "reads_per_tick": round(self.reads_per_tick, 6),
            "lease_hits": self.lease_hits,
            "revalidations": self.revalidations,
            "revalidate_hits": self.revalidate_hits,
            "revalidate_fallbacks": self.revalidate_fallbacks,
            "phase_ticks": {name: self.phase_ticks[name]
                            for name in sorted(self.phase_ticks)},
        }


def _chaos_overrides(plan: FaultPlan, server_cls) -> Optional[Dict]:
    if not plan.crashes and not plan.byzantine:
        return None
    overrides = {}
    for crash in plan.crashes:
        overrides[crash.server] = (
            lambda pid, directory, _crash=crash: FailStopKvServer(
                pid, directory, server_cls=server_cls,
                crash_after=_crash.after,
                recover_after=_crash.recover_after,
                trigger=_crash.trigger))
    for entry in plan.byzantine:
        overrides[entry.server] = (
            lambda pid, directory, _cls=entry.server_class(): KvServer(
                pid, directory, server_cls=_cls))
    return overrides


def _scheduler_for(plan: Optional[FaultPlan], seed: int) -> Scheduler:
    if plan is not None and plan.scheduler is not None:
        return plan.scheduler.build(seed)
    return RandomScheduler(seed)


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


def _phase_attribution(recorder: TraceRecorder) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for span in build_spans(recorder):
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
                value_size: int = 64, plan_name: Optional[str] = None,
                max_queue: int = 32, max_inflight_per_shard: int = 1,
                max_attempts: int = 4, monitor=None,
                shard_k: Optional[int] = None,
                protocol_overrides: Optional[Dict[int, str]] = None,
                shift_every: int = DEFAULT_SHIFT_EVERY,
                byzantine: Optional[str] = None,
                cache_size: int = 0, lease_ticks: int = 0,
                invoke_probability: float = 0.25
                ) -> Tuple[KvBenchRow, KvCluster]:
    """Run one kv-bench case and return ``(row, cluster)``.

    ``plan_name`` selects a builtin chaos plan (validated against
    ``n``/``t``); ``None`` runs fault-free.  ``monitor`` (a
    :class:`repro.obs.health.HealthMonitor`) takes the run's single
    tracer slot when given — its wrapped recorder feeds the row's
    traffic/phase columns and its per-shard series feed ``repro
    monitor``.

    ``protocol_overrides`` pins individual shards to other protocols
    (``{shard_id: name}``); ``shard_k`` pins every shard's erasure
    threshold.  When any shard runs ``atomic_md`` and ``shard_k`` is
    unset, ``k = t + 1`` is chosen automatically — the metadata/data
    separation requires ``k <= n - 2t``, and ``t + 1`` is valid for
    every protocol, so mixed-protocol deployments stay comparable.

    ``byzantine`` (``atomic_md`` only) makes the last fleet server run
    one of :data:`BYZANTINE_MD_SERVERS` — a within-budget Byzantine
    data plane (corrupted blocks or universal misses) that forces every
    read touching it to escalate past its first ``k`` fetch targets.
    The row's ``plan`` column reads ``byz-<name>`` so the case never
    counts as fault-free.

    ``cache_size``/``lease_ticks`` enable session-cached reads with
    metadata-only revalidation and local lease serving (see
    :mod:`repro.kv.session_cache`); both default off, which keeps
    uncached schedules byte-identical.  ``invoke_probability`` is the
    drive loop's per-step submission density (how aggressively the
    closed-loop clients push while the network is busy).
    """
    overrides_by_shard = dict(protocol_overrides or {})
    if shard_k is None and (
            protocol == "atomic_md"
            or "atomic_md" in overrides_by_shard.values()):
        shard_k = t + 1
    fleet = SystemConfig(n=n, t=t, seed=seed)
    directory = KvDirectory(fleet, num_shards, shard_k=shard_k,
                            protocol_overrides=overrides_by_shard)
    plan = None
    overrides = None
    if plan_name is not None:
        plan = builtin_plan(plan_name, n, t, seed=seed)
        plan.validate(n, t)
        overrides = _chaos_overrides(plan, PROTOCOLS[protocol][0])
    if byzantine is not None:
        if protocol != "atomic_md":
            raise ConfigurationError(
                f"byzantine={byzantine!r} requires protocol "
                f"'atomic_md', got {protocol!r}")
        byz_cls = BYZANTINE_MD_SERVERS.get(byzantine)
        if byz_cls is None:
            raise ConfigurationError(
                f"unknown byzantine case {byzantine!r}; choose from "
                f"{sorted(BYZANTINE_MD_SERVERS)}")
        overrides = dict(overrides or {})
        # The last fleet server is the conventional faulty designate
        # (matching the builtin chaos plans); a crash override for the
        # same index would mask the Byzantine behaviour, so it wins.
        overrides[n] = (lambda pid, directory: KvServer(
            pid, directory, server_cls=byz_cls))
    cluster = build_kv_cluster(
        directory, protocol=protocol, num_sessions=sessions,
        scheduler=_scheduler_for(plan, seed),
        server_overrides=overrides, max_queue=max_queue,
        max_inflight_per_shard=max_inflight_per_shard,
        max_attempts=max_attempts, cache_size=cache_size,
        lease_ticks=lease_ticks)
    if monitor is not None:
        recorder = monitor.attach(cluster.simulator).recorder
    else:
        recorder = TraceRecorder().attach(cluster.simulator)
    if plan is not None:
        cluster.simulator.attach_injector(FaultInjector(plan))
    workload = kv_workload(
        num_sessions=sessions, num_keys=keys, ops=ops,
        write_ratio=write_ratio, distribution=distribution,
        zipf_exponent=zipf_exponent, seed=seed, value_size=value_size,
        shift_every=shift_every)
    stats = drive(cluster, workload, seed=seed,
                  invoke_probability=invoke_probability)
    if monitor is not None:
        monitor.finalize()
    case_label = plan_name
    if byzantine is not None:
        byz_label = f"byz-{byzantine}"
        case_label = (byz_label if plan_name is None
                      else f"{plan_name}+{byz_label}")
    row = collect_kv_row(recorder, cluster, stats,
                         num_shards=num_shards, protocol=protocol,
                         plan_label=case_label, sessions=sessions,
                         keys=keys, ops=ops, cache_size=cache_size,
                         lease_ticks=lease_ticks)
    return row, cluster


def collect_kv_row(recorder: TraceRecorder, cluster: KvCluster,
                   stats: Dict[str, int], *, num_shards: int,
                   protocol: str, plan_label: Optional[str],
                   sessions: int, keys: int, ops: int,
                   cache_size: int = 0, lease_ticks: int = 0
                   ) -> KvBenchRow:
    """Measure a driven kv cluster into a :class:`KvBenchRow`.

    Shared by :func:`run_kv_case` and the churn harness
    (:mod:`repro.repair.bench`), which drives its own cluster — with a
    repair coordinator attached and liveness failures tolerated — but
    must report the same columns.  Per-key linearizability of whatever
    history *did* complete is always checked (it raises on violation),
    so even a run that lost liveness proves its completed operations
    atomic.
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
    # Every whole-run column comes out of one pass over the trace; the
    # per-operation ones below read the recorder's index.
    envelopes = inner = wire_bytes = block_fetches = block_misses = 0
    planes = PlaneTraffic()
    for record in recorder.messages.values():
        if record.tag == KV_TAG:
            envelopes += 1
            wire_bytes += record.wire_bytes
        else:
            inner += 1
        if record.mtype == MSG_GET_BLOCK:
            block_fetches += 1
        elif record.mtype == MSG_BLOCK_MISS:
            block_misses += 1
        planes.add(record)
    registry = recorder.registry
    verify_failures = sum(
        registry.counter(name).value for name in registry.names()
        if name.startswith("verify.failed.by["))
    read_planes = operation_plane_traffic(recorder)["read"]
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
        block_fetches=block_fetches, block_misses=block_misses,
        verify_failures=verify_failures,
        cache_size=cache_size, lease_ticks=lease_ticks,
        reads_per_tick=reads_completed / ticks if ticks else 0.0,
        lease_hits=cache_stats["lease_hits"],
        revalidations=cache_stats["revalidations"],
        revalidate_hits=cache_stats["revalidate_hits"],
        revalidate_fallbacks=cache_stats["revalidate_fallbacks"],
        phase_ticks=_phase_attribution(recorder))


def run_kv_bench(shard_counts: Sequence[int], n: int = 4, t: int = 1,
                 protocol: str = "atomic", sessions: int = 4,
                 keys: int = 32, ops: int = 96,
                 write_ratio: float = 0.5, distribution: str = "zipf",
                 zipf_exponent: float = 1.1, seed: int = 0,
                 value_size: int = 64,
                 chaos_plan: Optional[str] = "delays",
                 shard_k: Optional[int] = None,
                 shift_every: int = DEFAULT_SHIFT_EVERY,
                 cache_size: int = 0, lease_ticks: int = 0
                 ) -> Dict[str, Any]:
    """Sweep shard counts (plus one chaos case) and build the payload.

    The chaos case reuses the largest shard count under ``chaos_plan``
    so one sweep demonstrates both scaling and fault recovery; pass
    ``chaos_plan=None`` to skip it.
    """
    rows: List[KvBenchRow] = []
    for shards in shard_counts:
        row, _cluster = run_kv_case(
            shards, n=n, t=t, protocol=protocol, sessions=sessions,
            keys=keys, ops=ops, write_ratio=write_ratio,
            distribution=distribution, zipf_exponent=zipf_exponent,
            seed=seed, value_size=value_size, shard_k=shard_k,
            shift_every=shift_every, cache_size=cache_size,
            lease_ticks=lease_ticks)
        rows.append(row)
    if chaos_plan is not None and shard_counts:
        row, _cluster = run_kv_case(
            max(shard_counts), n=n, t=t, protocol=protocol,
            sessions=sessions, keys=keys, ops=ops,
            write_ratio=write_ratio, distribution=distribution,
            zipf_exponent=zipf_exponent, seed=seed,
            value_size=value_size, plan_name=chaos_plan,
            shard_k=shard_k, shift_every=shift_every,
            cache_size=cache_size, lease_ticks=lease_ticks)
        rows.append(row)
    return {
        "config": {"n": n, "t": t, "protocol": protocol,
                   "sessions": sessions, "keys": keys, "ops": ops,
                   "write_ratio": write_ratio,
                   "distribution": distribution,
                   "zipf_exponent": zipf_exponent, "seed": seed,
                   "value_size": value_size, "chaos_plan": chaos_plan,
                   "shard_k": shard_k, "shift_every": shift_every,
                   "cache_size": cache_size, "lease_ticks": lease_ticks},
        "rows": [row.to_json() for row in rows],
    }


def run_kv_md_comparison(deployments: Sequence[Tuple[int, int]] = (
                             (4, 1), (7, 2)),
                         num_shards: int = 4, sessions: int = 4,
                         keys: int = 32, ops: int = 96,
                         write_ratio: float = 0.1,
                         distribution: str = "zipf-shift",
                         zipf_exponent: float = 1.1, seed: int = 0,
                         value_size: int = 64,
                         shift_every: int = DEFAULT_SHIFT_EVERY,
                         byzantine: Optional[str] = "corrupt-block"
                         ) -> Dict[str, Any]:
    """Head-to-head ``atomic_ns`` vs ``atomic_md`` on one workload.

    The payload behind ``benchmarks/BENCH_kv_md.json``: for each
    ``(n, t)`` deployment both protocols run the *same* read-mostly
    drifting-hot-set workload at their canonical erasure thresholds
    (``k = n - t`` for atomic_ns, ``k = t + 1`` for atomic_md), and the
    summary reports the read-attributed data-plane byte ratio — the
    number the metadata/data separation is judged on.  A final
    ``byzantine`` case re-runs atomic_md at the largest deployment with
    one corrupt-data-plane server, pinning that reads escalate (and
    still linearize) when their first ``k`` fetch targets misbehave.
    """
    rows: List[Dict[str, Any]] = []
    for n, t in deployments:
        for protocol in ("atomic_ns", "atomic_md"):
            row, _cluster = run_kv_case(
                num_shards, n=n, t=t, protocol=protocol,
                sessions=sessions, keys=keys, ops=ops,
                write_ratio=write_ratio, distribution=distribution,
                zipf_exponent=zipf_exponent, seed=seed,
                value_size=value_size, shift_every=shift_every)
            rows.append({"n": n, "t": t, **row.to_json()})
    if byzantine is not None:
        n, t = deployments[-1]
        row, _cluster = run_kv_case(
            num_shards, n=n, t=t, protocol="atomic_md",
            sessions=sessions, keys=keys, ops=ops,
            write_ratio=write_ratio, distribution=distribution,
            zipf_exponent=zipf_exponent, seed=seed,
            value_size=value_size, shift_every=shift_every,
            byzantine=byzantine)
        rows.append({"n": n, "t": t, **row.to_json()})
    summary = []
    for n, t in deployments:
        pair = {}
        for row in rows:
            if (row["n"], row["t"]) == (n, t) and "byz" not in (
                    row["plan"] or ""):
                pair[row["protocol"]] = row
        ns_bytes = pair["atomic_ns"]["read_data_bytes"]
        md_bytes = pair["atomic_md"]["read_data_bytes"]
        summary.append({
            "n": n, "t": t,
            "read_data_bytes_atomic_ns": ns_bytes,
            "read_data_bytes_atomic_md": md_bytes,
            "read_data_bytes_ratio": round(
                ns_bytes / md_bytes, 3) if md_bytes else 0.0,
        })
    return {
        "config": {"deployments": [list(pair) for pair in deployments],
                   "num_shards": num_shards, "sessions": sessions,
                   "keys": keys, "ops": ops, "write_ratio": write_ratio,
                   "distribution": distribution,
                   "zipf_exponent": zipf_exponent, "seed": seed,
                   "value_size": value_size,
                   "shift_every": shift_every, "byzantine": byzantine},
        "rows": rows,
        "summary": summary,
    }


def run_kv_readheavy_comparison(n: int = 4, t: int = 1,
                                num_shards: int = 4, sessions: int = 4,
                                keys: int = 8, ops: int = 576,
                                write_ratio: float = 0.1,
                                distribution: str = "zipf",
                                zipf_exponent: float = 1.5,
                                seed: int = 0, value_size: int = 64,
                                cache_size: int = 32,
                                lease_ticks: int = 128,
                                invoke_probability: float = 1.0,
                                chaos_plan: str = "delays"
                                ) -> Dict[str, Any]:
    """Cached vs uncached ``atomic_md`` on one read-heavy workload.

    The payload behind ``benchmarks/BENCH_kv_readheavy.json``: the same
    90/10 Zipf workload runs once uncached and once with session-cached
    reads and leases; the summary reports the read-throughput ratio
    (``reads_per_tick`` cached over uncached) — the number the session
    cache is judged on.  Three adversarial cases re-run the cached
    configuration under the ``chaos_plan`` builtin and with one
    Byzantine metadata server per flavour (``stale-meta`` understates
    at revalidation and is outvoted by the quorum maximum;
    ``forged-meta`` inflates and only forces the full-read fallback).
    Every row's per-key histories pass ``check_atomicity`` — the cache
    trades wire traffic for bookkeeping, never consistency.
    """
    common: Dict[str, Any] = {
        "n": n, "t": t, "protocol": "atomic_md", "sessions": sessions,
        "keys": keys, "ops": ops, "write_ratio": write_ratio,
        "distribution": distribution, "zipf_exponent": zipf_exponent,
        "seed": seed, "value_size": value_size,
        "invoke_probability": invoke_probability,
    }
    cached: Dict[str, Any] = {"cache_size": cache_size,
                              "lease_ticks": lease_ticks}
    rows: List[Dict[str, Any]] = []
    cases = [
        ("uncached", {}),
        ("cached", dict(cached)),
        ("cached+chaos", dict(cached, plan_name=chaos_plan)),
        ("cached+byz-stale", dict(cached, byzantine="stale-meta")),
        ("cached+byz-forged", dict(cached, byzantine="forged-meta")),
    ]
    by_case: Dict[str, KvBenchRow] = {}
    for case, extra in cases:
        row, _cluster = run_kv_case(num_shards, **common, **extra)
        by_case[case] = row
        rows.append({"case": case, **row.to_json()})
    base = by_case["uncached"].reads_per_tick
    boosted = by_case["cached"].reads_per_tick
    summary = {
        "reads_per_tick_uncached": round(base, 6),
        "reads_per_tick_cached": round(boosted, 6),
        "read_throughput_ratio": round(boosted / base, 3) if base
        else 0.0,
        "all_linearizable": all(row["linearizable"] for row in rows),
        "lease_hits_cached": by_case["cached"].lease_hits,
        "revalidations_cached": by_case["cached"].revalidations,
        "fallbacks_forged": by_case["cached+byz-forged"]
        .revalidate_fallbacks,
    }
    return {
        "config": {**common, "num_shards": num_shards,
                   "cache_size": cache_size,
                   "lease_ticks": lease_ticks,
                   "chaos_plan": chaos_plan},
        "rows": rows,
        "summary": summary,
    }
