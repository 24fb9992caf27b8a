"""One kvperf repetition, run in a fresh interpreter by ``run.py``.

Builds one workload's deployment through the kv stack's public surface,
drives it, checks the histories and prints one JSON line of
measurements.  Three kinds of repetition share the generated inputs:

* ``serve``  — no tracer: build, ``drive``, ``check_kv_histories``;
* ``case``   — what ``repro kv-bench`` does for one row: build, attach a
  ``TraceRecorder``, ``drive``, ``collect_kv_row``;
* ``layers`` — the case repetition with the timing wrappers of
  :mod:`layers` installed around each layer's entry points.

``--seed`` is one schedule seed: it reaches only ``kv_workload``, the
scheduler and the fault plan.  A fresh interpreter per repetition keeps
the erasure/crypto memo caches cold and ``ru_maxrss`` per-repetition.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.cluster import PROTOCOLS
from repro.chaos.injector import FaultInjector
from repro.common.errors import AtomicityViolation, LivenessError
from repro.config import SystemConfig
from repro.kv import (
    FailStopKvServer,
    KvCluster,
    KvDirectory,
    build_kv_cluster,
    check_kv_histories,
    drive,
)
from repro.kv.bench import collect_kv_row
from repro.net.message import EVENT_CHAOS
from repro.net.schedulers import RandomScheduler
from repro.obs import TraceRecorder
from repro.repair import RepairCoordinator, attach_repair
from repro.repair.bench import churn_storm_plan
from repro.workloads.kv import KvOp, kv_workload

from workloads import N, SESSIONS, T, WORKLOADS, ZIPF_EXPONENT


#: The host-speed reference: rounds of :func:`reference_loop` and the
#: seconds they take in this sandbox on a quiet host.
REFERENCE_ROUNDS = 60_000
REFERENCE_NOMINAL_S = 0.097


def reference_loop() -> float:
    """Seconds a fixed, seeded toy message shuffle takes on this host now.

    The host slows identical work by up to half for seconds to minutes
    at a time.  This loop is the same work every time and no part of the
    program (tuples, dict buckets, a random pop, a hash now and then —
    the interpreter mix of the simulator, at 70 % correlation with a
    serve repetition's speed), so timing it before the build, between
    ``drive`` and the post-run checks, and at the end tells how fast the
    host was then; the parent divides the repetition's ops/s by that
    speed.
    """
    start = time.perf_counter()
    rng = random.Random(1)
    pending: List[Any] = []
    inbox: Dict[str, List[Any]] = {}
    digest = hashlib.sha256()
    for step in range(REFERENCE_ROUNDS):
        for copy in range(3):
            pending.append((step, copy, (f"tag{step % 17}", "type",
                                         (step, copy, b"x" * 32))))
        message = pending.pop(rng.randrange(len(pending)))
        bucket = inbox.setdefault(message[2][0], [])
        bucket.append(message)
        if len(bucket) > 8:
            digest.update(repr(bucket[0]).encode())
            del bucket[:4]
        if len(pending) > 64:
            del pending[:32]
    digest.digest()
    return time.perf_counter() - start


@dataclass
class Deployment:
    """One built workload: cluster, inputs and the optional planes."""

    cluster: KvCluster
    workload: List[KvOp]
    recorder: Optional[TraceRecorder]
    coordinator: Optional[RepairCoordinator]
    #: the fail-stop hosts the churn plan will crash (empty otherwise)
    crash_hosts: List[FailStopKvServer]


def build(spec: Dict[str, Any], seed: int, ops: int,
          traced: bool) -> Deployment:
    """Directory, cluster, workload and, for churn, plan and repair."""
    protocol = spec["protocol"]
    fleet = SystemConfig(n=N, t=T)
    directory = KvDirectory(
        fleet, spec["shards"],
        shard_k=T + 1 if protocol == "atomic_md" else None)
    plan = None
    overrides = None
    if spec.get("churn"):
        plan = churn_storm_plan(N, T, seed)
        plan.validate(N, T)
        server_cls = PROTOCOLS[protocol][0]
        overrides = {
            crash.server: (lambda pid, directory, _crash=crash:
                           FailStopKvServer(
                               pid, directory, server_cls=server_cls,
                               crash_after=_crash.after,
                               recover_after=_crash.recover_after,
                               trigger=_crash.trigger))
            for crash in plan.crashes}
    cluster = build_kv_cluster(
        directory, protocol=protocol, num_sessions=SESSIONS,
        scheduler=RandomScheduler(seed), server_overrides=overrides,
        max_attempts=spec.get("max_attempts", 4),
        cache_size=spec.get("cache_size", 0),
        lease_ticks=spec.get("lease_ticks", 0))
    recorder = TraceRecorder().attach(cluster.simulator) if traced \
        else None
    coordinator = None
    if plan is not None:
        cluster.simulator.attach_injector(FaultInjector(plan))
        coordinator = attach_repair(
            cluster, plan=plan, batch_size=spec["repair_batch_size"])
    workload = kv_workload(
        num_sessions=SESSIONS, num_keys=spec["keys"], ops=ops,
        write_ratio=spec["write_ratio"],
        distribution=spec["distribution"], zipf_exponent=ZIPF_EXPONENT,
        seed=seed, value_size=spec["value_size"])
    crash_hosts = [] if plan is None else [
        cluster.servers[crash.server - 1] for crash in plan.crashes]
    return Deployment(cluster, workload, recorder, coordinator,
                      crash_hosts)


def schedule_record(deployment: Deployment, spec: Dict[str, Any],
                    completed: int, failed: int) -> Dict[str, Any]:
    """Everything that is a function of the seeded schedule alone.

    Every repetition of one workload and schedule seed must report this
    record unchanged, whatever its kind; the parent pools the records of
    a run's schedule seeds into the tick, byte and storage metrics.
    """
    simulator = deployment.cluster.simulator
    ticks: Dict[str, List[int]] = {"read": [], "write": []}
    for session in deployment.cluster.sessions:
        for handle in session.handles:
            if handle.done:
                ticks[handle.kind].append(
                    handle.complete_time - handle.invoke_time)
    keys_written = {op.key for op in deployment.workload
                    if op.kind == "write"}
    return {
        "submitted": len(deployment.workload),
        "completed": completed,
        "failed": failed,
        "sim_time": simulator.time,
        "total_messages": simulator.metrics.total_messages,
        "total_bytes": simulator.metrics.total_bytes,
        "stored_bytes": simulator.storage_bytes(),
        "user_bytes": len(keys_written) * spec["value_size"],
        "read_ticks": ticks["read"],
        "write_ticks": ticks["write"],
    }


def layer_counts(deployment: Deployment, row,
                 stats: Dict[str, int]) -> Dict[str, float]:
    """Exact per-layer counts of a traced repetition (no timing)."""
    cluster = deployment.cluster
    completed = stats["completed"]
    reads = row.reads_completed
    cache = {name: sum(session.cache.stats[name]
                       for session in cluster.sessions)
             for name in ("lease_hits", "shared_reads", "misses",
                          "revalidations", "revalidate_hits",
                          "revalidate_fallbacks")}
    counts = {
        "net.envelopes_per_op": row.envelopes / completed,
        "kv.mux.batch_factor": row.batch_factor,
        "kv.session.retries": stats["retries"],
        "kv.session.backpressure_hits": stats["backpressure_hits"],
        "kv.drive.steps": stats["steps"],
        "kv.session_cache.local_read_share":
            cache["lease_hits"] / reads if reads else 0.0,
        "core.metadata_bytes_per_op": row.metadata_bytes / completed,
        "core.data_bytes_per_op": row.data_bytes / completed,
        "core.read_data_bytes_per_read":
            row.read_data_bytes / reads if reads else 0.0,
        "core.block_fetches_per_read":
            row.block_fetches / reads if reads else 0.0,
        "core.block_misses": row.block_misses,
        "core.verify_failures": row.verify_failures,
        "analysis.keys_checked": row.keys_checked,
        # injected message faults plus the plan's crashes that fired
        "chaos.events":
            sum(1 for event in cluster.simulator.event_log
                if event.kind == EVENT_CHAOS)
            + sum(1 for host in deployment.crash_hosts if host.crashed),
    }
    for name, value in cache.items():
        counts[f"kv.session_cache.{name}"] = value
    coordinator = deployment.coordinator
    if coordinator is None:
        repair = dict.fromkeys(
            ("replacements", "completed", "failed", "retries",
             "lag_peak", "lag_final"), 0)
    else:
        repair_stats = coordinator.stats
        repair = {
            "replacements": repair_stats.replacements,
            "completed": repair_stats.completed,
            "failed": repair_stats.failed,
            "retries": repair_stats.retries,
            "lag_peak": max(
                (sample["lag"] for sample in repair_stats.lag_samples),
                default=0),
            "lag_final": coordinator.lag,
        }
    for name, value in repair.items():
        counts[f"repair.{name}"] = value
    return counts


def untimed(_layer: str, func):
    """Stand-in for ``Tracer.timed`` when no wrappers are installed."""
    return func


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--kind", required=True,
                        choices=("serve", "case", "layers"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's time.monotonic() at spawn")
    parser.add_argument("--spans-out",
                        help="layers: file the spans are written to")
    args = parser.parse_args()
    spec = WORKLOADS[args.workload]
    traced = args.kind != "serve"

    tracer = None
    timed = untimed
    if args.kind == "layers":
        import layers
        tracer = layers.Tracer()
        layers.install(tracer, spec["protocol"])
        timed = tracer.timed

    reference_before = reference_loop()
    build_start = time.monotonic()
    deployment = build(spec, args.seed, args.ops, traced)
    cluster = deployment.cluster
    submitted = len(deployment.workload)
    # CLOCK_MONOTONIC is system-wide on Linux, so the parent's reading
    # at spawn and this one share an origin: set-up includes interpreter
    # start and imports (and leaves the reference loop out).
    drive_start = time.monotonic()
    liveness_error = None
    try:
        stats = timed("kv.drive", drive)(
            cluster, deployment.workload, seed=args.seed,
            invoke_probability=spec["invoke_probability"])
    except LivenessError as error:
        liveness_error = str(error)
        stats = {"steps": 0, "retries": 0, "backpressure_hits": 0,
                 "completed": sum(1 for session in cluster.sessions
                                  for handle in session.handles
                                  if handle.done)}
    drive_end = time.monotonic()
    reference_between = reference_loop()
    post_start = time.monotonic()

    atomicity_error = None
    row = None
    try:
        if traced:
            row = timed("obs.collect_row", collect_kv_row)(
                deployment.recorder, cluster, stats,
                num_shards=spec["shards"], protocol=spec["protocol"],
                plan_label=None, sessions=SESSIONS, keys=spec["keys"],
                ops=args.ops, cache_size=spec.get("cache_size", 0),
                lease_ticks=spec.get("lease_ticks", 0))
        else:
            check_kv_histories(cluster.sessions)
    except AtomicityViolation as error:
        atomicity_error = str(error)
    end = time.monotonic()
    reference_after = reference_loop()

    # A stalled drive fails its unfinished operations; a history that
    # is not atomic fails the whole repetition.
    completed = stats["completed"]
    failed = submitted if atomicity_error else submitted - completed
    result: Dict[str, Any] = {
        "kind": args.kind,
        "seed": args.seed,
        "setup_s": drive_start - args.spawned_at - reference_before,
        "drive_s": drive_end - drive_start,
        "post_s": end - post_start,
        "case_s": (drive_end - build_start) + (end - post_start),
        # host speed around the drive, and around the whole repetition
        "drive_host_speed": REFERENCE_NOMINAL_S * 2 / (
            reference_before + reference_between),
        "case_host_speed": REFERENCE_NOMINAL_S * 3 / (
            reference_before + reference_between + reference_after),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "liveness_error": liveness_error,
        "atomicity_error": atomicity_error,
        "schedule": schedule_record(deployment, spec, completed, failed),
    }
    if row is not None:
        result["counts"] = layer_counts(deployment, row, stats)
        result["phase_ticks"] = row.phase_ticks
    if tracer is not None:
        result["layers"] = tracer.fold()
        if args.spans_out:
            tracer.write(args.spans_out)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
