"""Repair plane and reconfiguration: re-dispersal, member swap, churn.

The load-bearing guarantees tested here:

* **Repair restores redundancy without minting time** — an amnesiac
  replacement ends up holding *its own* erasure block of the current
  version, at the version's original TIMESTAMP, byte-identical to what
  the crashed member held; repair rounds never enter operation
  histories.
* **Poisonous writes cannot be laundered** — when the quorum-agreed
  cross-checksum covers an inconsistent dispersal (Byzantine writer),
  the repair round detects that re-encoding the decoded value yields a
  different commitment and fails loudly instead of re-dispersing
  blocks the original commitment never vouched for.
* **Reconfiguration is a drained epoch bump** — sessions stop
  admitting the moment a new directory generation is announced, drain
  their in-flight operations under the old epoch, then swap: caches
  flush (``epoch_flushes``), queued reads lose their revalidation
  snapshots, and histories spanning the transition stay linearizable.
* **Session cache x churn** — leases and cached pairs anchored under
  the old generation are never served after the bump.
* **Schedule preservation** — the plane is strictly opt-in: with no
  coordinator attached the golden schedules stay byte-identical.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.common.errors import ConfigurationError, LivenessError
from repro.common.serialization import encode
from repro.config import SystemConfig
from repro.core.atomic_md import AtomicMdServer
from repro.core.timestamps import INITIAL_TIMESTAMP
from repro.kv import (
    KvDirectory,
    build_kv_cluster,
    check_kv_histories,
    drive,
    run_kv_case,
)
from repro.lint import run_lint
from repro.lint.config import LintConfig
from repro.repair import (
    RepairCoordinator,
    attach_repair,
    next_generation,
    replace_member,
)
from repro.repair.bench import (
    CHURN_CASE,
    churn_columns,
    churn_storm_plan,
)
from repro.workloads.kv import KvOp

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

FLEET = SystemConfig(n=4, t=1)


def _md_cluster(num_sessions=1, num_shards=1, cache_size=0,
                lease_ticks=0):
    directory = KvDirectory(FLEET, num_shards, shard_k=2)
    return build_kv_cluster(directory, protocol="atomic_md",
                            num_sessions=num_sessions,
                            cache_size=cache_size,
                            lease_ticks=lease_ticks)


def _drain(cluster):
    """Deliver every outstanding message (settle only waits for
    sessions; server-side propagation may lag behind)."""
    while cluster.simulator.undelivered_count:
        cluster.simulator.step()


# -- reconfiguration ----------------------------------------------------------

def test_next_generation_reproduces_shard_math_and_bumps_epoch():
    directory = KvDirectory(FLEET, 3, shard_k=2,
                            protocol_overrides={1: "atomic"})
    successor = next_generation(directory)
    assert successor.epoch == directory.epoch + 1
    assert successor.num_shards == directory.num_shards
    for before, after in zip(directory.shards, successor.shards):
        assert after.placement == before.placement
        assert after.protocol == before.protocol
        assert after.config.n == before.config.n
        assert after.config.k == before.config.k
    # Key routing is generation-invariant: same tag, same shard.
    for key in ("k001", "k002", "k003"):
        assert successor.register_tag(key) == directory.register_tag(key)


def test_replace_member_rejects_out_of_range_indices():
    cluster = _md_cluster()
    with pytest.raises(ConfigurationError):
        replace_member(cluster, 0)
    with pytest.raises(ConfigurationError):
        replace_member(cluster, FLEET.n + 1)


def test_replacement_keeps_identity_but_not_state():
    cluster = _md_cluster()
    session = cluster.session(1)
    session.put("k001", b"v1")
    cluster.settle()
    _drain(cluster)
    tag = cluster.directory.register_tag("k001")
    old, new = replace_member(cluster, 1)
    assert old is not new
    assert new.pid == old.pid  # identity survives
    assert cluster.servers[0] is new
    survivor_state = old.inner_server(0).register_state(tag)
    assert survivor_state.timestamp > INITIAL_TIMESTAMP
    # The newcomer is amnesiac in the strongest sense: no shard state
    # has even materialised until traffic (or repair) reaches it.
    assert new.active_shards == []


def test_sessions_drain_in_flight_ops_before_adopting_the_new_epoch():
    cluster = _md_cluster()
    session = cluster.session(1)
    first = session.put("k001", b"v1")
    session.pump()  # admit: the write is now in flight
    assert session.inflight == 1
    replace_member(cluster, 4)
    # Announcement received mid-flight: the swap must wait.
    assert session._pending_directory is not None
    assert session.epoch == 0
    second = session.put("k002", b"v2")
    session.pump()
    assert session.queued == 1  # reconfiguration drain: no admissions
    cluster.settle()
    assert first.done and second.done
    assert session.epoch == 1
    assert session._pending_directory is None
    check_kv_histories([session])


def test_new_epoch_reads_cannot_miss_old_epoch_writes():
    """Quorum-intersection across the transition: a write completed
    under the old generation is observed by every read admitted under
    the new one, even though the newcomer answers amnesiac."""
    cluster = _md_cluster(num_sessions=2)
    alice, bob = cluster.sessions
    alice.put("k001", b"old-epoch")
    cluster.settle()
    replace_member(cluster, 2)
    assert bob.epoch == 1
    read = bob.get("k001")
    cluster.settle()
    assert read.result == b"old-epoch"
    check_kv_histories(cluster.sessions)


# -- session cache x churn ----------------------------------------------------

def test_epoch_bump_flushes_leases_and_cached_pairs():
    cluster = _md_cluster(cache_size=8, lease_ticks=100_000)
    session = cluster.session(1)
    session.put("k001", b"v1")
    cluster.settle()
    assert session.get("k001").served == "lease"  # lease is live
    replace_member(cluster, 3)
    # The session was idle, so the swap commits synchronously.
    assert session.epoch == 1
    assert session.cache.stats["epoch_flushes"] == 1
    assert session.cache.lookup("k001") is None
    read = session.get("k001")
    assert not read.done  # no lease serve across the bump
    cluster.settle()
    assert read.result == b"v1"
    assert read.served is None  # full protocol read, not revalidation
    check_kv_histories([session])


def test_epoch_bump_drops_queued_reads_revalidation_snapshots():
    """A read queued (with a cached snapshot) behind an in-flight write
    when the generation changes must re-read in full: its snapshot was
    anchored under the old fleet."""
    cluster = _md_cluster(cache_size=8, lease_ticks=0)
    session = cluster.session(1)
    session.put("k001", b"v1")
    cluster.settle()  # seeds the cache for k001
    session.put("k002", b"v2")
    session.pump()  # k002 write in flight
    read = session.get("k001")  # queues with a revalidation snapshot
    assert not read.done
    replace_member(cluster, 1)
    cluster.settle()
    assert session.epoch == 1
    assert read.result == b"v1"
    assert read.served is None  # snapshot dropped at the swap
    assert session.cache.stats["revalidations"] == 0
    check_kv_histories([session])


# -- repair -------------------------------------------------------------------

def test_repair_restores_the_replacements_block_at_original_timestamp():
    cluster = _md_cluster()
    session = cluster.session(1)
    session.put("k001", b"payload")
    cluster.settle()
    _drain(cluster)
    tag = cluster.directory.register_tag("k001")
    old, new = replace_member(cluster, 1)
    coordinator = attach_repair(cluster)
    assert coordinator.request_repair(1) == 1
    cluster.settle()
    assert coordinator.stats.completed == 1
    assert coordinator.stats.failed == 0
    assert coordinator.lag == 0
    expected = old.inner_server(0).register_state(tag)
    repaired = new.inner_server(0).register_state(tag)
    # Same version, same TIMESTAMP, and the *target's own* block — the
    # round re-disperses, it does not mint logical time.
    assert repaired.timestamp == expected.timestamp
    assert encode(repaired.commitment) == encode(expected.commitment)
    assert (repaired.block, repaired.witness) \
        == (expected.block, expected.witness)
    # Repair never enters the operation history.
    assert all(handle.kind in ("read", "write")
               for handle in session.handles)
    check_kv_histories([session])


def test_repair_refuses_to_launder_a_poisonous_write():
    """An inconsistent dispersal under a consistent cross-checksum (the
    Byzantine-writer vector AtomicMd tolerates) must surface as
    ``repair-failed``, never as a re-dispersal of forged blocks."""
    cluster = _md_cluster()
    session = cluster.session(1)
    session.put("k001", b"honest")  # materialise the register everywhere
    cluster.settle()
    _drain(cluster)
    spec = cluster.directory.shards[0]
    config = spec.config
    tag = cluster.directory.register_tag("k001")
    good = config.coder.encode(b"poisoned")
    blocks = list(good)
    blocks[-1] = b"\xff" * len(good[-1])  # inconsistent completion
    commitment, witnesses = config.commitment_scheme.commit(blocks)
    timestamp = cluster.servers[0].inner_server(0) \
        .register_state(tag).timestamp.next("c9.forged")
    for host in cluster.servers:
        local = spec.local_server_index(host.pid.index)
        state = host.inner_server(0).register_state(tag)
        state.timestamp = timestamp
        state.commitment = commitment
        state.block = blocks[local - 1]
        state.witness = witnesses[local - 1]
    coordinator = attach_repair(cluster)
    assert coordinator.request_repair(1) == 1
    cluster.settle()
    assert coordinator.stats.failed == 1
    assert coordinator.stats.completed == 0


def test_repair_waits_for_the_drain_so_the_replacement_is_not_stale():
    """P1 is down from the start, so a write admitted before its swap
    stores its block at P2..P4 only.  Had the repair read while that
    write was still committing, it would re-disperse the older version
    and leave the replacement stale for good; the coordinator admits it
    only once the session has drained onto the new generation."""
    from repro.kv import FailStopKvServer

    directory = KvDirectory(FLEET, 1, shard_k=2)
    cluster = build_kv_cluster(
        directory, protocol="atomic_md", num_sessions=1,
        server_overrides={1: lambda pid, generation: FailStopKvServer(
            pid, generation, server_cls=AtomicMdServer, crash_after=0)})
    session = cluster.session(1)
    session.put("k001", b"v1")
    cluster.settle()
    _drain(cluster)
    tag = cluster.directory.register_tag("k001")
    session.put("k001", b"v2")
    session.pump()
    survivors = [host.inner_server(0) for host in cluster.servers[1:]]
    cluster.simulator.run_until(lambda: all(
        server.register_state(tag).pending_store for server in survivors))
    replace_member(cluster, 1)
    coordinator = attach_repair(cluster)
    assert coordinator.request_repair(1) == 1
    cluster.settle()
    _drain(cluster)
    assert coordinator.stats.completed == 1
    timestamps = {host.inner_server(0).register_state(tag).timestamp
                  for host in cluster.servers}
    assert len(timestamps) == 1 and timestamps.pop().ts == 2
    check_kv_histories([session])


def test_coordinator_rejects_degenerate_budgets():
    cluster = _md_cluster()
    with pytest.raises(ConfigurationError):
        RepairCoordinator(cluster, batch_size=0)
    with pytest.raises(ConfigurationError):
        RepairCoordinator(cluster, max_attempts=0)
    coordinator = RepairCoordinator(cluster)
    with pytest.raises(ConfigurationError):
        coordinator.detect_degraded(0.5)  # no monitor attached


def test_admission_is_rate_limited_by_batch_size():
    cluster = _md_cluster(num_shards=2)
    session = cluster.session(1)
    for index in range(6):
        session.put(f"k{index:03d}", b"v")
    cluster.settle()
    _drain(cluster)
    coordinator = attach_repair(cluster, batch_size=2)
    queued = coordinator.request_repair(1)
    assert queued >= 2
    coordinator.pump()
    assert len(coordinator._inflight) == 2  # never above the budget
    assert coordinator.lag == queued
    cluster.settle()
    assert coordinator.stats.completed == queued
    assert coordinator.idle


# -- churn (end to end) -------------------------------------------------------

def test_churn_storm_plan_round_trips_and_declares_excess():
    plan = churn_storm_plan(7, 2, first_crash=10, stagger=50,
                            replace_after=20)
    assert plan.exceeds_t  # t + 1 crashes, deliberately over budget
    assert len(plan.crashes) == 3
    assert all(crash.replace_after == 20 for crash in plan.crashes)
    assert all(crash.trigger == "decisions" for crash in plan.crashes)
    from repro.chaos.plan import FaultPlan
    assert FaultPlan.from_json(plan.to_json()) == plan


def test_repaired_fleet_survives_a_storm_the_unrepaired_fleet_cannot():
    """The tentpole claim at smoke scale: under a ``t + 1``-crash storm
    with replacement, every operation completes and linearizes with
    repair lag driven back to zero, while the identical unrepaired run
    loses liveness (or ends below quorum)."""
    common = dict(num_shards=2, n=7, t=2, sessions=2, keys=4, ops=48,
                  write_ratio=0.5, seed=0, value_size=32, **CHURN_CASE)
    plan = churn_storm_plan(7, 2, first_crash=20, stagger=80,
                            replace_after=30)
    row, cluster = run_kv_case(plan=plan, batch_size=2, **common)
    repaired = churn_columns("churn+repair", cluster, stalled=False)
    assert row.completed == common["ops"]
    assert row.linearizable
    assert repaired["replacements"] == 3
    assert repaired["repair_lag_final"] == 0
    assert repaired["repairs_completed"] > 0
    assert repaired["alive_servers"] == 7  # made whole again
    assert repaired["session_epochs"] == [3]
    with pytest.raises(LivenessError) as stall:
        run_kv_case(plan=plan, **common)
    norepair = churn_columns("churn-norepair", stall.value.cluster,
                             stalled=True)
    assert norepair["liveness_violation"]
    assert norepair["alive_servers"] < norepair["quorum"]
    assert "replacements" not in norepair  # no repair plane attached


def _members_down(cluster):
    """Per register, the placement members that are crashed or replaced
    and not yet repaired."""
    unrepaired = {(task.shard_id, task.tag, task.target_index)
                  for task in (*cluster.repair._pending,
                               *cluster.repair._inflight)}
    down = {}
    for spec in cluster.directory.shards:
        tags = set()
        for host in cluster.servers:
            tags.update(getattr(host.inner_server(spec.shard_id),
                                "_registers", ()))
        for tag in tags:
            down[tag] = sum(
                1 for local, fleet in enumerate(spec.placement, start=1)
                if getattr(cluster.servers[fleet - 1], "crashed", False)
                or (spec.shard_id, tag, local) in unrepaired)
    return down


def test_churn_storm_never_has_more_than_t_members_down_per_register():
    """``churn_storm_plan`` promises one member missing at a time; the
    repair plane keeps it by holding the next crash while repair is
    outstanding.  Checked after every delivery of the churn smoke."""
    from repro.chaos.injector import FaultInjector
    from repro.faults.failstop import fault_overrides
    from repro.kv import FailStopKvServer, KvServer
    from repro.repair.bench import CHURN
    from repro.workloads.kv import kv_workload

    config = {**CHURN.shape, **CHURN.settings, **CHURN.smoke}
    n, t, seed = config["n"], config["t"], config["seed"]
    plan = churn_storm_plan(n, t, seed=seed,
                            first_crash=config["first_crash"],
                            stagger=config["stagger"],
                            replace_after=config["replace_after"])
    directory = KvDirectory(SystemConfig(n=n, t=t), config["num_shards"],
                            shard_k=t + 1)
    cluster = build_kv_cluster(
        directory, protocol="atomic_md", num_sessions=config["sessions"],
        scheduler=plan.build_scheduler(seed),
        server_overrides=fault_overrides(
            plan, AtomicMdServer, kv_hosts=(KvServer, FailStopKvServer)),
        max_attempts=CHURN_CASE["max_attempts"])
    cluster.simulator.attach_injector(FaultInjector(plan))
    attach_repair(cluster, plan=plan, batch_size=config["batch_size"])
    peak = {}

    def within_t(simulator):
        for tag, down in _members_down(cluster).items():
            assert down <= t, (tag, down, simulator.time)
            peak[tag] = max(peak.get(tag, 0), down)

    cluster.simulator.add_invariant(within_t)
    workload = kv_workload(
        num_sessions=config["sessions"], num_keys=config["keys"],
        ops=config["ops"], write_ratio=config["write_ratio"],
        distribution="zipf", seed=seed, value_size=config["value_size"])
    stats = drive(cluster, workload, seed=seed)
    assert stats["completed"] == config["ops"]
    check_kv_histories(cluster.sessions)
    assert cluster.repair.stats.replacements == t + 1
    assert max(peak.values()) == 1  # one member down at a time


@pytest.mark.parametrize(
    "case", json.loads((REPO_ROOT / "tests" / "fixtures" /
                        "churn_storm_replays.json").read_text())["cases"],
    ids=lambda case: f"seed{case['seed']}")
def test_kvperf_churn_seeds_that_used_to_stall_complete(case):
    """kvperf's ``churn_repair`` on the seeds it leaves out (43, 54):
    with the storm held inside the fault model both complete."""
    kv_case = case["kv_case"]
    plan = churn_storm_plan(kv_case["n"], kv_case["t"], kv_case["seed"])
    row, cluster = run_kv_case(plan=plan, batch_size=case["batch_size"],
                               **kv_case)
    assert row.completed == kv_case["ops"] and row.linearizable
    assert cluster.repair.stats.replacements == kv_case["t"] + 1
    assert cluster.repair.lag == 0


def test_a_stalled_case_reports_the_retries_it_spent():
    """Regression: ``drive`` used to drop its counters when it raised,
    so a stalled row claimed zero retries and zero backpressure hits.
    The error now carries the statistics ``drive`` would have returned
    and the runner builds the finished row from them."""
    plan = churn_storm_plan(7, 2, first_crash=20, stagger=80,
                            replace_after=30)
    with pytest.raises(LivenessError) as stall:
        run_kv_case(2, n=7, t=2, sessions=2, keys=4, ops=48, seed=0,
                    value_size=32, plan=plan, **CHURN_CASE)
    stats, row = stall.value.stats, stall.value.row
    assert set(stats) == {"steps", "submitted", "completed",
                          "backpressure_hits", "retries",
                          "retry_rounds"}
    assert stats["retries"] > 0 and stats["retry_rounds"] > 0
    assert stats["completed"] < stats["submitted"] <= 48
    assert (row.retries, row.backpressure_hits, row.completed) == (
        stats["retries"], stats["backpressure_hits"],
        stats["completed"])
    assert row.linearizable  # what did complete is still atomic


def test_churn_case_with_session_cache_and_leases_linearizes():
    """The lease x epoch-bump x repair interleaving the churn harness
    could not express: cached, leased sessions ride out the storm."""
    plan = churn_storm_plan(7, 2, first_crash=20, stagger=80,
                            replace_after=30)
    row, cluster = run_kv_case(
        2, n=7, t=2, sessions=2, keys=2, ops=96, seed=0, value_size=32,
        write_ratio=0.1, plan=plan, batch_size=2, cache_size=4,
        lease_ticks=64, **CHURN_CASE)
    assert row.completed == 96 and row.linearizable
    assert (row.cache_size, row.lease_ticks) == (4, 64)
    assert row.lease_hits > 0
    assert {session.epoch for session in cluster.sessions} == {3}
    assert cluster.repair.stats.replacements == 3
    assert cluster.repair.lag == 0


# -- hygiene ------------------------------------------------------------------

def test_golden_schedules_byte_identical_without_repair_attached():
    """The plane is opt-in: driving a kv cluster with the repair
    package imported but no coordinator attached must not perturb the
    single-register golden schedules."""
    import gen_golden_schedules
    cluster = _md_cluster()
    assert cluster.repair is None
    drive(cluster, [KvOp(1, "write", "k001", b"x"),
                    KvOp(1, "read", "k001")])
    fixture = json.loads(
        (REPO_ROOT / "tests" / "fixtures" /
         "golden_schedules.json").read_text(encoding="utf-8"))
    case = fixture["cases"][0]
    fresh = gen_golden_schedules.run_case(dict(case["spec"]))
    assert fresh["sha256"] == case["sha256"]


def test_repair_package_is_lint_scoped_and_clean():
    """The plane schedules work on live clusters and consumes
    server-supplied blocks: the determinism, quorum, handler, and
    taint packs must cover it, and it must lint clean."""
    config = LintConfig()
    for dotted in ("repro.repair.protocol", "repro.repair.coordinator",
                   "repro.repair.reconfig", "repro.repair.bench"):
        for pack in ("determinism", "quorum", "handlers"):
            assert config.in_scope(pack, dotted), (pack, dotted)
        assert config.in_scope("taint", dotted), dotted
    report = run_lint([REPO_ROOT / "src" / "repro" / "repair"])
    rendered = "\n".join(f.render() for f in report.active)
    assert not report.active, rendered
