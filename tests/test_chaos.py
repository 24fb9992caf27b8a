"""The chaos plane: plans, injection, determinism, campaigns, shrink.

The two load-bearing guarantees tested here:

* **Schedule transparency** — attaching an injector with an *empty*
  plan leaves the event log byte-identical to a run with no injector
  at all (checked against the golden-schedule fixtures).
* **Replay determinism** — the same ``(seed, plan)`` always produces
  the same event log, so serialized reproducers replay bit-for-bit.

Plus the acceptance sweep: within the resilience bound every builtin
plan leaves all three campaign protocols atomic and wait-free, and the
deliberate ``n = 3t`` boundary probe is *detected* as a wait-freedom
violation, shrunk, and faithfully replayed.
"""

import json
from pathlib import Path

import pytest

from repro.chaos import (
    DEFAULT_BATTERY,
    STATUS_OK,
    STATUS_STALLED,
    FaultInjector,
    FaultPlan,
    FaultRule,
    CrashSpec,
    PartitionSpec,
    RunSpec,
    builtin_plan,
    campaign_report,
    execute_run,
    replay_reproducer,
    save_reproducer,
    shrink_plan,
    sweep,
)
from repro.cluster import PROTOCOLS, run_register_case
from repro.common.errors import (
    ConfigurationError,
    LivenessError,
    SimulationError,
)
from repro.common.ids import server_id
from repro.common.serialization import encode
from repro.config import SystemConfig
from repro.faults.failstop import fail_stop
from repro.net import message as message_module
from repro.net.message import Message

FIXTURES = Path(__file__).parent / "fixtures"

TAG = "reg"


# -- plans ---------------------------------------------------------------------

def test_plan_json_round_trip():
    plan = FaultPlan(
        name="everything", seed=9, faulty=(3, 4), exceeds_t=True,
        rules=(FaultRule(kind="drop", party=3, limit=2),
               FaultRule(kind="delay", party=4, mtype="echo",
                         limit=1, delay=7)),
        partition=PartitionSpec(group=(1, 2), heal_at=30),
        crashes=(CrashSpec(server=3, after=4, recover_after=6),))
    assert FaultPlan.from_json(plan.to_json()) == plan
    # And through actual JSON text, as reproducer files store it.
    assert FaultPlan.from_json(json.loads(json.dumps(plan.to_json()))) \
        == plan


def test_plan_validation_rejects_rule_at_honest_party():
    plan = FaultPlan(faulty=(4,),
                     rules=(FaultRule(kind="drop", party=2, limit=1),))
    with pytest.raises(ConfigurationError):
        plan.validate(n=4, t=1)


def test_plan_validation_rejects_faulty_beyond_t():
    plan = FaultPlan(faulty=(3, 4))
    with pytest.raises(ConfigurationError):
        plan.validate(n=4, t=1)
    # ... unless the plan declares the boundary probe explicitly.
    FaultPlan(faulty=(3, 4), exceeds_t=True).validate(n=4, t=1)


def test_plan_validation_rejects_unbounded_delay_and_healless_partition():
    with pytest.raises(ConfigurationError):
        FaultPlan(faulty=(4,),
                  rules=(FaultRule(kind="delay", party=4,
                                   limit=1, delay=0),)).validate(4, 1)
    with pytest.raises(ConfigurationError):
        PartitionSpec(group=(1,), heal_at=0).validate()


def test_plan_validation_rejects_crash_of_undesignated_server():
    plan = FaultPlan(faulty=(), crashes=(CrashSpec(server=2),))
    with pytest.raises(ConfigurationError):
        plan.validate(n=4, t=1)


def test_crash_replace_after_round_trips_and_excludes_recovery():
    plan = FaultPlan(name="swap", faulty=(4,), crashes=(
        CrashSpec(server=4, after=10, trigger="decisions",
                  replace_after=20),))
    plan.validate(n=4, t=1)
    assert FaultPlan.from_json(plan.to_json()) == plan
    # A server either recovers with its state or is replaced amnesiac,
    # never both; and the replacement deadline must be positive.
    with pytest.raises(ConfigurationError):
        CrashSpec(server=4, after=10, recover_after=5,
                  replace_after=5).validate()
    with pytest.raises(ConfigurationError):
        CrashSpec(server=4, after=10, replace_after=0).validate()


def test_churn_builtin_plan_declares_a_replacement_deadline():
    plan = builtin_plan("churn", 4, 1, seed=3)
    plan.validate(n=4, t=1)
    [crash] = plan.crashes
    assert crash.replace_after is not None
    assert crash.recover_after is None
    assert crash.trigger == "decisions"
    assert not plan.exceeds_t  # within budget even with repair off
    assert FaultPlan.from_json(plan.to_json()) == plan


def test_byzantine_spec_selects_registered_behaviours():
    from repro.chaos.plan import ByzantineSpec
    from repro.faults.byzantine_servers import BYZANTINE_BEHAVIOURS
    for name, server_cls in sorted(BYZANTINE_BEHAVIOURS.items()):
        spec = ByzantineSpec(server=4, behaviour=name)
        spec.validate()
        assert spec.server_class() is server_cls
        plan = FaultPlan(name="byz", faulty=(4,), byzantine=(spec,))
        plan.validate(n=4, t=1)
        assert FaultPlan.from_json(plan.to_json()) == plan
    with pytest.raises(ConfigurationError):
        ByzantineSpec(server=4, behaviour="no-such").validate()
    with pytest.raises(ConfigurationError):
        ByzantineSpec(server=0, behaviour="corrupt-block").validate()


# -- scheduler composition ------------------------------------------------------

def test_scheduler_spec_round_trips_and_builds():
    from repro.chaos import SchedulerSpec
    from repro.net.schedulers import (
        PartitionScheduler,
        SlowPartiesScheduler,
    )
    expected = {"slow-parties": SlowPartiesScheduler,
                "partition": PartitionScheduler}
    for spec in (SchedulerSpec(name="slow-parties", slow_servers=(4,)),
                 SchedulerSpec(name="partition", group=(1,),
                               heal_after=60)):
        plan = FaultPlan(name="sched", scheduler=spec)
        assert FaultPlan.from_json(plan.to_json()) == plan
        assert isinstance(spec.build(seed=3), expected[spec.name])


def test_scheduler_spec_validation():
    from repro.chaos import SchedulerSpec
    with pytest.raises(ConfigurationError):
        SchedulerSpec(name="slow-parties").validate()  # no slow servers
    with pytest.raises(ConfigurationError):
        SchedulerSpec(name="partition", group=(1,)).validate()  # no heal
    with pytest.raises(ConfigurationError):
        SchedulerSpec(name="lifo").validate()


def test_fifo_scheduler_spec_validates_round_trips_and_builds():
    from repro.chaos import SchedulerSpec
    from repro.net.schedulers import FifoScheduler
    spec = SchedulerSpec(name="fifo")
    plan = FaultPlan(name="sched", scheduler=spec)
    plan.validate(4, 1)
    assert FaultPlan.from_json(plan.to_json()) == plan
    assert FaultPlan.from_json(json.loads(json.dumps(plan.to_json()))) \
        == plan
    assert isinstance(spec.build(seed=3), FifoScheduler)
    with pytest.raises(ConfigurationError):
        FaultPlan(scheduler=SchedulerSpec(
            name="slow-parties", slow_servers=(9,))).validate(4, 1)


def test_plans_compose_adversarial_scheduler_with_message_faults():
    """The ``slow-server`` plan starves party n *and* drops some of its
    traffic; within the bound the run must still be clean."""
    plan = builtin_plan("slow-server", 4, 1, seed=0)
    assert plan.scheduler is not None and plan.rules
    result = execute_run(RunSpec(protocol="atomic_ns", plan=plan))
    assert result.status == STATUS_OK
    assert result.faults.get("chaos.injected[drop]", 0) > 0


def test_scheduler_only_plan_counts_as_empty_injection():
    plan = builtin_plan("sched-partition", 4, 1, seed=0)
    assert plan.empty  # starving is not a Byzantine budget spend
    result = execute_run(RunSpec(protocol="atomic", plan=plan))
    assert result.status == STATUS_OK
    assert sum(result.faults.values()) == 0


# -- schedule transparency ------------------------------------------------------

def test_empty_plan_is_byte_identical_to_no_injector():
    """The tentpole invariant: the interposition hook itself must be
    schedule-preserving.  Replays every golden-schedule fixture case
    with an empty-plan injector attached and requires the recorded
    digests to match exactly."""
    import sys
    sys.path.insert(0, str(Path(__file__).parent.parent / "tools"))
    try:
        from gen_golden_schedules import empty_plan, run_case
    finally:
        sys.path.pop(0)
    document = json.loads(
        (FIXTURES / "golden_schedules.json").read_text())
    for record in document["cases"]:
        spec = dict(record["spec"])
        replayed = run_case(spec, plan=empty_plan(spec))
        assert replayed["sha256"] == record["sha256"], \
            f"case {record['spec']['name']} diverged with an " \
            f"empty-plan injector attached"
        assert replayed["events"] == record["events"]


def test_same_seed_and_plan_reproduce_identical_event_logs():
    spec = RunSpec(protocol="atomic_ns",
                   plan=builtin_plan("mixed", 4, 1, seed=5), seed=5)
    first = execute_run(spec)
    second = execute_run(spec)
    assert first.digest == second.digest
    assert first.faults == second.faults
    assert first.steps == second.steps


def test_different_plan_seed_changes_injected_schedule():
    base = RunSpec(protocol="atomic_ns",
                   plan=builtin_plan("corruption", 4, 1, seed=1), seed=1)
    other = RunSpec(protocol="atomic_ns",
                    plan=builtin_plan("corruption", 4, 1, seed=2), seed=1)
    # Same workload seed, different corruption keystream: the logs
    # record different corrupted payloads.
    assert execute_run(base).digest != execute_run(other).digest


# -- injector mechanics ---------------------------------------------------------

def _chaos_cluster(plan):
    """An idle deployment with ``plan``'s injector attached."""
    _, cluster = run_register_case("atomic_ns", 4, 1, writes=0, reads=0,
                                   plan=plan)
    return cluster, cluster.simulator.chaos


def test_drops_are_recorded_and_counted():
    plan = FaultPlan(name="d", faulty=(4,),
                     rules=(FaultRule(kind="drop", party=4, limit=3),))
    _, cluster = run_register_case("atomic_ns", 4, 1, writes=2, reads=2,
                                   plan=plan)
    counter = cluster.simulator.chaos.instruments.counter(
        "chaos.injected[drop]")
    assert counter.value == 3  # the budget is exhausted, then honored
    chaos_events = [event for event in cluster.simulator.event_log
                    if event.kind == "chaos"]
    assert len([e for e in chaos_events if e.action == "drop"]) == 3


def test_duplicates_get_fresh_message_ids():
    plan = FaultPlan(name="d", faulty=(4,),
                     rules=(FaultRule(kind="duplicate", party=4,
                                      limit=2),))
    _, cluster = run_register_case("atomic_ns", 4, 1, writes=2, reads=2,
                                   plan=plan)
    assert cluster.simulator.chaos.instruments.counter(
        "chaos.injected[duplicate]").value == 2


def test_duplicate_carries_the_original_wire_size(monkeypatch):
    """The copy shares the original's payload, so it is not sized
    again; a corrupted replacement has new content and is."""
    plan = FaultPlan(name="d", faulty=(4,),
                     rules=(FaultRule(kind="duplicate", party=4),
                            FaultRule(kind="corrupt", party=4)))
    cluster, injector = _chaos_cluster(plan)
    content = (TAG, "ping", (b"payload", 7))

    def fresh():
        return Message(*content[:2], server_id(4), server_id(1),
                       content[2], cluster.simulator.fresh_msg_id())

    original, copy = injector.intercept_enqueue(fresh())
    assert copy.msg_id != original.msg_id
    (corrupted,) = injector.intercept_enqueue(fresh())
    assert corrupted.payload != content[2]
    assert corrupted.wire_size() == len(encode(
        (corrupted.tag, corrupted.mtype, corrupted.payload)))
    size = original.wire_size()
    monkeypatch.setattr(message_module, "content_wire_size",
                        lambda *content: pytest.fail("sized again"))
    assert copy.wire_size() == size == len(encode(content))


def test_delayed_messages_are_eventually_released():
    plan = FaultPlan(name="d", faulty=(4,),
                     rules=(FaultRule(kind="delay", party=4, limit=4,
                                      delay=30),))
    _, cluster = run_register_case("atomic_ns", 4, 1, writes=2, reads=2,
                                   plan=plan)
    injector = cluster.simulator.chaos
    assert injector.held_count == 0  # nothing held at quiescence
    released = sum(
        injector.instruments.counter(f"chaos.released[{reason}]").value
        for reason in ("delay-expired", "forced"))
    assert released == injector.instruments.counter(
        "chaos.injected[delay]").value == 4


def test_partition_heals_and_releases_in_order():
    plan = FaultPlan(name="p",
                     partition=PartitionSpec(group=(1,), heal_at=25))
    _, cluster = run_register_case("atomic_ns", 4, 1, writes=2, reads=2,
                                   plan=plan)
    injector = cluster.simulator.chaos
    assert injector.held_count == 0
    held = injector.instruments.counter(
        "chaos.injected[partition-hold]").value
    assert held > 0


def test_injector_attach_is_one_shot():
    cluster, injector = _chaos_cluster(FaultPlan(name="none"))
    with pytest.raises(SimulationError):
        cluster.simulator.attach_injector(FaultInjector(FaultPlan()))


# -- campaigns ------------------------------------------------------------------

def test_campaign_within_bound_is_clean():
    """Acceptance sweep: >= 20 runs across Atomic, AtomicNS and Martin
    under the full within-budget battery report zero atomicity or
    wait-freedom violations (the n > 3t guarantee, exercised under
    every fault kind the plane supports)."""
    results = sweep(["atomic", "atomic_ns", "martin"], DEFAULT_BATTERY,
                    seeds=[0])
    assert len(results) >= 20
    assert all(result.status == STATUS_OK for result in results), \
        [(r.spec.protocol, r.spec.plan.name, r.status, r.detail)
         for r in results if r.status != STATUS_OK]
    report = campaign_report(results)
    assert report["unexpected"] == 0
    assert report["by_status"] == {STATUS_OK: len(results)}


#: The ``n > 4t`` baselines; every other protocol claims ``n > 3t``.
_NEEDS_N_GT_4T = {"bazzi_ding", "goodson", "phalanx"}


@pytest.mark.parametrize("plan_name", ["crash", "crash-recover"])
@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_every_protocol_rides_out_a_crash_at_its_resilience_bound(
        protocol, plan_name):
    """The paper's comparison made executable on the crash axis: each
    of the nine protocols, deployed with the fewest servers its own
    bound admits for ``t = 1``, stays atomic and wait-free when one
    server fail-stops (permanently, or transiently with a backlog
    replay) — five of them had no fail-stop variant before
    ``fail_stop`` derived one from the protocol's own server class."""
    n = 5 if protocol in _NEEDS_N_GT_4T else 4
    spec = RunSpec(protocol=protocol, n=n, t=1,
                   plan=builtin_plan(plan_name, n, 1, seed=0))
    _, cluster = run_register_case(protocol, n, 1, plan=spec.plan)
    crashing = cluster.servers[-1]
    assert type(crashing) is fail_stop(PROTOCOLS[protocol][0])
    assert all(type(server) is PROTOCOLS[protocol][0]
               for server in cluster.servers[:-1])
    result = execute_run(spec)
    assert result.status == STATUS_OK, result.detail


def test_fail_stop_is_memoized_and_keeps_the_public_aliases():
    from repro.core.atomic_ns import AtomicNSServer
    from repro.faults.failstop import FailStopNSServer
    variant = fail_stop(AtomicNSServer)
    assert variant is fail_stop(AtomicNSServer) is FailStopNSServer
    assert issubclass(variant, AtomicNSServer) and variant.__doc__
    with pytest.raises(ConfigurationError):
        variant(server_id(1), SystemConfig(n=4, t=1), trigger="clock")


def test_byzantine_behaviour_must_match_the_protocol_under_test():
    """Registered behaviours deviate from ``AtomicMdServer``; a plan
    carrying one cannot run against another protocol on either plane."""
    from repro.chaos.plan import ByzantineSpec
    plan = FaultPlan(name="byz", faulty=(4,), byzantine=(
        ByzantineSpec(server=4, behaviour="corrupt-block"),))
    with pytest.raises(ConfigurationError, match="is not a AtomicServer"):
        run_register_case("atomic", 4, 1, plan=plan)
    _, cluster = run_register_case("atomic_md", 4, 1, plan=plan)
    assert type(cluster.servers[3]) is plan.byzantine[0].server_class()


def test_boundary_probe_finds_violation_and_reproduces(tmp_path):
    """The negative control: crashing t+1 servers in an n=3t+1
    deployment models n=3t, where the paper proves storage impossible —
    the campaign must detect the wait-freedom violation, shrink the
    plan to a minimal failing core, and replay it bit-for-bit."""
    spec = RunSpec(protocol="atomic_ns",
                   plan=builtin_plan("boundary", 4, 1, seed=0), seed=0)
    result = execute_run(spec)
    assert result.status == STATUS_STALLED
    assert result.expected  # failing beyond the bound is the model
    shrunk = shrink_plan(spec, result.status)
    # The minimal plan is exactly the t+1 crashes: every one is needed.
    assert len(shrunk.spec.plan.crashes) == 2
    assert not shrunk.spec.plan.rules
    path = tmp_path / "reproducer.json"
    save_reproducer(shrunk.result, path)
    replayed, faithful = replay_reproducer(path)
    assert faithful
    assert replayed.status == STATUS_STALLED
    assert replayed.digest == shrunk.result.digest


def test_stalled_register_case_carries_its_cluster():
    """Past the bound the runner raises the stall with the cluster
    attached, and the campaign still classifies the same run
    ``stalled`` with the event-log digest it always had."""
    plan = builtin_plan("boundary", 4, 1, seed=0)
    with pytest.raises(LivenessError) as stall:
        run_register_case("atomic_ns", 4, 1, plan=plan)
    assert stall.value.cluster.simulator.time == 42
    result = execute_run(RunSpec(protocol="atomic_ns", plan=plan))
    assert result.status == STATUS_STALLED
    assert (result.steps, result.digest) == (42, "af25ccf330eed3fa41b6"
                                             "ccde4043ee7531bb8cf8f2"
                                             "d06b8e456e01b76e63a30c")


def test_shrink_removes_irrelevant_components():
    plan = FaultPlan(
        name="fat", seed=0, faulty=(3, 4), exceeds_t=True,
        rules=(FaultRule(kind="drop", party=3, limit=4),
               FaultRule(kind="duplicate", party=4, limit=4)),
        crashes=(CrashSpec(server=3, after=0),
                 CrashSpec(server=4, after=0)))
    spec = RunSpec(protocol="atomic", plan=plan, seed=1)
    assert execute_run(spec).status == STATUS_STALLED
    shrunk = shrink_plan(spec, STATUS_STALLED)
    # The message faults are noise; only the two crashes matter.
    assert not shrunk.spec.plan.rules
    assert len(shrunk.spec.plan.crashes) == 2
    assert shrunk.removed >= 2


def test_shrink_chunked_removal_beats_one_at_a_time():
    """ddmin removes the whole irrelevant rule block in one candidate
    run: the fat plan's two message rules vanish together, so total
    attempts stay below the one-at-a-time cost (1 baseline + 1 chunk
    + the failed single-crash reductions + workload shrinks)."""
    plan = FaultPlan(
        name="fat", seed=0, faulty=(3, 4), exceeds_t=True,
        rules=(FaultRule(kind="drop", party=3, limit=4),
               FaultRule(kind="duplicate", party=4, limit=4)),
        crashes=(CrashSpec(server=3, after=0),
                 CrashSpec(server=4, after=0)))
    spec = RunSpec(protocol="atomic", plan=plan, seed=1)
    shrunk = shrink_plan(spec, STATUS_STALLED)
    assert not shrunk.spec.plan.rules
    assert len(shrunk.spec.plan.crashes) == 2
    assert shrunk.removed == 2


def test_shrink_drops_irrelevant_scheduler_component():
    plan = FaultPlan(
        name="sched-noise", seed=0, faulty=(3, 4), exceeds_t=True,
        crashes=(CrashSpec(server=3, after=0),
                 CrashSpec(server=4, after=0)),
        scheduler=builtin_plan("slow-server", 4, 1).scheduler)
    spec = RunSpec(protocol="atomic", plan=plan, seed=1)
    shrunk = shrink_plan(spec, STATUS_STALLED)
    # The crashes alone stall the run; the scheduler entry is noise.
    assert shrunk.spec.plan.scheduler is None
    assert len(shrunk.spec.plan.crashes) == 2


def test_shrink_reduces_the_workload_cross_field():
    """Cross-field shrinking minimizes the RunSpec itself: a boundary
    stall needs only one client and (nearly) no operations."""
    spec = RunSpec(protocol="atomic",
                   plan=builtin_plan("boundary", 4, 1, seed=0),
                   seed=0, clients=4, writes=8, reads=8)
    shrunk = shrink_plan(spec, STATUS_STALLED)
    assert shrunk.spec.clients == 1
    assert shrunk.spec.writes + shrunk.spec.reads \
        < spec.writes + spec.reads
    assert shrunk.spec.writes + shrunk.spec.reads >= 1
    # The minimized spec still reproduces and still replays.
    assert execute_run(shrunk.spec).digest == shrunk.result.digest


def test_shrink_rejects_non_failing_baseline():
    spec = RunSpec(protocol="atomic_ns",
                   plan=builtin_plan("drops", 4, 1, seed=0), seed=0)
    with pytest.raises(ValueError):
        shrink_plan(spec, STATUS_STALLED)


# -- CLI ------------------------------------------------------------------------

def test_cli_chaos_smoke(capsys):
    """The tier-1 smoke entry point: a small clean campaign exits 0."""
    from repro.cli import main
    assert main(["chaos", "--smoke"]) == 0
    out = capsys.readouterr().out
    assert "0 unexpected" in out


def test_cli_chaos_boundary_replay_round_trip(tmp_path, capsys):
    from repro.cli import main
    out_file = tmp_path / "report.json"
    code = main(["chaos", "--protocols", "atomic_ns", "--plans", "none",
                 "--boundary", "--seeds", "1",
                 "--out", str(out_file),
                 "--reproducer-dir", str(tmp_path)])
    assert code == 0  # the boundary failure is expected, not a defect
    report = json.loads(out_file.read_text())
    assert report["runs"] == 2
    assert report["unexpected"] == 0
    reproducer = tmp_path / "chaos_atomic_ns_boundary_s0.json"
    assert reproducer.exists()
    capsys.readouterr()
    assert main(["chaos", "--replay", str(reproducer)]) == 0
    assert "bit-for-bit" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["chaos", "--protocols", "goodson", "--plans", "crash"],
    ["monitor", "--source", "simulate", "--protocol", "goodson",
     "--plan", "crash"],
], ids=["chaos", "monitor-simulate"])
def test_cli_reports_a_rejected_deployment_without_a_traceback(
        argv, capsys):
    """``goodson`` needs n > 4t: at the default n=4/t=1 the CLI says so
    and exits 2, as it does for an unknown plan."""
    from repro.cli import main
    assert main(argv) == 2
    assert "requires n > 4t" in capsys.readouterr().err


def test_cli_chaos_crashes_the_n_gt_4t_baselines(capsys):
    from repro.cli import main
    assert main(["chaos", "--protocols", "goodson", "phalanx",
                 "bazzi_ding", "--n", "5", "--plans", "crash",
                 "crash-recover"]) == 0
    assert "6 runs: {'ok': 6}" in capsys.readouterr().out


def test_cli_chaos_protocols_are_validated_by_the_parser(capsys):
    from repro.cli import main
    with pytest.raises(SystemExit) as exit_info:
        main(["chaos", "--protocols", "paxos"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'paxos'" in capsys.readouterr().err
