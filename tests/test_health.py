"""The health plane: suspicion scoring, SLO burn alerting, and the
deterministic dashboard renders built on top of them."""

import io
from pathlib import Path

import pytest

from repro.chaos.campaign import RunSpec, execute_run
from repro.chaos.library import builtin_plan
from repro.cli import main
from repro.cluster import build_cluster
from repro.config import SystemConfig
from repro.net.schedulers import RandomScheduler
from repro.common.errors import SimulationError
from repro.obs import (
    DEFAULT_WEIGHTS,
    HealthMonitor,
    SloSpec,
    SloTracker,
    default_slos,
    export_health_html,
    export_prometheus,
    health_dashboard,
    shard_of_tag,
)
from repro.obs.slo import KIND_AVAILABILITY, KIND_REPLICATION

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_with_monitor(plan_name, seed=0, protocol="atomic_ns",
                     writes=6, reads=6):
    """Execute one monitored chaos run at the ``repro monitor``
    workload size (enough ops that sustained skew outruns the burn
    windows)."""
    plan = builtin_plan(plan_name, 4, 1, seed=seed)
    spec = RunSpec(protocol=protocol, plan=plan, n=4, t=1, seed=seed,
                   writes=writes, reads=reads)
    monitor = HealthMonitor()
    result = execute_run(spec, monitor=monitor)
    return monitor, result, spec


# -- spec / tracker units ------------------------------------------------------

def test_slo_spec_validation():
    with pytest.raises(SimulationError):
        SloSpec(name="bad", kind="throughput")
    with pytest.raises(SimulationError):
        SloSpec(name="bad", objective=1.0)
    with pytest.raises(SimulationError):
        SloSpec(name="bad", fast_window=8, slow_window=4)


def test_slo_matching_by_op():
    spec = SloSpec(name="reads", op="read")
    assert spec.matches("read")
    assert not spec.matches("write")
    assert SloSpec(name="all").matches("read")


def test_latency_classification():
    spec = SloSpec(name="lat", threshold_ticks=40)
    assert spec.is_good(True, 40)
    assert not spec.is_good(True, 41)
    assert not spec.is_good(False, None)


def test_availability_ignores_latency():
    spec = SloSpec(name="avail", kind=KIND_AVAILABILITY)
    assert spec.is_good(True, 10 ** 6)
    assert not spec.is_good(False, None)


def test_replication_judges_skew_even_for_abandoned_ops():
    spec = SloSpec(name="skew", kind=KIND_REPLICATION,
                   threshold_ticks=250)
    assert spec.is_good(False, 200)  # completion is irrelevant
    assert not spec.is_good(True, 251)


def test_burn_rate_is_bad_fraction_over_budget():
    tracker = SloTracker(SloSpec(name="lat", objective=0.9))
    for bucket, good in ((1, True), (1, True), (2, False), (2, False)):
        tracker.observe(bucket, good)
    # window (0, 2]: 2 good, 2 bad -> bad fraction 0.5, budget 0.1
    assert tracker.burn_rate(2, 2) == pytest.approx(5.0)
    assert tracker.burn_rate(10, 2) == 0.0  # empty window


def test_multi_window_alert_needs_both_windows_burning():
    spec = SloSpec(name="lat", objective=0.9, fast_window=2,
                   slow_window=4, burn_threshold=2.0)
    tracker = SloTracker(spec)
    # sustained badness: both windows burn at 10x
    for bucket in range(1, 5):
        tracker.observe(bucket, False)
    assert tracker.alert_at(4)
    # an old blip outside the fast window must not page
    blip = SloTracker(spec)
    blip.observe(1, False)
    for bucket in range(3, 6):
        blip.observe(bucket, True)
    assert not blip.alert_at(5)


def test_evaluate_keeps_mid_run_pages():
    """A post-hoc report must not lose a page a live evaluator would
    have raised: alert is true if the condition held at *any* bucket,
    even when traffic settled long before the end bucket."""
    spec = SloSpec(name="lat", objective=0.9, fast_window=2,
                   slow_window=4, burn_threshold=2.0)
    tracker = SloTracker(spec)
    for bucket in range(1, 5):
        tracker.observe(bucket, False)
    report = tracker.evaluate(end_bucket=50)  # long quiesce tail
    assert report["alert"]
    assert report["fired_buckets"]
    assert report["fast_burn"] == 0.0  # the end-anchored window is empty


# -- shard parsing -------------------------------------------------------------

def test_shard_of_tag():
    assert shard_of_tag("kv.s3.user:42") == 3
    assert shard_of_tag("reg") is None
    assert shard_of_tag("kv.sbad.x") is None


# -- scoring under real runs ---------------------------------------------------

def test_fault_free_run_is_calm():
    monitor, result, _ = run_with_monitor("none")
    assert result.status == "ok"
    assert monitor.alerts() == []
    assert monitor.ops_abandoned == 0
    for score in monitor.suspicion_scores().values():
        assert score < 0.15


def test_boundary_plan_separates_faulty_from_honest():
    """Crashing t+1 servers stalls the run — and every crashed server
    must score strictly above every honest one."""
    monitor, result, spec = run_with_monitor("boundary")
    assert result.status != "ok"
    scores = monitor.suspicion_scores()
    faulty = {f"P{index}" for index in spec.plan.faulty}
    assert faulty
    worst_honest = max(score for name, score in scores.items()
                       if name not in faulty)
    best_faulty = min(score for name, score in scores.items()
                      if name in faulty)
    assert best_faulty > worst_honest


@pytest.mark.parametrize("shards", [1, 4])
def test_crashed_kv_server_stands_out_at_any_shard_count(shards):
    """Shard ``s`` places its local ``P_j`` on a rotated fleet server;
    the tracer must see fleet identities, or a crashed server's silence
    is smeared over every local name it answers to (at 4 shards it used
    to score 0.15 against honest 0.05-0.12)."""
    from repro.kv.bench import run_kv_case

    plan = builtin_plan("crash", 4, 1, seed=0)
    crashed = f"P{plan.crashes[0].server}"
    monitor = HealthMonitor()
    run_kv_case(shards, n=4, t=1, ops=96, plan="crash", monitor=monitor)
    scores = monitor.suspicion_scores()
    honest = max(score for server, score in scores.items()
                 if server != crashed)
    assert scores[crashed] == max(scores.values())
    assert scores[crashed] >= 3 * honest
    assert scores[crashed] > 0.4
    assert [server for server, score in scores.items()
            if score >= 0.25] == [crashed]


def test_kv_verification_failures_blame_the_fleet_server():
    """A Byzantine data plane on the last fleet server must be charged
    to that server, whichever shard-local name its blocks came under."""
    from repro.kv.bench import run_kv_case

    monitor = HealthMonitor()
    row, _ = run_kv_case(4, n=4, t=1, protocol="atomic_md", ops=96,
                         write_ratio=0.1, byzantine="corrupt-block",
                         monitor=monitor)
    assert row.verify_failures > 0
    fails = {entry["server"]: entry["signals"]["verify_fails"]
             for entry in monitor.server_health()}
    assert fails["P4"] == row.verify_failures
    assert sum(fails.values()) == fails["P4"]


def test_slow_server_fires_replication_skew_alert():
    """The starved server breaches the replication-skew objective while
    completion latencies still look healthy — the signal that pages."""
    monitor, result, _ = run_with_monitor("slow-server")
    assert result.status == "ok"
    fired = [entry["name"] for entry in monitor.alerts()]
    assert "replication-skew" in fired
    assert monitor.suspicion_scores()["P4"] > 0.2


def test_one_oid_on_two_registers_is_two_operations():
    """Operation identifiers are only unique per register: the same
    oid written to two registers at once is two operations, each with
    its own replication skew."""
    cluster = build_cluster(SystemConfig(n=4, t=1), protocol="atomic",
                            num_clients=2, scheduler=RandomScheduler(5))
    monitor = HealthMonitor().attach(cluster.simulator)
    cluster.client(1).invoke_write("left", "w1", b"left value")
    cluster.client(2).invoke_write("right", "w1", b"right value")
    cluster.run()
    monitor.finalize()
    assert monitor.ops_completed == 2
    assert monitor.store.get("ops.replication_skew").total() == 2
    replication = [tracker for tracker in monitor.trackers
                   if tracker.spec.kind == KIND_REPLICATION]
    assert replication
    assert all(tracker.total == 2 for tracker in replication)


def test_weights_blend_to_one():
    assert sum(DEFAULT_WEIGHTS.values()) == pytest.approx(1.0)


def test_health_rows_carry_components_and_signals():
    monitor, _, _ = run_with_monitor("none")
    rows = monitor.server_health()
    assert [row["server"] for row in rows] == ["P1", "P2", "P3", "P4"]
    for row in rows:
        assert set(row["components"]) == set(DEFAULT_WEIGHTS)
        blended = sum(DEFAULT_WEIGHTS[name] * value
                      for name, value in row["components"].items())
        assert row["score"] == pytest.approx(blended, abs=1e-6)
        assert row["signals"]["sends"] > 0


def test_snapshot_is_json_plain_and_finalizes():
    import json
    monitor, _, _ = run_with_monitor("none")
    snapshot = monitor.snapshot()
    json.dumps(snapshot)
    assert snapshot["ops"]["completed"] == monitor.ops_completed
    assert {entry["name"] for entry in snapshot["slos"]} \
        == {spec.name for spec in default_slos()}
    assert snapshot["series"]


# -- determinism of the rendered artifacts -------------------------------------

def test_dashboard_and_exports_byte_identical_across_runs():
    renders = []
    for _ in range(2):
        monitor, _, _ = run_with_monitor("slow-server")
        monitor.finalize()
        prom = io.StringIO()
        export_prometheus(monitor, prom)
        html = io.StringIO()
        export_health_html(monitor, html)
        renders.append((health_dashboard(monitor), prom.getvalue(),
                        html.getvalue()))
    assert renders[0] == renders[1]


def test_dashboard_sections_present():
    monitor, _, _ = run_with_monitor("none")
    monitor.finalize()
    text = health_dashboard(monitor)
    for heading in ("== fleet health ==", "== slos ==",
                    "== operations ==", "== series =="):
        assert heading in text


def test_prometheus_export_shape():
    monitor, _, _ = run_with_monitor("none")
    monitor.finalize()
    stream = io.StringIO()
    export_prometheus(monitor, stream)
    text = stream.getvalue()
    assert '# TYPE repro_health_suspicion gauge' in text
    assert 'repro_health_suspicion{server="P1"}' in text
    assert 'repro_slo_alert{slo="availability"} 0' in text


def test_committed_health_baseline_regenerates_byte_for_byte(tmp_path):
    """``benchmarks/BENCH_health_baseline.json`` is exactly what the
    chaos-source monitor sweep writes: every score, SLO evaluation and
    operation count, to the byte."""
    assert main(["monitor", "--source", "chaos", "--seeds", "2",
                 "--out", str(tmp_path), "--label",
                 "health_baseline"]) == 0
    name = "BENCH_health_baseline.json"
    assert (tmp_path / name).read_bytes() == \
        (REPO_ROOT / "benchmarks" / name).read_bytes()
