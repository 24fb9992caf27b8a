"""Fail-stop faults at every protocol point: liveness must never depend
on *when* a tolerated server dies."""

import pytest

from repro.analysis.history import HistoryRecorder
from repro.chaos import CrashSpec, FaultPlan
from repro.cluster import run_register_case
from repro.config import SystemConfig
from repro.faults.failstop import (
    FailStopMartinServer,
    FailStopNSServer,
    FailStopServer,
)
from repro.net.message import EVENT_DELIVER

TAG = "reg"


def _crash_run(protocol, crash_after, seed=0, record_deliveries=False,
               **crash):
    """The seeded workload with server 2 fail-stopping after
    ``crash_after`` deliveries (``crash``: further ``CrashSpec``
    fields)."""
    plan = FaultPlan(name="crash", faulty=(2,), crashes=(
        CrashSpec(server=2, after=crash_after, **crash),))
    _, cluster = run_register_case(protocol, 4, 1, writes=2, reads=2,
                                   seed=seed, plan=plan,
                                   record_deliveries=record_deliveries)
    return cluster


def _run_with_crash_point(protocol, crash_after, seed=0, **kwargs):
    cluster = _crash_run(protocol, crash_after, seed=seed, **kwargs)
    honest = [server.pid for index, server
              in enumerate(cluster.servers, start=1) if index != 2]
    HistoryRecorder(cluster, TAG, honest_servers=honest).check()
    return cluster


def test_crash_at_time_zero():
    cluster = _run_with_crash_point("atomic", 0)
    assert type(cluster.server(2)) is FailStopServer
    assert cluster.server(2).crashed


@pytest.mark.parametrize("crash_after", [1, 3, 7, 15, 40, 100])
def test_atomic_survives_every_crash_point(crash_after):
    _run_with_crash_point("atomic", crash_after)


@pytest.mark.parametrize("crash_after", [1, 5, 20, 60])
def test_atomic_ns_survives_every_crash_point(crash_after):
    _run_with_crash_point("atomic_ns", crash_after)


@pytest.mark.parametrize("crash_after", [1, 4, 12])
def test_martin_survives_every_crash_point(crash_after):
    _run_with_crash_point("martin", crash_after)


def test_dense_crash_point_sweep():
    """Walk the crash point across the whole first write of a run —
    mid-echo, mid-ready, mid-share — liveness holds at each."""
    for crash_after in range(0, 30, 2):
        _run_with_crash_point("atomic_ns", crash_after, seed=crash_after)


def test_server_that_never_crashes_counts_as_honest():
    cluster = _run_with_crash_point("atomic", 10 ** 9)
    assert not cluster.server(2).crashed


def test_crashed_server_is_delivered_to_but_ignores():
    cluster = _run_with_crash_point("atomic", 1, record_deliveries=True)
    server = cluster.server(2)
    assert server.crashed
    # deliveries continued (the model always delivers) ...
    assert sum(1 for event in cluster.simulator.event_log
               if event.kind == EVENT_DELIVER
               and event.party == server.pid) > 1
    # ... but only the one before the crash point was processed, and a
    # host that is down for good keeps nothing
    assert server._delivered == 1
    assert len(server.inbox) == 0


@pytest.mark.parametrize("protocol,server_cls,recover_after", [
    ("atomic", FailStopServer, 8),
    ("atomic_ns", FailStopNSServer, 8),
    ("martin", FailStopMartinServer, 3),  # replication runs are short
])
def test_crash_then_recover_rejoins(protocol, server_cls, recover_after):
    """A transiently crashed server replays its down-time backlog and
    rejoins; the run stays atomic and wait-free throughout."""
    cluster = _crash_run(protocol, 5, recover_after=recover_after)
    HistoryRecorder(cluster, TAG).check()
    server = cluster.server(2)
    assert type(server) is server_cls
    assert server.recovered
    assert not server.crashed
    # The backlog really was replayed: deliveries counted past both the
    # crash point and the down window.
    assert server._delivered >= 5 + recover_after


def test_recovery_requires_enough_traffic():
    """A server whose down window outlasts the run never recovers (the
    permanent-crash behaviour is the limit case)."""
    cluster = _crash_run("atomic_ns", 1, recover_after=10 ** 9)
    server = cluster.server(2)
    assert server.crashed and not server.recovered


# -- trigger clocks -----------------------------------------------------------

def test_unknown_trigger_is_rejected():
    from repro.common.errors import ConfigurationError
    from repro.common.ids import server_id
    with pytest.raises(ConfigurationError):
        FailStopServer(server_id(2), SystemConfig(n=4, t=1),
                       crash_after=1, trigger="wallclock")


def test_decision_trigger_crashes_on_the_global_clock():
    """With ``trigger="decisions"`` the crash point reads the global
    scheduling clock, not the server's own delivery count — the server
    goes down at the appointed time even if it was starved of traffic,
    and liveness still holds."""
    cluster = _crash_run("atomic", 20, trigger="decisions")
    server = cluster.server(2)
    assert server.crashed
    # Decision clock ran ahead of the delivery count: the server
    # crashed having delivered fewer messages than the crash point.
    assert server._delivered < 20
    honest = [s.pid for index, s in enumerate(cluster.servers, start=1)
              if index != 2]
    HistoryRecorder(cluster, TAG, honest_servers=honest).check()


def test_decision_trigger_recovery_window_is_global_too():
    cluster = _crash_run("atomic_ns", 5, seed=1, recover_after=30,
                         trigger="decisions")
    server = cluster.server(2)
    assert server.recovered and not server.crashed
    HistoryRecorder(cluster, TAG).check()


def test_decision_trigger_crash_spec_round_trips_in_campaigns():
    from repro.chaos import RunSpec, execute_run
    plan = FaultPlan(
        name="decision-crash", seed=0, faulty=(4,),
        crashes=(CrashSpec(server=4, after=10, trigger="decisions"),))
    assert FaultPlan.from_json(plan.to_json()) == plan
    # The historical default stays implicit in serialized reproducers.
    default = FaultPlan(faulty=(4,), crashes=(CrashSpec(server=4),))
    assert "trigger" not in default.to_json()["crashes"][0]
    result = execute_run(RunSpec(protocol="atomic", plan=plan))
    assert result.status == "ok"
