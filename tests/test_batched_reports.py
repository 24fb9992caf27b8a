"""The batched kv reports against the per-message reference observers.

A kv host reports a flush's inner sends and an envelope's inner
deliveries in one ``on_send`` / ``on_deliver`` report each, and the
trace recorder files a report in one loop with its instruments updated
inline.  Every observer output
must be what the same run gives when each inner message is reported
on its own, as it is buffered or delivered, and recorded through one
method call per event (:mod:`tests.reference_observers`): every field
of every record, the per-operation index, the instruments, the quorum
releases, the health monitor's snapshot and the kv-bench row.  The
runs cover the four kvperf workload shapes at smoke size, chaos
``duplicate`` / ``drop`` / ``delay`` rules (a duplicated envelope
delivers its entries twice), a fail-stop host and a Byzantine server.
An observer with ``on_send`` / ``on_deliver`` alone hears of every
message the recorder records, envelopes and inner messages alike.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import pytest

from repro.chaos import FaultPlan, FaultRule
from repro.common.ids import client_id, server_id
from repro.config import SystemConfig
from repro.kv import (
    MSG_KV_BATCH,
    KvDirectory,
    KvEntry,
    build_kv_cluster,
    drive,
    run_kv_case,
)
from repro.net.schedulers import RandomScheduler
from repro.obs import TraceRecorder
from repro.obs.health import HealthMonitor
from repro.repair.bench import churn_storm_plan
from repro.workloads.kv import kv_workload
from tests.reference_observers import (
    ReferenceHealthMonitor,
    ReferenceRecorder,
    report_each_inner_message,
)

#: kvperf's four workload shapes (n=7, t=2, four sessions) at an eighth
#: of their size
SHAPES = {
    "mixed_small": dict(protocol="atomic", num_shards=4, keys=32, ops=60,
                        write_ratio=0.5, distribution="zipf",
                        value_size=64),
    "large_values": dict(protocol="atomic_ns", num_shards=4, keys=32,
                         ops=60, write_ratio=0.5,
                         distribution="uniform", value_size=16384),
    "readheavy_cached": dict(protocol="atomic_md", num_shards=4, keys=64,
                             ops=300, write_ratio=0.1,
                             distribution="zipf", value_size=64,
                             invoke_probability=1.0, cache_size=16,
                             lease_ticks=128),
    "churn_repair": dict(protocol="atomic_md", num_shards=2, keys=8,
                         ops=60, write_ratio=0.5, distribution="zipf",
                         value_size=64, max_attempts=6,
                         plan=churn_storm_plan(7, 2, 1), batch_size=2),
}

#: duplicate, drop and delay rules at server 4 of a 4-server fleet
MESSAGE_FAULTS = FaultPlan(name="dup-drop-delay", seed=3, faulty=(4,),
                           rules=(FaultRule(kind="duplicate", party=4,
                                            limit=4),
                                  FaultRule(kind="drop", party=4, limit=2),
                                  FaultRule(kind="delay", party=4, limit=3,
                                            delay=5)))

CASES = {
    **{name: dict(n=7, t=2, sessions=4, seed=1, **shape)
       for name, shape in SHAPES.items()},
    "chaos": dict(num_shards=2, keys=8, ops=24, seed=3,
                  plan=MESSAGE_FAULTS),
    "fail-stop": dict(num_shards=2, keys=8, ops=24, seed=2, plan="crash"),
    "byzantine": dict(protocol="atomic_md", num_shards=2, keys=8, ops=24,
                      seed=2, byzantine="corrupt-block"),
}


def _outputs(monitor, row):
    """Everything an observer of the run hands on, in plain values."""
    recorder = monitor.recorder
    return {
        "messages": [dataclasses.astuple(record)
                     for record in recorder.messages.values()],
        "index": {key: [record.msg_id for record in records]
                  for key, records
                  in recorder._records_by_operation.items()},
        "registry": recorder.registry.snapshot(),
        "quorum_releases": list(recorder.quorum_releases),
        "health": monitor.snapshot(),
        "row": dataclasses.asdict(row),
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_batched_reports_record_what_per_message_reports_do(
        case, monkeypatch):
    spec = CASES[case]
    if case == "chaos":
        MESSAGE_FAULTS.validate(4, 1)
    monitor = HealthMonitor()
    row, cluster = run_kv_case(monitor=monitor, **spec)
    batched = _outputs(monitor, row)
    report_each_inner_message(monkeypatch)
    monitor = ReferenceHealthMonitor()
    row, _ = run_kv_case(monitor=monitor, **spec)
    monkeypatch.undo()
    reference = _outputs(monitor, row)
    assert batched["messages"] and batched["quorum_releases"]
    if case == "chaos":
        events = [event.action for event in cluster.simulator.event_log
                  if event.kind == "chaos"]
        assert {"duplicate", "drop", "delay"} <= set(events)
    for name in batched:
        assert batched[name] == reference[name], name


def test_a_batch_records_what_its_messages_record_one_at_a_time():
    """One batch, against its messages reported one by one: buffer
    depths that rise and fall inside the batch, a message with no oid,
    a sub-instance tag, and an in-flight count sampled per message."""
    sender, recipient = client_id(1), server_id(2)
    entries = [KvEntry(0, tag, mtype, payload, msg_id, 1, None)
               for msg_id, (tag, mtype, payload) in enumerate((
                   ("kv.s0.k1", "get-ts", ("c1.o1",)),
                   ("kv.s0.k1|disp.c1.o1", "avid-send", (b"block",)),
                   ("kv.s0.k1", "ack", ()),
                   ("kv.s0.k2", "read", ("c1.o2", 3))), start=10)]
    sends = [(entry, recipient, 20 + entry.msg_id, 5 + index // 2)
             for index, entry in enumerate(entries)]
    deliveries = [(entry, depth, 9 + index) for index, (entry, depth)
                  in enumerate(zip(entries, (1, 3, 0, 2)))]
    batched, reference = TraceRecorder(), ReferenceRecorder()
    batched.on_send(sender, sends, 4)
    batched.on_deliver(sender, recipient, deliveries, 3)
    for send in sends:
        reference.on_send(sender, (send,), 4)
    for delivery in deliveries:
        reference.on_deliver(sender, recipient, (delivery,), 3)
    assert [dataclasses.astuple(record) for record
            in batched.messages.values()] == [
        dataclasses.astuple(record)
        for record in reference.messages.values()]
    assert batched._records_by_operation == \
        reference._records_by_operation
    assert batched.registry.snapshot() == reference.registry.snapshot()
    depth = batched.registry.snapshot()[f"inbox.depth[{recipient}]"]
    assert (depth["value"], depth["min"], depth["max"]) == (2, 0, 3)


def test_an_observer_of_the_two_traffic_hooks_sees_every_message():
    """An observer that defines only ``on_send`` / ``on_deliver`` hears
    of every message the recorder records on a kv run — the envelopes
    the simulator admits and the inner messages the hosts flush, in
    the recorder's order — and of every delivery it stamps."""
    cluster = build_kv_cluster(KvDirectory(SystemConfig(n=4, t=1), 2),
                               protocol="atomic", num_sessions=2,
                               scheduler=RandomScheduler(5))
    recorder = TraceRecorder().attach(cluster.simulator)
    sent, delivered = [], []
    cluster.simulator.add_observer(SimpleNamespace(
        on_send=lambda sender, sends, pending: sent.extend(
            message.msg_id for message, _, _, _ in sends),
        on_deliver=lambda sender, recipient, deliveries, pending:
            delivered.extend(message.msg_id
                             for message, _, _ in deliveries)))
    drive(cluster, kv_workload(num_sessions=2, num_keys=4, ops=12, seed=5),
          seed=5)
    records = recorder.messages
    assert {record.mtype == MSG_KV_BATCH
            for record in records.values()} == {True, False}
    assert sent == list(records)
    assert sorted(delivered) == sorted(
        msg_id for msg_id, record in records.items()
        if record.deliver_time is not None)
    assert len(delivered) == \
        recorder.registry.counter("net.delivered").value
