"""The key-value plane: directory, envelopes, sessions, scaling, chaos.

The load-bearing guarantees tested here:

* **Directory determinism** — key → shard → placement mapping is pure
  data, identical across instances, and validated against the fleet.
* **Wire fidelity** — kv envelopes and their inner entries round-trip
  through the canonical encoding like any other payload.
* **Size accounting** — envelope and entry sizes are composed from
  their parts, equal the full encoding byte for byte, and cost no
  serialization.
* **Session semantics** — coalescing folds queued same-key writes,
  backpressure bounds the queue, retries complete stranded operations.
* **Scaling** — more shards yield strictly higher aggregate ops/tick
  (batch density, measured end to end by the bench harness).
* **Safety** — every key's history linearizes under concurrent
  cross-shard sessions, fault-free and under builtin chaos plans; and
  the single-register path stays byte-identical with the kv plane
  loaded (golden-schedule regression).
"""

import hashlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.chaos import FaultInjector, FaultPlan, FaultRule, builtin_plan
from repro.common import serialization
from repro.common.errors import (
    BackpressureError,
    ConfigurationError,
    SimulationError,
)
from repro.common.ids import PartyId, client_id, server_id
from repro.common.serialization import decode, encode, encoded_size
from repro.config import SystemConfig
from repro.core.atomic import AtomicClient, AtomicServer
from repro.kv import (
    KV_TAG,
    MSG_KV_BATCH,
    KvClientHost,
    KvDirectory,
    KvEntry,
    KvSession,
    ShardBus,
    build_kv_cluster,
    check_kv_histories,
    drive,
    run_kv_case,
)
from repro.kv.directory import ShardSpec
from repro.kv.mux import _KvMuxProcess
from repro.kv.session import MAX_QUEUE
from repro.net.message import Message, content_wire_size
from repro.net.process import Process
from repro.net.schedulers import RandomScheduler
from repro.net.simulator import Simulator
from repro.obs import TraceRecorder
from repro.repair.reconfig import next_generation
from repro.workloads.kv import KvOp, key_names, kv_workload
from tests.kv_support import settle
from tests.reference_observers import sent_messages

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

FLEET = SystemConfig(n=4, t=1)


# -- directory ----------------------------------------------------------------

def test_directory_mapping_is_deterministic_across_instances():
    first = KvDirectory(FLEET, 8)
    second = KvDirectory(SystemConfig(n=4, t=1), 8)
    for key in key_names(64):
        assert first.shard_of_key(key) == second.shard_of_key(key)
        assert first.register_tag(key) == second.register_tag(key)


def test_directory_placement_rotates_over_the_fleet():
    directory = KvDirectory(FLEET, 4)
    assert [spec.placement for spec in directory.shards] == [
        (1, 2, 3, 4), (2, 3, 4, 1), (3, 4, 1, 2), (4, 1, 2, 3)]
    spec = directory.shard(1)
    assert spec.fleet_server_index(1) == 2
    assert spec.local_server_index(2) == 1
    assert spec.local_server_index(1) == 4


def test_directory_shard_configs_keep_the_resilience_bound():
    directory = KvDirectory(SystemConfig(n=7, t=2), 3)
    for spec in directory.shards:
        assert spec.config.n == 7 and spec.config.t == 2
        assert spec.config.n > 3 * spec.config.t


def test_directory_rejects_invalid_shapes_and_keys():
    with pytest.raises(ConfigurationError):
        KvDirectory(FLEET, 0)
    directory = KvDirectory(FLEET, 2)
    with pytest.raises(ConfigurationError):
        directory.shard_of_key("")
    with pytest.raises(ConfigurationError):
        directory.shard_of_key("bad|key")


def test_shard_of_key_memo_answers_what_the_sha256_rule_does(monkeypatch):
    """``shard_of_key`` remembers each key's shard: on first sight and
    on a memo hit it answers what SHA-256 maps the key to, and a hit
    hashes nothing.  An invalid key is refused on every call (an
    unhashable one with the same error) and never remembered."""
    directory = KvDirectory(FLEET, 7)
    keys = [f"key{index:04d}" for index in range(1000)]
    expected = [
        int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8],
                       "big") % 7
        for key in keys]
    assert [directory.shard_of_key(key) for key in keys] == expected
    hashed = []
    real_sha256 = hashlib.sha256
    monkeypatch.setattr(hashlib, "sha256",
                        lambda data: hashed.append(data) or real_sha256(data))
    assert [directory.shard_of_key(key) for key in keys] == expected
    assert hashed == []
    for bad in ("", "bad|key", None, 7, ["key0001"]):
        for _ in range(2):
            with pytest.raises(ConfigurationError):
                directory.shard_of_key(bad)
    assert hashed == []
    assert len(directory._shard_of_key) == len(keys)
    assert "" not in directory._shard_of_key
    assert "bad|key" not in directory._shard_of_key


# -- wire envelope ------------------------------------------------------------

def test_kv_entry_roundtrips_through_canonical_encoding():
    entry = KvEntry(shard=3, tag="kv.s3.k001", mtype="w-ts-q",
                    payload=("oid", b"value", 7), msg_id=42, depth=2,
                    cause_id=41)
    batch = ("kv", "kv-batch", ((entry,),))
    tag, mtype, payload = decode(encode(batch))
    assert (tag, mtype) == ("kv", "kv-batch")
    decoded = payload[0][0]
    assert decoded == entry
    assert decoded.well_formed()


def test_live_kv_envelopes_roundtrip_on_the_wire():
    directory = KvDirectory(FLEET, 2)
    cluster = build_kv_cluster(directory, num_sessions=2)
    spy = _SendSpy().attach(cluster.simulator)
    drive(cluster, kv_workload(num_sessions=2, num_keys=4, ops=8, seed=3),
          seed=3)
    envelopes = [message for message in spy.sent
                 if message.mtype == MSG_KV_BATCH]
    assert envelopes
    for message in envelopes:
        wire = encode((message.tag, message.mtype, message.payload))
        assert decode(wire) == (message.tag, message.mtype,
                                message.payload)


# -- size accounting ------------------------------------------------------------

class _SendSpy(TraceRecorder):
    """A recorder that keeps every message it is told was sent: the
    envelopes the simulator admits and the inner messages the hosts
    flush, as ``Message``s in fleet identities."""

    def __init__(self):
        super().__init__()
        self.sent = []

    def on_send(self, sender, sends, pending):
        self.sent.extend(message for message, _
                         in sent_messages(sender, sends))
        super().on_send(sender, sends, pending)


def _small_kv_cluster(protocol, seed):
    directory = KvDirectory(
        FLEET, 2, shard_k=FLEET.t + 1 if protocol == "atomic_md" else None)
    return build_kv_cluster(directory, protocol=protocol, num_sessions=2,
                            scheduler=RandomScheduler(seed))


@pytest.mark.parametrize("protocol,fault_kinds", [
    ("atomic", ()), ("atomic_ns", ()), ("atomic_md", ()),
    ("atomic", ("duplicate", "corrupt")),
])
def test_composed_sizes_equal_the_full_encoding(protocol, fault_kinds):
    """No size on the kv path comes from serializing: entries are sized
    from their content's size, envelopes from their entries', chaos
    duplicates inherit the original's.  Each must still be exactly the
    length of the canonical encoding, and so must their total."""
    cluster = _small_kv_cluster(protocol, seed=5)
    spy = _SendSpy().attach(cluster.simulator)
    if fault_kinds:
        plan = FaultPlan(name="dup-corrupt", seed=5, faulty=(FLEET.n,),
                         rules=tuple(FaultRule(kind=kind, party=FLEET.n,
                                               limit=3)
                                     for kind in fault_kinds))
        plan.validate(FLEET.n, FLEET.t)
        cluster.simulator.attach_injector(FaultInjector(plan))
    drive(cluster, kv_workload(num_sessions=2, num_keys=4, ops=12, seed=5),
          seed=5)
    check_kv_histories(cluster.sessions)
    if fault_kinds:
        injected = cluster.simulator.chaos.instruments.snapshot()
        assert injected["chaos.injected[duplicate]"]["value"] == 3
        # An envelope's payload is one tuple of entries — no top-level
        # bytes — so the corrupt rule never finds anything to flip.
        assert "chaos.injected[corrupt]" not in injected
    envelopes = [message for message in spy.sent
                 if message.mtype == MSG_KV_BATCH]
    assert envelopes and len(envelopes) < len(spy.sent)
    assert len(envelopes) == cluster.simulator.metrics.total_messages
    for message in spy.sent:
        assert message.wire_size() == len(encode(
            (message.tag, message.mtype, message.payload))), message
    assert cluster.simulator.metrics.total_bytes == sum(
        message.wire_size() for message in envelopes)


def test_untraced_drive_serializes_no_envelope(monkeypatch):
    """Counting an envelope's bytes must not build them: whatever the
    size walk still hands to ``encode`` (its fallback for values it does
    not walk), it is never a kv envelope, an entry, or a batch of them."""
    encoded = []
    real_encode = serialization.encode

    def counting_encode(value):
        encoded.append(value)
        return real_encode(value)

    monkeypatch.setattr(serialization, "encode", counting_encode)
    cluster = _small_kv_cluster("atomic", seed=7)
    drive(cluster, kv_workload(num_sessions=2, num_keys=4, ops=12, seed=7),
          seed=7)
    assert cluster.simulator.metrics.total_bytes > 0

    def is_kv_content(value):
        if isinstance(value, KvEntry):
            return True
        if isinstance(value, tuple):
            return value[:2] == (KV_TAG, MSG_KV_BATCH) or any(
                is_kv_content(item) for item in value)
        return False

    assert not [value for value in encoded if is_kv_content(value)]


def _count_allocations(monkeypatch, traced):
    """Drive the same small kv run and count what it constructs:
    ``Message``s (envelopes apart), ``KvEntry``s, the entries the
    envelopes carry and the inner deliveries."""
    counts = dict(envelopes=0, messages=0, entries=0, sent=0, delivered=0)
    real_message_init, real_entry_init = Message.__init__, KvEntry.__init__

    def counting_message_init(self, *args, **kwargs):
        real_message_init(self, *args, **kwargs)
        if self.mtype == MSG_KV_BATCH:
            counts["envelopes"] += 1
            counts["sent"] += len(self.payload[0])
        else:
            counts["messages"] += 1

    def counting_entry_init(self, *args, **kwargs):
        counts["entries"] += 1
        real_entry_init(self, *args, **kwargs)

    monkeypatch.setattr(Message, "__init__", counting_message_init)
    monkeypatch.setattr(KvEntry, "__init__", counting_entry_init)
    for cls in (AtomicServer, AtomicClient):
        def counting_receive(process, message, _real=cls.receive):
            counts["delivered"] += 1
            _real(process, message)
        monkeypatch.setattr(cls, "receive", counting_receive)
    cluster = _small_kv_cluster("atomic", seed=7)
    if traced:
        TraceRecorder().attach(cluster.simulator)
    drive(cluster, kv_workload(num_sessions=2, num_keys=4, ops=12, seed=7),
          seed=7)
    monkeypatch.undo()
    assert counts["envelopes"] == cluster.simulator.metrics.total_messages
    return counts


def test_the_mux_allocates_one_entry_per_send_and_one_message_per_delivery(
        monkeypatch):
    """An inner send costs one ``KvEntry`` and no ``Message``; an inner
    delivery one ``Message``.  An attached observer adds nothing: a
    traced drive constructs exactly the ``Message``s an untraced one
    does (hosts report entries, not messages built for observers)."""
    untraced = _count_allocations(monkeypatch, traced=False)
    assert untraced["sent"] > 0 and untraced["delivered"] > 0
    assert untraced["entries"] == untraced["sent"]
    assert untraced["messages"] == untraced["delivered"]
    traced = _count_allocations(monkeypatch, traced=True)
    assert traced == untraced


def _count_reports(monkeypatch, traced):
    """Drive the same small kv run and count the batched observer
    reports the simulator dispatches against the traffic they describe:
    envelopes sent and delivered, flushes that carried inner sends,
    inner sends and deliveries, the entries the reports carry, and each
    ``Process._pump`` entry, by whether the process had a parked
    thread."""
    counts = dict(send_reports=0, deliver_reports=0, reported_sends=0,
                  reported_deliveries=0, envelopes=0, flushes=0,
                  inner_sends=0, envelope_deliveries=0, inner_deliveries=0)
    pumps = []
    real_send = Simulator.report_send_batch
    real_deliver = Simulator.report_deliver_batch
    real_step, real_enqueue = Simulator.step, ShardBus.enqueue
    real_flush, real_pump = _KvMuxProcess.kv_flush, Process._pump

    def report_send_batch(simulator, sender, sends):
        counts["send_reports"] += 1
        counts["reported_sends"] += len(sends)
        real_send(simulator, sender, sends)

    def report_deliver_batch(simulator, sender, recipient, deliveries):
        counts["deliver_reports"] += 1
        counts["reported_deliveries"] += len(deliveries)
        real_deliver(simulator, sender, recipient, deliveries)

    def step(simulator):
        delivered = real_step(simulator)
        counts["envelope_deliveries"] += delivered
        return delivered

    def enqueue(bus, *args, **kwargs):
        counts["inner_sends"] += 1
        real_enqueue(bus, *args, **kwargs)

    def kv_flush(host):
        counts["flushes"] += bool(host._kv_outbound)
        real_flush(host)

    def pump(process, *args):
        pumps.append((process.pid.is_server, bool(process._threads)))
        real_pump(process, *args)

    monkeypatch.setattr(Simulator, "report_send_batch", report_send_batch)
    monkeypatch.setattr(Simulator, "report_deliver_batch",
                        report_deliver_batch)
    monkeypatch.setattr(Simulator, "step", step)
    monkeypatch.setattr(ShardBus, "enqueue", enqueue)
    monkeypatch.setattr(_KvMuxProcess, "kv_flush", kv_flush)
    monkeypatch.setattr(Process, "_pump", pump)
    for cls in (AtomicServer, AtomicClient):
        def counting_receive(process, message, _real=cls.receive):
            counts["inner_deliveries"] += 1
            _real(process, message)
        monkeypatch.setattr(cls, "receive", counting_receive)
    cluster = _small_kv_cluster("atomic", seed=7)
    if traced:
        TraceRecorder().attach(cluster.simulator)
    drive(cluster, kv_workload(num_sessions=2, num_keys=4, ops=12, seed=7),
          seed=7)
    monkeypatch.undo()
    counts["envelopes"] = cluster.simulator.metrics.total_messages
    return counts, pumps


def test_an_unobserved_kv_drive_builds_no_observer_report(monkeypatch):
    """With no observer attached, no batch of inner traffic is
    reported; with a recorder, each flush that carried inner sends is
    reported once, as is each envelope's inner deliveries (every
    envelope of a fault-free run delivers some), and together the
    reports carry every inner send and delivery once.  A process with
    no parked thread never enters ``Process._pump`` (the servers of
    ``atomic`` never park one)."""
    reports = ("send_reports", "deliver_reports", "reported_sends",
               "reported_deliveries")
    untraced, pumps = _count_reports(monkeypatch, traced=False)
    assert untraced["inner_sends"] > untraced["envelopes"] > 0
    assert untraced["inner_deliveries"] > 0
    assert [untraced[name] for name in reports] == [0, 0, 0, 0]
    assert pumps and all(parked for _, parked in pumps)
    assert not any(is_server for is_server, _ in pumps)
    traced, _ = _count_reports(monkeypatch, traced=True)
    assert traced["send_reports"] == traced["flushes"]
    assert traced["deliver_reports"] == traced["envelope_deliveries"]
    assert traced["reported_sends"] == traced["inner_sends"]
    assert traced["reported_deliveries"] == traced["inner_deliveries"]
    # the recorder is measurement-only: the same traffic either way
    assert {name: traced[name] for name in untraced
            if name not in reports} == {
        name: untraced[name] for name in untraced if name not in reports}


def _drive_calls(traced, seed):
    """Python calls (``sys.setprofile`` call and c_call events) one
    small ``mixed_small``-shaped drive makes: n=7, t=2, four shards,
    four sessions, 32 zipf keys, 64-byte values, half writes."""
    cluster = build_kv_cluster(
        KvDirectory(SystemConfig(n=7, t=2), 4), num_sessions=4,
        scheduler=RandomScheduler(seed))
    if traced:
        TraceRecorder().attach(cluster.simulator)
    workload = kv_workload(num_sessions=4, num_keys=32, ops=60,
                           write_ratio=0.5, distribution="zipf",
                           seed=seed, value_size=64)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(count)
    try:
        drive(cluster, workload, seed=seed, invoke_probability=0.25)
    finally:
        sys.setprofile(None)
    return calls


def test_a_traced_kv_drive_costs_at_most_thirty_percent_more_calls():
    """The observer-cost ratchet: recording a kv run's trace costs a
    record per message, not a chain of calls per message.  A traced
    drive makes at most 1.3 times the Python calls of the same drive
    untraced (the traced one runs first, on cold memos)."""
    traced = _drive_calls(traced=True, seed=0)
    untraced = _drive_calls(traced=False, seed=0)
    assert untraced > 0
    assert traced <= 1.3 * untraced, traced / untraced


def test_shard_bus_maps_local_identities_through_one_shared_table():
    directory = KvDirectory(SystemConfig(n=7, t=1), 3)
    cluster = build_kv_cluster(directory, num_sessions=1)
    spec = directory.shard(2)
    bus = ShardBus(cluster.servers[0], spec)
    assert list(bus.server_pids) == [server_id(j) for j in range(1, 8)]
    assert bus.server_pids is bus.server_pids  # no copy per access
    for local in range(1, 8):
        fleet = bus.fleet_pid(server_id(local))
        assert fleet == server_id(spec.placement[local - 1])
        assert bus.fleet_pid(server_id(local)) is fleet  # no allocation
    assert bus.fleet_pid(client_id(3)) == client_id(3)
    with pytest.raises(KeyError):
        bus.fleet_pid(server_id(8))  # not a server of this shard
    # ... and back, by fleet index, to the roster's own objects
    for local_pid in bus.server_pids:
        assert bus.local_pid(bus.fleet_pid(local_pid)) is local_pid
    assert bus.local_pid(client_id(3)) == client_id(3)
    # placement is (3, 4, 5, 6, 7, 1, 2): fleet P1 is the shard's P6
    assert bus.local_pid(server_id(1)) == server_id(6)


def test_an_unbound_party_raises_on_every_simulator_read():
    """The simulator is read as an attribute on the hot path; a party
    that was never added to a simulator still raises the one
    ``SimulationError`` wherever it would reach it."""
    directory = KvDirectory(SystemConfig(n=4, t=1), 2)
    host = KvClientHost(client_id(1), directory)
    bus = ShardBus(host, directory.shard(0))
    session = KvSession(host, directory, 0)
    party = Process(client_id(2))
    calls = [
        lambda: bus.time,
        lambda: bus.record_output(client_id(1), "t", "a", ()),
        lambda: bus.record_input(client_id(1), "t", "a", ()),
        lambda: bus.notify_quorum(client_id(1), "t", "m", 1, (), None),
        lambda: bus.notify_verify_fail(client_id(1), server_id(1), "t", "m"),
        session._now,
        lambda: session._count("hit"),
        lambda: party.output("t", "a"),
        lambda: party.record_input("t", "a"),
    ]
    for call in calls:
        with pytest.raises(SimulationError,
                           match=r"^C\d is not attached to a simulator$"):
            call()


def test_an_entry_costs_53_bytes_beyond_its_content():
    """An entry carries its shard and three stamps, not the 92 bytes of
    two ``PartyId``s: 53 bytes on top of its content at a 3-byte
    ``msg_id`` (it was 145 with the addresses)."""
    entry = KvEntry(shard=3, tag="kv.s3.k001", mtype="w-ts-q",
                    payload=("oid", b"value"), msg_id=70_000, depth=4,
                    cause_id=69_999)
    content = content_wire_size(entry.tag, entry.mtype, entry.payload)
    assert encoded_size(entry) - content == 53
    assert len(encode(entry)) - content == 53


@pytest.mark.parametrize("shard", [0, 3, 127, 128, 40_000])
def test_entry_wire_size_composes_the_encoded_size(shard):
    """``ShardBus.enqueue`` sizes each entry it buffers by arithmetic,
    at every byte-length boundary of the shard and the three stamps."""
    host = build_kv_cluster(KvDirectory(FLEET, 1), num_sessions=1).servers[0]
    bus = ShardBus(host, ShardSpec(shard, (1, 2, 3, 4), FLEET))
    for msg_id, depth, cause_id in [(0, 1, None), (1, 1, 0),
                                    (127, 128, 255), (2 ** 23, 300, None),
                                    (2 ** 40, 2 ** 15, 2 ** 40 - 1)]:
        host.simulator.fresh_msg_id = lambda: msg_id
        bus.inner = SimpleNamespace(activation_depth=depth - 1,
                                    activation_msg_id=cause_id)
        bus.enqueue(server_id(1), server_id(2), "kv.s1.k", "m",
                    (b"x" * 9, 7))
        ((entries, size),) = host._kv_outbound.values()
        host._kv_outbound.clear()
        assert entries == [KvEntry(shard=shard, tag="kv.s1.k", mtype="m",
                                   payload=(b"x" * 9, 7), msg_id=msg_id,
                                   depth=depth, cause_id=cause_id)]
        assert size == len(encode(entries[0]))


#: Fixed entries whose shard ids and stamps sit on byte-length
#: boundaries, ``cause_id`` absent and set, with the SHA-256 of each
#: one's canonical encoding: a field reordered, retyped or renamed, or
#: the class renamed, moves them.
_PINNED_ENTRIES = [
    ((0, 0, 1, None),
     "f19e1a827eaa545d96cf241a392a77a8b2e292bd54d96f5aedea6ef599fa2fca"),
    ((127, 127, 127, 126),
     "48ccf0be3771f903ca5371b8fb807087ef15d9aadd51643fed2d966974c07681"),
    ((128, 128, 128, None),
     "b66888374739c0dcc207581b1066c42bf967ee2c69b1ecad2152fd086070d15c"),
    ((32_767, 2 ** 15 - 1, 2 ** 15, 2 ** 15 - 1),
     "2b28a53541a668fe33c0e07bd864e38405bb2ebaea6da2d037dbfeb1c19b383a"),
    ((32_768, 2 ** 23, 300, 2 ** 23 - 1),
     "999be8fad7d2b270ba46ed2a7604254cc64277380668b09067ff5dcdad7d4808"),
]
#: SHA-256 of the ``kv-batch`` payload ``(entries,)`` carrying all five.
_PINNED_ENVELOPE = (
    "fa49f6d4cd747caafe97d932fb3254436647c335158fbab76bdc21026a3f6121")


def _pinned_entry(shard, msg_id, depth, cause_id):
    return KvEntry(shard=shard, tag=f"kv.s{shard}.k007", mtype="w-echo",
                   payload=(b"\x00\xff" * 3, 7, None, True, ("oid", -1)),
                   msg_id=msg_id, depth=depth, cause_id=cause_id)


def test_kv_wire_format_is_pinned():
    entries = tuple(_pinned_entry(*fields) for fields, _ in _PINNED_ENTRIES)
    assert [hashlib.sha256(encode(entry)).hexdigest()
            for entry in entries] == [digest for _, digest in _PINNED_ENTRIES]
    assert hashlib.sha256(encode((entries,))).hexdigest() == _PINNED_ENVELOPE
    assert decode(encode((entries,))) == (entries,)


@pytest.mark.parametrize("field", ["shard", "msg_id", "depth", "cause_id"])
def test_well_formed_rejects_bools_posing_as_ints(field):
    """``True == 1``, but it encodes as ``T``: an entry with
    ``shard=True`` must not be routed to shard 1."""
    fields = dict(shard=1, tag="kv.s1.k", mtype="m", payload=(), msg_id=5,
                  depth=1, cause_id=4)
    assert KvEntry(**fields).well_formed()
    fields[field] = True
    entry = KvEntry(**fields)
    assert not entry.well_formed()
    assert getattr(decode(encode(entry)), field) is True


# -- unwrap: derived addresses, and every rejection -----------------------------

# Seven servers, three shards over the whole fleet: placements
# (1, ..., 7), (2, ..., 7, 1) and (3, ..., 7, 1, 2), so fleet P3 is
# shard 0's P3, shard 1's P2 and shard 2's P1.
_FLEET7 = dict(fleet_config=SystemConfig(n=7, t=1), num_shards=3)


@pytest.fixture
def inner_deliveries(monkeypatch):
    """Every message an inner register process receives, as
    ``(process pid, message)``; the inner processes do nothing else."""
    delivered = []

    def record(process, message):
        delivered.append((process.pid, message))

    for cls in (AtomicServer, AtomicClient):
        monkeypatch.setattr(cls, "receive", record)
    return delivered


def _probe(shard, msg_id, depth=1):
    return KvEntry(shard=shard, tag=f"kv.s{shard}.probe", mtype="probe",
                   payload=("oid",), msg_id=msg_id, depth=depth)


def _deliver(host, sender, payload):
    simulator = host.simulator
    host.receive(Message(tag=KV_TAG, mtype=MSG_KV_BATCH, sender=sender,
                         recipient=host.pid, payload=payload,
                         msg_id=simulator.fresh_msg_id(), depth=1))


def _deliver_batch(host, sender, entries):
    _deliver(host, sender, (entries,))


def test_unwrap_derives_sender_and_recipient_from_channel_and_placement(
        inner_deliveries):
    cluster = build_kv_cluster(KvDirectory(**_FLEET7), num_sessions=1)
    server = cluster.servers[2]  # P3
    _deliver_batch(server, server_id(5), (_probe(1, 901), _probe(2, 902)))
    _deliver_batch(server, client_id(1), (_probe(0, 903),))
    assert [(pid, message.msg_id, message.sender, message.recipient)
            for pid, message in inner_deliveries] == [
        # shard 1 sits on (2, 3, ...): P5 is its P4, P3 its P2
        (server_id(2), 901, server_id(4), server_id(2)),
        # shard 2 sits on (3, 4, ...): P5 is its P3, P3 its P1
        (server_id(1), 902, server_id(3), server_id(1)),
        # a client keeps its identity in every shard
        (server_id(3), 903, client_id(1), server_id(3)),
    ]
    entry = _probe(1, 901)
    message = inner_deliveries[0][1]
    assert (message.tag, message.mtype, message.payload, message.depth,
            message.cause_id) == (entry.tag, entry.mtype, entry.payload,
                                  entry.depth, entry.cause_id)


def test_unwrap_drops_every_entry_it_cannot_route_and_keeps_the_rest(
        inner_deliveries):
    """Each rejection the unwrap makes, inside a batch whose valid
    entries are still delivered: nothing raises, no rejected entry
    reaches an inner process, and no rejected entry materialises shard
    state."""
    cluster = build_kv_cluster(KvDirectory(**_FLEET7), num_sessions=1)
    p1, p3 = cluster.servers[0], cluster.servers[2]
    p6 = server_id(6)
    _deliver_batch(p3, p6, (
        _probe(2, 2),                    # valid
        _probe(3, 3), _probe(-1, 4),     # out of range
        _probe(True, 5),                 # a bool is not shard 1
        _probe(2, 6, depth=True),        # nor a stamp
        42, ("kv.s2.probe", "probe"),    # not entries
        _probe(2, 7),                    # valid
    ))
    assert list(p3._inner_servers) == [2]  # only the valid shard was built
    _deliver_batch(p1, client_id(1), (
        _probe(5, 8),                    # out of range
        _probe(0, 9),                    # valid
    ))
    assert list(p1._inner_servers) == [0]
    # The client host invoked on shard 0 only.
    host = cluster.sessions[0].host
    host.inner_client(0)
    _deliver_batch(host, server_id(2), (
        _probe(1, 10),                   # never invoked
        _probe(0, 11),                   # valid: P2 is shard 0's P2
    ))
    assert [(pid, message.msg_id) for pid, message in inner_deliveries] == [
        (server_id(1), 2), (server_id(1), 7), (server_id(1), 9),
        (client_id(1), 11)]
    # Malformed batches are dropped whole.
    for payload in ((), ((_probe(2, 13),), ()), ([_probe(2, 14)],),
                    (_probe(2, 15),), ("entries",)):
        _deliver(p3, p6, payload)
    assert len(inner_deliveries) == 4
    assert list(p3._inner_servers) == [2] and list(p1._inner_servers) == [0]
    # Interleaved shards: the unwrap resolves once per run of one shard,
    # and no resolution may outlive its run — across a shard change or a
    # dropped entry, even one of the same shard.
    directory = KvDirectory(**_FLEET7)
    host.inner_client(2)
    for recipient, sender, entries, delivered in (
            (p3, server_id(5), (
                _probe(1, 20), _probe(2, 21), _probe(1, 22),
                _probe(1, 23, depth=True),  # malformed, in shard 1's run
                _probe(1, 24),
                _probe(0, 25), _probe(3, 26),  # shard 3 is out of range
                _probe(1, 27), _probe(True, 28), _probe(2, 29)),
             [20, 21, 22, 24, 25, 27, 29]),
            # the client host invoked on shards 0 and 2, not 1
            (host, server_id(3), (
                _probe(0, 30), _probe(2, 31), _probe(0, 32), 42,
                _probe(1, 33), _probe(1, 34),  # never invoked
                _probe(0, 35), _probe(True, 36), _probe(2, 37)),
             [30, 31, 32, 35, 37])):
        del inner_deliveries[:]
        _deliver_batch(recipient, sender, entries)
        assert [(pid, message.msg_id, message.sender, message.recipient)
                for pid, message in inner_deliveries] == list(
            _per_entry_rule(directory, recipient, sender, entries, (0, 2)))
        assert [message.msg_id for _, message in inner_deliveries] \
            == delivered
    assert list(p3._inner_servers) == [2, 1, 0]


def _per_entry_rule(directory, host, fleet_sender, entries, invoked):
    """``(inner pid, msg_id, local sender, recipient)`` of each entry of
    a batch that ``host`` delivers, resolved entry by entry from the
    directory and, for a client host, the shards it ``invoked`` on."""
    for entry in entries:
        if not (isinstance(entry, KvEntry) and entry.well_formed()
                and 0 <= entry.shard < directory.num_shards):
            continue
        spec = directory.shard(entry.shard)
        if host.pid.is_server:
            recipient = server_id(spec.local_server_index(host.pid.index))
        elif entry.shard in invoked:
            recipient = host.pid
        else:
            continue
        sender = fleet_sender
        if sender.is_server:
            sender = server_id(spec.local_server_index(sender.index))
        yield recipient, entry.msg_id, sender, recipient


def test_unwrapping_a_batch_compares_no_party_identities(
        monkeypatch, inner_deliveries):
    """The per-entry path maps the channel sender by fleet index: no
    ``PartyId.__eq__`` call however many entries a batch carries."""
    cluster = build_kv_cluster(KvDirectory(**_FLEET7), num_sessions=1)
    server = cluster.servers[2]
    entries = tuple(_probe(shard, 100 + shard) for shard in range(3))
    _deliver_batch(server, server_id(4), entries)  # materialise all three
    compared = []
    real_eq = PartyId.__eq__

    def counting_eq(self, other):
        compared.append((self, other))
        return real_eq(self, other)

    monkeypatch.setattr(PartyId, "__eq__", counting_eq)
    batch = tuple(_probe(shard, 200 + index)
                  for index, shard in enumerate((0, 1, 2) * 4))
    _deliver_batch(server, server_id(4), batch)
    _deliver_batch(server, client_id(1), batch)
    assert len(inner_deliveries) == 3 + 2 * len(batch)
    assert compared == []


# -- sessions -----------------------------------------------------------------

def test_queued_writes_to_one_key_coalesce_last_value_wins():
    directory = KvDirectory(FLEET, 2)
    cluster = build_kv_cluster(directory, num_sessions=1)
    session = cluster.session(1)
    first = session.put("k001", b"stale-1")
    second = session.put("k001", b"stale-2")
    last = session.put("k001", b"final")
    assert len(session._queue) == 1  # three submissions, one queue slot
    settle(cluster)
    assert first.done and second.done and last.done
    assert first.coalesced and second.coalesced and not last.coalesced
    read = session.get("k001")
    settle(cluster)
    assert read.result == b"final"
    check_kv_histories([session])


def test_read_ends_the_coalescing_window():
    directory = KvDirectory(FLEET, 2)
    cluster = build_kv_cluster(directory, num_sessions=1)
    session = cluster.session(1)
    session.put("k001", b"one")
    session.get("k001")
    follow = session.put("k001", b"two")
    assert len(session._queue) == 3  # the second write may not fold backwards
    assert not follow.coalesced
    settle(cluster)
    check_kv_histories([session])


def test_full_queue_raises_backpressure():
    directory = KvDirectory(FLEET, 2)
    cluster = build_kv_cluster(directory, num_sessions=1)
    session = cluster.session(1)
    keys = key_names(MAX_QUEUE + 1)
    for key in keys[:MAX_QUEUE]:
        session.put(key, b"a")
    with pytest.raises(BackpressureError):
        session.get(keys[MAX_QUEUE])
    # Coalescing never consumes a slot, so it bypasses backpressure.
    session.put(keys[0], b"c")
    settle(cluster)
    assert all(handle.done for handle in session.handles)


def test_retry_reinvokes_stalled_operations_and_still_linearizes():
    directory = KvDirectory(FLEET, 2)
    cluster = build_kv_cluster(directory, num_sessions=1)
    session = cluster.session(1)
    handle = session.put("k001", b"v1")
    session.pump()  # admit + flush: one attempt in flight
    assert session.inflight == 1
    retried = session.retry_pending()  # as after a quiesced stall
    assert retried == 1
    settle(cluster)
    assert handle.done and handle.attempts == 2
    read = session.get("k001")
    settle(cluster)
    assert read.result == b"v1"
    check_kv_histories([session])


def test_retry_budget_is_bounded():
    directory = KvDirectory(FLEET, 2)
    cluster = build_kv_cluster(directory, num_sessions=1, max_attempts=2)
    session = cluster.session(1)
    session.put("k001", b"v1")
    session.pump()
    assert session.retry_pending() == 1  # attempt 2 of 2
    assert session.retry_pending() == 0  # budget spent
    settle(cluster)


def test_pump_works_only_when_its_outcome_could_have_changed(monkeypatch):
    """``drive`` polls every session on every step; a poll does work
    only after a submission, a reconfiguration announcement, a retry
    round or an activation of the session's host.  Counted, not timed."""
    cluster = build_kv_cluster(KvDirectory(FLEET, 2), num_sessions=2)
    session = cluster.session(1)
    worked = []
    reap = KvSession._reap
    monkeypatch.setattr(
        KvSession, "_reap",
        lambda self: worked.append(self.index) or reap(self))

    def polls_that_worked():
        before = len(worked)
        session.pump()
        session.pump()  # the second finds nothing left, whatever came
        return len(worked) - before

    assert polls_that_worked() == 0  # nothing has happened yet
    handle = session.put("k001", b"v1")
    assert session.pump() == 1 and session.pump() == 0
    assert worked == [1]
    # deliveries to servers (and to the other session's host) are not
    # this session's business
    while session.host.activations == 0:
        assert polls_that_worked() == 0
        cluster.simulator.step()
    assert polls_that_worked() == 1  # its host was activated
    assert session.retry_pending() == 1
    assert polls_that_worked() == 1
    session.begin_reconfiguration(next_generation(cluster.directory))
    assert polls_that_worked() == 1
    session.get("k001")
    assert polls_that_worked() == 1
    settle(cluster)
    assert handle.done and session.epoch == 1

    worked.clear()
    polls = []
    pump = KvSession.pump
    monkeypatch.setattr(KvSession, "pump",
                        lambda self: polls.append(self.index) or pump(self))
    drive(cluster, kv_workload(num_sessions=2, num_keys=4, ops=40, seed=2),
          seed=2)
    check_kv_histories(cluster.sessions)
    assert len(polls) > 4 * len(worked) > 0


# -- session accounting -------------------------------------------------------

def test_kv_latency_pins_to_the_winning_attempt_not_the_reap_tick():
    """Regression: handles must report the *winning inner attempt's*
    completion tick, not the tick of the pump that happened to reap it
    (which inflated every kv latency by the reap delay)."""
    directory = KvDirectory(FLEET, 2)
    cluster = build_kv_cluster(directory, num_sessions=1)
    session = cluster.session(1)
    handle = session.put("k001", b"v1")
    session.pump()
    inner = session._inflight[handle.shard].attempts[0]
    # Quiesce the network fully before reaping so the reap tick is
    # strictly later than the inner completion (the quorum fills before
    # the last delivery) — a pump-tick stamp would be visibly wrong.
    cluster.simulator.run()
    assert inner.done and not handle.done
    assert inner.complete_time < cluster.simulator.time
    session.pump()
    assert handle.done
    assert handle.complete_time == inner.complete_time
    check_kv_histories([session])


def test_pending_handles_report_live_attempt_counts():
    """Regression: ``attempts`` was only stamped at completion, so a
    stalled operation reported ``attempts == 0`` — exactly when the
    count matters for debugging.  It must track invocations live."""
    directory = KvDirectory(FLEET, 2)
    cluster = build_kv_cluster(directory, num_sessions=1)
    session = cluster.session(1)
    handle = session.put("k001", b"v1")
    assert handle.attempts == 0  # queued, nothing invoked yet
    session.pump()
    assert not handle.done and handle.attempts == 1
    session.retry_pending()
    assert not handle.done and handle.attempts == 2
    settle(cluster)
    assert handle.done and handle.attempts == 2


def test_stalled_operations_report_live_attempts_under_chaos_drops():
    directory = KvDirectory(FLEET, 2)
    cluster = build_kv_cluster(directory, num_sessions=1)
    cluster.simulator.attach_injector(
        FaultInjector(builtin_plan("drops", 4, 1, seed=2)))
    session = cluster.session(1)
    handle = session.put("k001", b"v1")
    session.pump()
    cluster.simulator.run()  # quiesce: drops may strand the round
    assert handle.attempts == 1  # live even while stranded
    settle(cluster)
    assert handle.done and handle.attempts >= 1
    check_kv_histories([session])


def test_read_winner_prefers_highest_timestamp_attempt():
    """Regression: ``_reap`` settled on the *first* completed attempt,
    so a stale retry racing a fresh one could seed the session cache
    with a superseded pair.  Reads must take the freshest TIMESTAMP."""
    from repro.core.register import OperationHandle
    from repro.core.timestamps import Timestamp

    def attempt(oid, time, value, timestamp):
        handle = OperationHandle(kind="read", tag="kv.s0.k001", oid=oid,
                                 client=client_id(1))
        handle._complete(time, result=value, timestamp=timestamp)
        return handle

    stale = attempt("c1.o1", 5, b"old", Timestamp(1, "w1"))
    fresh = attempt("c1.o1.a1", 9, b"new", Timestamp(2, "w2"))
    assert KvSession._pick_winner("read", [stale, fresh]) is fresh
    assert KvSession._pick_winner("read", [fresh, stale]) is fresh
    # Ties keep the earliest completion; a TIMESTAMP-less attempt never
    # displaces one that carries a TIMESTAMP.
    twin = attempt("c1.o1.a2", 11, b"new", Timestamp(2, "w2"))
    assert KvSession._pick_winner("read", [fresh, twin]) is fresh
    bare = attempt("c1.o1.a3", 3, b"???", None)
    assert KvSession._pick_winner("read", [stale, bare]) is stale
    assert KvSession._pick_winner("read", [bare, stale]) is stale
    # Writes take the first completion — every ack wrote the same value.
    assert KvSession._pick_winner("write", [stale, fresh]) is stale


# -- end-to-end safety --------------------------------------------------------

def test_concurrent_cross_shard_sessions_linearize_per_key():
    directory = KvDirectory(FLEET, 4)
    cluster = build_kv_cluster(directory, num_sessions=3)
    workload = kv_workload(num_sessions=3, num_keys=12, ops=36,
                           write_ratio=0.5, seed=5)
    stats = drive(cluster, workload, seed=5)
    assert stats["completed"] == 36
    keys = check_kv_histories(cluster.sessions)
    assert keys >= 8  # several keys actually saw traffic
    shards_hit = {handle.shard for session in cluster.sessions
                  for handle in session.handles}
    assert len(shards_hit) >= 3  # genuinely cross-shard


def test_sessions_are_isolated_but_share_the_store():
    directory = KvDirectory(FLEET, 2)
    cluster = build_kv_cluster(directory, num_sessions=2)
    writer, reader = cluster.sessions
    writer.put("k001", b"shared")
    settle(cluster)
    handle = reader.get("k001")
    settle(cluster)
    assert handle.result == b"shared"
    check_kv_histories(cluster.sessions)


def test_kv_run_under_builtin_chaos_plan_stays_linearizable():
    row, cluster = run_kv_case(4, sessions=2, keys=8, ops=24,
                               plan="drops", seed=2)
    assert row.linearizable
    assert row.completed == 24
    assert row.keys_checked >= 4
    counters = cluster.simulator.chaos.instruments.snapshot()
    assert counters["chaos.injected[drop]"]["value"] > 0  # faults fired


def test_kv_crash_recover_plan_downs_a_whole_host():
    row, cluster = run_kv_case(4, sessions=2, keys=8, ops=24,
                               plan="crash-recover", seed=1)
    assert row.linearizable
    assert row.completed == 24


# -- scaling ------------------------------------------------------------------

def test_more_shards_strictly_raise_aggregate_ops_per_tick():
    """The acceptance property: shard count converts into batch density
    which converts into throughput, measured end to end."""
    throughput = {}
    for shards in (1, 4, 16):
        row, _ = run_kv_case(shards)
        assert row.linearizable
        assert row.completed == row.ops
        throughput[shards] = row.ops_per_tick
    assert throughput[1] < throughput[4] < throughput[16]


def test_batching_reduces_envelope_count_not_inner_traffic():
    one, _ = run_kv_case(1, sessions=2, keys=8, ops=24)
    many, _ = run_kv_case(8, sessions=2, keys=8, ops=24)
    assert many.envelopes < one.envelopes
    assert many.batch_factor > one.batch_factor
    # Inner protocol work is conserved — batching packs it, never
    # skips it (a few messages shift with scheduling, nothing more).
    assert abs(many.inner_messages - one.inner_messages) \
        <= 0.15 * one.inner_messages


def test_bench_rows_carry_phase_attribution():
    row, _ = run_kv_case(2, sessions=2, keys=8, ops=24)
    assert row.phase_ticks, "kv spans produced no phase attribution"
    assert sum(row.phase_ticks.values()) > 0


# -- golden-schedule regression ----------------------------------------------

def test_single_register_path_is_byte_identical_with_kv_loaded():
    """Importing and exercising the kv plane must not perturb the
    single-register schedules pinned by the golden fixtures."""
    import gen_golden_schedules
    fixture = json.loads(
        (REPO_ROOT / "tests" / "fixtures" /
         "golden_schedules.json").read_text(encoding="utf-8"))
    # Exercise the kv plane first so any cross-contamination (shared
    # caches, wire registry, scheduler state) would be visible below.
    directory = KvDirectory(FLEET, 2)
    cluster = build_kv_cluster(directory, num_sessions=1)
    drive(cluster, [KvOp(1, "write", "k001", b"x"),
                    KvOp(1, "read", "k001")])
    case = fixture["cases"][0]
    fresh = gen_golden_schedules.run_case(dict(case["spec"]))
    assert fresh["sha256"] == case["sha256"]
