"""Robustness: servers and clients fed malformed or malicious messages
directly must neither crash nor corrupt state (Byzantine senders can
send anything well-typed enough to serialize)."""

import pytest

from repro.cluster import build_cluster, default_k
from repro.common.ids import client_id, server_id
from repro.config import SystemConfig
from repro.core.atomic import disp_tag, rbc_tag, _parse_subtag
from repro.core.timestamps import INITIAL_TIMESTAMP, Timestamp
from repro.net.process import Process
from repro.net.schedulers import FifoScheduler, RandomScheduler
from repro.obs import TraceRecorder

TAG = "reg"


class RawSender(Process):
    """A corrupted client with raw channel access."""


def _cluster(protocol="atomic_ns", n=4, t=1, seed=0):
    config = SystemConfig(n=n, t=t, seed=seed)
    cluster = build_cluster(
        config, protocol=protocol, num_clients=2,
        scheduler=RandomScheduler(seed),
        client_overrides={2: lambda pid, cfg: RawSender(pid)})
    return cluster, cluster.client(2)


# -- tag helpers ----------------------------------------------------------------

def test_tag_helpers():
    assert disp_tag("reg", "w1") == "reg|disp.w1"
    assert rbc_tag("reg", "w1") == "reg|rbc.w1"
    assert _parse_subtag("reg|disp.w1") == ("reg", "disp", "w1")
    assert _parse_subtag("reg|rbc.w.dotted") == ("reg", "rbc", "w.dotted")
    assert _parse_subtag("reg") is None
    assert _parse_subtag("reg|other.w1") is None


# -- malformed payloads against every server handler -----------------------------

MALFORMED = [
    (),                     # empty
    (None,),                # wrong types
    (1, 2, 3, 4, 5, 6, 7),  # wrong arity
    ("oid", "not-a-timestamp", b"v"),
]


@pytest.mark.parametrize("mtype", [
    "get-ts", "read", "read-complete", "share",
    "avid-send", "avid-echo", "avid-ready",
    "rbc-send", "rbc-echo", "rbc-ready",
])
def test_atomic_ns_server_survives_garbage(mtype):
    cluster, attacker = _cluster()
    for payload in MALFORMED:
        tag = TAG if not mtype.startswith(("avid", "rbc")) \
            else disp_tag(TAG, "x")
        attacker.send(server_id(1), tag, mtype, *payload)
    cluster.run()
    # The register is pristine and still fully functional.
    state = cluster.server(1).register_state(TAG)
    assert state.timestamp == INITIAL_TIMESTAMP
    cluster.write(1, TAG, "w1", b"still works")
    assert cluster.read(1, TAG, "r1").result == b"still works"


@pytest.mark.parametrize("protocol,mtypes", [
    ("martin", ["get-ts", "store", "read", "read-complete"]),
    ("goodson", ["get-ts", "store", "read-latest", "read-prev"]),
])
def test_baseline_servers_survive_garbage(protocol, mtypes):
    n = 4 if protocol == "martin" else 5
    cluster, attacker = _cluster(protocol=protocol, n=n)
    for mtype in mtypes:
        for payload in MALFORMED:
            attacker.send(server_id(1), TAG, mtype, *payload)
    cluster.run()
    cluster.write(1, TAG, "w1", b"still works")
    assert cluster.read(1, TAG, "r1").result == b"still works"


def test_forged_value_messages_ignored_by_reader():
    """A Byzantine server bombarding a reader with fabricated value
    messages (wrong blocks, wrong types, huge timestamps) cannot corrupt
    or block the read."""
    cluster, attacker = _cluster(protocol="atomic")
    cluster.write(1, TAG, "w1", b"the truth")
    read_handle = cluster.client(1).invoke_read(TAG, "r1")
    for payload in [
        ("r1", "bad-commitment", b"junk", None, Timestamp(99, "zz")),
        ("r1", None, None, None, None),
        ("r1",),
    ]:
        attacker.send(client_id(1), TAG, "value", *payload)
    cluster.run()
    assert read_handle.done and read_handle.result == b"the truth"


@pytest.mark.parametrize("protocol", [
    "atomic", "atomic_ns", "atomic_md", "martin", "goodson", "phalanx",
    "bazzi_ding"])
def test_forged_ts_replies_ignored_by_writer(protocol, log_deliveries):
    """Forged timestamp replies never reach the writer's ``n - t``
    quorum.  Sent by a client they fail the server test; sent by a
    server (a raw sender in server ``n``'s place) they fail the reply
    filter: wrong arity, a non-int, a negative int and, on
    ``atomic_ns``, a missing or bad signature.  FIFO delivery brings
    every forged reply to the writer before any honest one, so a reply
    the filter let through would be in the quorum."""
    n = 5 if protocol in ("goodson", "phalanx", "bazzi_ding") else 4
    config = SystemConfig(n=n, t=1, k=default_k(protocol, 1))
    cluster = build_cluster(
        config, protocol=protocol, num_clients=2, scheduler=FifoScheduler(),
        server_overrides={n: lambda pid, cfg: RawSender(pid)},
        client_overrides={2: lambda pid, cfg: RawSender(pid)})
    recorder = TraceRecorder().attach(cluster.simulator)
    delivered = log_deliveries(cluster.simulator)
    ts_type = "md-ts" if protocol == "atomic_md" else "ts"
    signature = (None,) if protocol == "atomic_ns" else ()
    forged = [("w1", 10 ** 15, None, None), ("w1", "NaN", *signature),
              ("w1", -5, *signature)]
    if protocol == "atomic_ns":
        forged += [("w1", 10 ** 15, None),        # unsigned inflation
                   ("w1", 3, b"not-a-signature")]
    write_handle = cluster.client(1).invoke_write(TAG, "w1", b"v")
    attackers = (cluster.client(2), cluster.server(n))
    for attacker in attackers:
        for payload in forged:
            attacker.send(client_id(1), TAG, ts_type, *payload)
    cluster.run()
    assert write_handle.done
    assert cluster.server(1).register_state(TAG).timestamp.ts == 1
    forged_ids = {message.msg_id for message in delivered
                  if message.mtype == ts_type and message.sender in
                  {attacker.pid for attacker in attackers}}
    assert len(forged_ids) == len(attackers) * len(forged)
    [release] = [release for release in recorder.quorum_releases
                 if release.mtype == ts_type]
    assert not forged_ids & set(release.quorum_msg_ids)


def test_forged_acks_do_not_complete_writes(log_deliveries):
    """Acks from a single Byzantine client/party cannot satisfy the
    n - t server quorum."""
    cluster, attacker = _cluster(protocol="atomic")
    delivered = log_deliveries(cluster.simulator)
    # Stall everything real: send only forged acks for a write that was
    # never dispersed.
    handle = cluster.client(1).invoke_write(TAG, "w1", b"v")
    for _ in range(10):
        attacker.send(client_id(1), TAG, "ack", "w1")
    # Forged acks are from a client, so the is_server filter drops them;
    # the genuine protocol proceeds and completes normally.
    cluster.run()
    assert handle.done  # completed via the real servers
    servers_only = [m for m in delivered
                    if (m.tag, m.mtype) == (TAG, "ack")
                    and m.recipient == client_id(1) and m.sender.is_server]
    assert len(servers_only) >= 3


def test_duplicate_share_flood_counted_once():
    cluster, attacker = _cluster(protocol="atomic_ns")
    scheme = cluster.config.threshold_scheme
    # Attacker is a client, not a shareholder: its 'shares' are garbage.
    for _ in range(20):
        attacker.send(server_id(1), TAG, "share", "w1", b"junk")
    cluster.write(1, TAG, "w1", b"clean")
    cluster.run()
    assert cluster.server(1).register_state(TAG).timestamp.ts == 1


def test_read_complete_for_unknown_oid_harmless():
    cluster, attacker = _cluster(protocol="atomic")
    attacker.send(server_id(1), TAG, "read-complete", "ghost-read")
    cluster.run()
    cluster.write(1, TAG, "w1", b"x")
    assert cluster.read(1, TAG, "r1").result == b"x"


def test_retired_read_oid_cannot_be_resurrected():
    """After read-complete, servers never reply to that oid again —
    an attacker replaying the read message gets silence."""
    cluster, attacker = _cluster(protocol="atomic")
    cluster.write(1, TAG, "w1", b"x")
    cluster.read(1, TAG, "r1")
    cluster.run()
    metrics = cluster.simulator.metrics
    before = metrics.messages_by_mtype(TAG)["value"]
    attacker.send(server_id(1), TAG, "read", "r1")
    cluster.run()
    assert metrics.messages_by_mtype(TAG)["value"] == before


@pytest.mark.parametrize("protocol,read_type,reply_type", [
    ("atomic", "read", "value"),
    ("atomic_ns", "read", "value"),
    ("atomic_md", "md-read", "md-meta"),
    ("martin", "read", "value"),
])
def test_a_read_oid_is_answered_once_and_never_after_completion(
        protocol, read_type, reply_type):
    """The listener refusal every listener protocol keeps: a duplicate
    read before ``read-complete`` draws one reply per server, and the
    same read replayed after it draws none."""
    config = SystemConfig(n=4, t=1, k=default_k(protocol, 1))
    cluster = build_cluster(
        config, protocol=protocol, num_clients=1,
        scheduler=RandomScheduler(0),
        client_overrides={1: lambda pid, cfg: RawSender(pid)})
    attacker = cluster.client(1)
    metrics = cluster.simulator.metrics
    attacker.send_to_servers(TAG, read_type, "r1")
    attacker.send_to_servers(TAG, read_type, "r1")
    cluster.run()
    assert metrics.messages_by_mtype(TAG)[reply_type] == 4
    complete_type = read_type + "-complete"
    attacker.send_to_servers(TAG, complete_type, "r1")
    attacker.send_to_servers(TAG, read_type, "r1")
    cluster.run()
    assert metrics.messages_by_mtype(TAG)[reply_type] == 4
