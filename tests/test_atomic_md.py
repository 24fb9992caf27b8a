"""Protocol AtomicMd: metadata/data separation with one-round-trip reads.

The load-bearing guarantees tested here:

* **Register semantics** — write/read round-trips, initial values,
  timestamp monotonicity, and linearizability of concurrent seeded
  workloads at both canonical deployments (n=4/t=1 and n=7/t=2).
* **Resilience shape** — ``k <= n - 2t`` is enforced at construction
  (the default ``k = n - t`` is rejected), and the chaos campaign
  resolves ``k = t + 1`` automatically for ``atomic_md`` specs.
* **Data-plane shape** — a write pushes exactly ``n`` point-to-point
  blocks (no AVID echo storm); a fault-free read is one round trip
  whose ``n`` replies carry ``n`` blocks, of which it verifies and
  decodes exactly ``k``; a seeded 4 KiB workload moves at most half
  the wire bytes ``atomic`` moves.
* **The two-phase write** — ``6n`` messages, no broadcast: servers
  pair an ``md-commit (ts, H(D), N)`` with the acked ``md-store`` whose
  verified ``D`` hashes to it and whose lock ``H(ts, N)`` it opens; a
  writer whose halves disagree never takes effect, malformed commits
  are ignored before any state is written, and the commit's wire size
  does not depend on ``n``.
* **Crash-only writers** — a writer that crashes after its stores and
  ``j < n - t`` commits leaves readers wait-free (reader write-back)
  and the run linearizable under every builtin chaos plan and every
  Byzantine md server; commits invented or replayed by a server change
  nothing; no honest server adopts a version no writer committed.
* **One version per register at rest** — ``D``, TIMESTAMP, proof,
  block and witness of the adopted version, nothing older; a read of a
  version no server holds any more still decodes, from the blocks its
  replies carried.
* **Wait-free by construction** — a server that crashes right after
  its reply, or ``t`` of them, stalls no read and needs no retry.
* **Escalation** — a Byzantine data plane (corrupted blocks, missing
  blocks) makes reads take further agreeing servers' blocks; reads
  still return the correct value, and each corrupt block a read
  evaluates is one verification failure.
* **Chaos battery** — every builtin fault plan yields the model's
  expected outcome, including the beyond-the-bound ``boundary`` plan.
* **Schedule preservation** — loading and exercising ``atomic_md``
  leaves the golden schedules of the existing protocols byte-identical.
* **Plane attribution** — ``repro.obs.planes`` classifies AtomicMd
  traffic correctly and stays in sync with the kv transport envelope.
"""

import json
import sys
from pathlib import Path

import pytest

from functools import partial

from repro.analysis.history import HistoryRecorder
from repro.analysis.invariants import install_commit_invariant
from repro.chaos.campaign import RunSpec, execute_run
from repro.chaos.injector import FaultInjector
from repro.chaos.library import BUILTIN_PLANS, builtin_plan
from repro.chaos.plan import ByzantineSpec, CrashSpec, FaultPlan, FaultRule
from repro.cluster import PROTOCOLS, build_cluster, run_register_case
from repro.common.errors import ConfigurationError, ProtocolError
from repro.common.serialization import encoded_size
from repro.config import SystemConfig
from repro.core.atomic_md import (
    DATA_PLANE_TYPES,
    MESSAGE_TYPES,
    MSG_ACK,
    MSG_COMMIT,
    MSG_META,
    MSG_READ,
    MSG_READ_COMPLETE,
    MSG_STORE,
    MSG_STORED,
    MSG_VALID,
    MSG_VALIDATE,
    AtomicMdClient,
    AtomicMdServer,
    validate_md_config,
)
from repro.core.timestamps import INITIAL_TIMESTAMP, Timestamp
from repro.crypto.hashing import DIGEST_SIZE, hash_bytes
from repro.faults.byzantine_servers import (
    BYZANTINE_BEHAVIOURS,
    CorruptBlockMdServer,
    MissingBlockMdServer,
)
from repro.faults.failstop import FailStopMdServer, fail_stop, fault_overrides
from repro.kv import KvDirectory, run_kv_case
from repro.kv.envelope import MSG_KV_BATCH
from repro.lint.config import in_scope
from repro.net.schedulers import RandomScheduler, Scheduler
from repro.obs.planes import (
    DATA_PLANE_MTYPES,
    TRANSPORT_MTYPES,
    PlaneTraffic,
    operation_plane_traffic,
    plane_of_mtype,
    plane_traffic,
)
from repro.obs.recorder import TraceRecorder
from repro.obs.spans import PHASE_BLOCK_PUSH, PHASE_COMMIT, classify_phase
from repro.workloads.generator import random_workload, run_workload
from repro.workloads.kv import kv_workload

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))


def _cluster(n=4, t=1, seed=0, clients=2, **overrides):
    config = SystemConfig(n=n, t=t, k=t + 1, seed=seed)
    return build_cluster(config, protocol="atomic_md", num_clients=clients,
                         scheduler=RandomScheduler(seed), **overrides)


# -- register semantics -------------------------------------------------------

def test_write_then_read():
    cluster = _cluster()
    cluster.write(1, "reg", "w1", b"separated value")
    assert cluster.read(2, "reg", "r1").result == b"separated value"


def test_larger_deployment():
    cluster = _cluster(n=7, t=2, seed=3)
    cluster.write(1, "reg", "w1", b"seven servers, three blocks")
    assert cluster.read(2, "reg", "r1").result \
        == b"seven servers, three blocks"


def test_initial_value_propagates():
    config = SystemConfig(n=4, t=1, k=2)
    cluster = build_cluster(config, protocol="atomic_md",
                            initial_value=b"boot")
    assert cluster.read(1, "reg", "r1").result == b"boot"


def test_registered_in_protocol_table():
    assert "atomic_md" in PROTOCOLS
    assert fail_stop(PROTOCOLS["atomic_md"][0]) is FailStopMdServer


def test_sequential_writes_increment_by_one():
    cluster = _cluster()
    for index in range(1, 5):
        cluster.write(1, "reg", f"w{index}", b"v%d" % index)
        state = cluster.server(1).register_state("reg")
        assert state.timestamp.ts == index


def test_concurrent_workload_atomic():
    for seed in range(5):
        _, cluster = run_register_case("atomic_md", 4, 1, clients=3,
                                       writes=4, reads=5, seed=seed)
        HistoryRecorder(cluster, "reg").check()


def test_accepted_history_is_bounded():
    """The history at rest is one version, however many writes: the
    adopted ``D``, TIMESTAMP and proof with this server's own block of
    it, which verifies and decodes to the last value written."""
    cluster = _cluster(clients=1)
    sizes = set()
    for index in range(20):
        cluster.write(1, "reg", f"w{index:02d}", b"v%02d" % index)
        cluster.run()
        sizes.add(cluster.server(1).register_storage_bytes("reg"))
    assert len(sizes) == 1
    scheme = cluster.config.commitment_scheme
    pairs = []
    for server in cluster.servers:
        state = server.register_state("reg")
        assert state.timestamp == Timestamp(20, "w19")
        assert scheme.verify(state.commitment, server.pid.index,
                             state.block, state.witness)
        pairs.append((server.pid.index, state.block))
    assert cluster.config.coder.decode(pairs[:cluster.config.k]) == b"v19"


# -- resilience shape ---------------------------------------------------------

def test_default_k_is_rejected():
    """``SystemConfig``'s default ``k = n - t`` violates the AtomicMd
    read-liveness bound ``k <= n - 2t``; the deployment must opt in."""
    with pytest.raises(ConfigurationError, match="k <= n - 2t"):
        build_cluster(SystemConfig(n=4, t=1), protocol="atomic_md")


def test_validate_md_config_accepts_the_bound_exactly():
    validate_md_config(SystemConfig(n=7, t=2, k=3))
    with pytest.raises(ConfigurationError):
        validate_md_config(SystemConfig(n=7, t=2, k=4))


def test_runspec_resolves_k_for_atomic_md_only():
    """A spec leaves ``k`` unset; the runner deploys ``t + 1`` for
    ``atomic_md`` and the config's own ``n - t`` for the rest."""
    plan = builtin_plan("none", 4, 1)
    assert RunSpec(protocol="atomic_md", plan=plan).k is None
    assert execute_run(RunSpec(protocol="atomic_md", plan=plan)).expected
    _, md = run_register_case("atomic_md", 4, 1, writes=0, reads=0)
    _, pinned = run_register_case("atomic_md", 4, 1, k=2, writes=0,
                                  reads=0)
    _, atomic = run_register_case("atomic", 4, 1, writes=0, reads=0)
    assert (md.config.k, pinned.config.k, atomic.config.k) == (2, 2, 3)


def test_runspec_k_roundtrips_through_json():
    plan = builtin_plan("none", 7, 2)
    spec = RunSpec(protocol="atomic_md", plan=plan, n=7, t=2, k=3)
    assert RunSpec.from_json(spec.to_json()) == spec
    legacy = spec.to_json()
    del legacy["k"]  # reproducers written before the field existed
    assert RunSpec.from_json(legacy).k is None


# -- data-plane shape ---------------------------------------------------------

def test_write_pushes_exactly_n_blocks():
    """The O(n) data plane: one ``md-store`` per server, no echoes — and
    the rest of the write is ``n`` of each of the other five types, no
    broadcast."""
    cluster = _cluster(clients=1)
    cluster.write(1, "reg", "w1", b"x" * 64)
    cluster.run()
    counts = cluster.simulator.metrics.messages_by_mtype("reg")
    assert counts == {mtype: 4 for mtype in (
        "md-get-ts", "md-ts", MSG_STORE, MSG_STORED, MSG_COMMIT, MSG_ACK)}


def _count_verifies(monkeypatch, cluster):
    """Count commitment verifications, which only servers' ``md-store``
    and readers' ``md-meta`` checks perform."""
    calls = [0]
    scheme = cluster.config.commitment_scheme
    verify = scheme.verify

    def counted(*args):
        calls[0] += 1
        return verify(*args)
    monkeypatch.setattr(scheme, "verify", counted)
    return calls


def test_fault_free_read_fetches_exactly_k_blocks(monkeypatch):
    """The blocks arrive inline: every ``md-meta`` carries its sender's
    block, so a read sends no second request.  Of the ``n`` blocks the
    reader receives it takes, verifies and decodes exactly ``k``."""
    cluster = _cluster(clients=2)
    cluster.write(1, "reg", "w1", b"y" * 64)
    cluster.run()
    verifies = _count_verifies(monkeypatch, cluster)
    before = dict(cluster.simulator.metrics.messages_by_mtype("reg"))
    assert cluster.read(2, "reg", "r1").result == b"y" * 64
    cluster.run()
    counts = cluster.simulator.metrics.messages_by_mtype("reg")
    sent = {mtype: counts[mtype] - before.get(mtype, 0) for mtype in counts
            if counts[mtype] != before.get(mtype, 0)}
    n = cluster.config.n
    assert sent == {MSG_READ: n, MSG_META: n, MSG_READ_COMPLETE: n}
    assert verifies[0] == cluster.config.k


@pytest.mark.parametrize("seed", range(4))
def test_repeated_reads_of_a_register_each_fetch_exactly_k_blocks(
        seed, monkeypatch):
    """Regression: the reader used to take the block replies of its
    *earlier* reads of the register — still in its buffer, under their
    own oids — for answers to this read.  Each read takes exactly ``k``
    blocks out of its own ``md-meta`` replies, verifies those and no
    more, and completes in one round trip."""
    cluster = _cluster(n=7, t=2, seed=seed)
    cluster.write(1, "reg", "w1", b"z" * 64)
    cluster.run()
    verifies = _count_verifies(monkeypatch, cluster)
    metrics = cluster.simulator.metrics
    for index in range(3):
        verifies[0] = 0
        assert cluster.read(2, "reg", f"r{index}").result == b"z" * 64
        cluster.run()
        assert verifies[0] == cluster.config.k, f"read {index}"
    assert set(metrics.messages_by_mtype("reg")) == {
        "md-get-ts", "md-ts", MSG_STORE, MSG_STORED, MSG_COMMIT, MSG_ACK,
        MSG_READ, MSG_META, MSG_READ_COMPLETE}


# -- the join: the commit meets the verified md-store -------------------------

def _commitment_of(cluster, value):
    blocks = cluster.config.coder.encode(value)
    return cluster.config.commitment_scheme.commit(blocks)[0]


def _commit_instead(monkeypatch, forge):
    """Make every writer commit ``forge(ts, digest)`` in place of the
    honest ``(ts, digest)`` — its ``md-store`` half and its proof of
    writing stay honest."""
    send = AtomicMdClient.send_to_servers

    def forged(self, tag, mtype, *payload):
        if mtype == MSG_COMMIT:
            oid, ts, digest, proof = payload
            payload = (oid, *forge(ts, digest), proof)
        return send(self, tag, mtype, *payload)
    monkeypatch.setattr(AtomicMdClient, "send_to_servers", forged)


def _assert_write_never_took_effect(cluster, handle):
    cluster.run()  # to quiescence: nothing raises, nothing is left
    assert not handle.done
    counts = cluster.simulator.metrics.messages_by_mtype("reg")
    assert counts[MSG_STORE] == counts[MSG_COMMIT] == cluster.config.n
    assert MSG_ACK not in counts
    for server in cluster.servers:
        state = server.register_state("reg")
        assert handle.oid not in state.accepted
        assert state.timestamp == INITIAL_TIMESTAMP
        assert state.block == cluster.config.coder.encode(b"")[
            server.pid.index - 1]


def test_honest_write_takes_effect_at_every_server_under_its_digest():
    cluster = _cluster(n=7, t=2, seed=5, clients=1)
    cluster.write(1, "reg", "w1", b"bound by a digest")
    cluster.run()
    commitment = _commitment_of(cluster, b"bound by a digest")
    for server in cluster.servers:
        state = server.register_state("reg")
        assert state.timestamp == Timestamp(1, "w1")
        assert state.commitment == commitment
        assert "w1" in state.accepted
        assert not state.pending_store and not state.pending_meta


def test_merkle_deployment_joins_on_the_root_itself():
    """``digest`` of a Merkle root is the root: the commit names it
    directly, and the write/read path is unchanged."""
    config = SystemConfig(n=4, t=1, k=2, commitment="merkle")
    cluster = build_cluster(config, protocol="atomic_md", num_clients=2,
                            scheduler=RandomScheduler(1))
    cluster.write(1, "reg", "w1", b"under a hash tree")
    assert cluster.read(2, "reg", "r1").result == b"under a hash tree"
    cluster.run()
    root = _commitment_of(cluster, b"under a hash tree")
    assert all(server.register_state("reg").commitment == root
               for server in cluster.servers)


def test_writer_whose_halves_disagree_is_never_accepted(monkeypatch):
    """Blocks stored under ``D1``, ``digest(D2)`` committed: every
    server holds both halves, none joins them, the write never ends."""
    cluster = _cluster(clients=1)
    other = cluster.config.commitment_scheme.digest(
        _commitment_of(cluster, b"some other value"))
    _commit_instead(monkeypatch, lambda ts, digest: (ts, other))
    handle = cluster.client(1).invoke_write("reg", "w1", b"the value")
    _assert_write_never_took_effect(cluster, handle)


@pytest.mark.parametrize("forge", [
    pytest.param(lambda ts, digest, commitment: (ts, commitment),
                 id="full-vector"),
    pytest.param(lambda ts, digest, commitment: (ts, digest.hex()),
                 id="not-bytes"),
    pytest.param(lambda ts, digest, commitment: (ts, digest[:-1]),
                 id="short"),
    pytest.param(lambda ts, digest, commitment: (ts, digest + b"\x00"),
                 id="long"),
    pytest.param(lambda ts, digest, commitment: (-1, digest),
                 id="negative-ts"),
    pytest.param(lambda ts, digest, commitment: (ts, digest, digest),
                 id="not-a-pair"),
])
def test_malformed_broadcast_pairs_are_ignored(monkeypatch, forge):
    """The ``(ts, H(D))`` pair a write used to r-broadcast now travels
    in its ``md-commit``: a malformed one is dropped before any join
    state is written."""
    cluster = _cluster(clients=1)
    commitment = _commitment_of(cluster, b"the value")
    _commit_instead(
        monkeypatch, lambda ts, digest: forge(ts, digest, commitment))
    handle = cluster.client(1).invoke_write("reg", "w1", b"the value")
    _assert_write_never_took_effect(cluster, handle)
    assert not any(server.register_state("reg").pending_meta
                   for server in cluster.servers)


def test_a_commit_for_an_accepted_write_leaves_no_join_state():
    """A late copy of a commit (a reader's write-back, a duplicated
    message) for a write a server already accepted is dropped before
    it touches join state, and so is a late copy of its store."""
    cluster = _cluster(clients=2)
    cluster.write(1, "reg", "w1", b"v1")
    cluster.run()
    writer = cluster.client(1)
    state = cluster.server(1).register_state("reg")
    ts, proof = state.timestamp.ts - 1, state.proof
    digest = cluster.config.commitment_scheme.digest(state.commitment)
    cluster.client(2).send_to_servers("reg", MSG_COMMIT, "w1", ts, digest,
                                      proof)
    blocks = cluster.config.coder.encode(b"v1")
    commitment, witnesses = cluster.config.commitment_scheme.commit(blocks)
    writer.send(cluster.server(1).pid, "reg", MSG_STORE, "w1", commitment,
                blocks[0], witnesses[0], b"l" * DIGEST_SIZE)
    cluster.run()
    for server in cluster.servers:
        state = server.register_state("reg")
        assert not state.pending_meta and not state.pending_store
        assert state.timestamp == Timestamp(1, "w1")


def _wire_sizes(n, t):
    """``mtype -> distinct wire sizes`` over one write at ``(n, t)``,
    ``k`` held at 2 so block sizes are equal across deployments."""
    config = SystemConfig(n=n, t=t, k=2, seed=0)
    cluster = build_cluster(config, protocol="atomic_md", num_clients=1,
                            scheduler=RandomScheduler(0))
    recorder = TraceRecorder().attach(cluster.simulator)
    cluster.write(1, "reg", "w1", b"x" * 64)
    cluster.run()
    sizes = {}
    for record in recorder.messages.values():
        sizes.setdefault(record.mtype, set()).add(record.wire_bytes)
    return sizes


def test_commit_wire_size_is_independent_of_n():
    """The commit carries ``(ts, H(D), N)``: constant in ``n``.  ``D``
    itself travels once per server, beside the block."""
    at4, at7, at10 = (_wire_sizes(n, t) for n, t in ((4, 1), (7, 2), (10, 3)))
    assert at4[MSG_COMMIT] == at7[MSG_COMMIT] == at10[MSG_COMMIT]
    (commit,), (store4,), (store7,), (store10,) = (
        at4[MSG_COMMIT], at4[MSG_STORE], at7[MSG_STORE], at10[MSG_STORE])
    per_server = encoded_size(b"h" * DIGEST_SIZE)
    assert store7 - store4 == store10 - store7 == 3 * per_server
    assert commit < store4
    assert not any(mtype.startswith("rbc-") for mtype in at10)


@pytest.mark.parametrize("n, t", [(4, 1), (7, 2)])
def test_same_workload_moves_at_most_half_the_bytes_of_atomic(n, t):
    """The deterministic communication-complexity gate: one seeded
    4 KiB register workload moves at least 2x fewer wire bytes under
    the metadata/data separation than under full AVID dispersal."""
    total = {}
    for protocol in ("atomic", "atomic_md"):
        _, cluster = run_register_case(protocol, n, t, seed=n,
                                       value_size=4096)
        total[protocol] = cluster.simulator.metrics.total_bytes
    assert 2 * total["atomic_md"] <= total["atomic"]


def test_a_retained_version_costs_its_block_not_a_cross_checksum():
    """At rest: one ``D`` per register and the one version it names —
    block, witness, TIMESTAMP and proof, under 128 bytes beside ``D`` at
    64-byte values.  A write replaces the version; nothing accumulates."""
    cluster = _cluster(n=7, t=2, clients=1)
    server = cluster.server(1)
    sizes = []
    for index in range(6):
        cluster.write(1, "reg", f"w{index}", bytes([index]) * 64)
        cluster.run()
        sizes.append(server.register_storage_bytes("reg"))
    assert len(set(sizes)) == 1
    state = server.register_state("reg")
    one_d = encoded_size(state.commitment)
    assert one_d > 7 * DIGEST_SIZE
    assert 64 // 3 < len(state.block) and one_d < sizes[-1] < one_d + 128


class _HoldBack(Scheduler):
    """FIFO, except that messages matching ``held`` wait until nothing
    else is pending (then oldest first)."""

    def __init__(self, held):
        self.held = held

    def choose(self, pending):
        for index, message in enumerate(pending):
            if not self.held(message):
                return index
        return 0


def test_read_of_a_superseded_version_fetches_verifies_and_decodes():
    """Every server answers the read with version 1; before any reply
    is delivered a newer write is adopted everywhere, so no server holds
    version 1 any more.  The read still decodes it, from the blocks its
    replies carried, each verified against the ``D`` they agreed on."""
    first = Timestamp(1, "w1")

    def held(message):
        return message.mtype == MSG_META

    config = SystemConfig(n=4, t=1, k=2)
    cluster = build_cluster(config, protocol="atomic_md", num_clients=2,
                            scheduler=_HoldBack(held))
    recorder = TraceRecorder().attach(cluster.simulator)
    cluster.write(1, "reg", "w1", b"first version")
    cluster.run()
    read = cluster.client(2).invoke_read("reg", "r1")
    cluster.simulator.run_until(lambda: all(
        server.register_state("reg").listeners.knows("r1")
        for server in cluster.servers))
    cluster.write(1, "reg", "w2", b"second version")
    cluster.simulator.run_until(lambda: all(
        server.register_state("reg").timestamp == Timestamp(2, "w2")
        for server in cluster.servers))
    assert not read.done
    cluster.run()
    assert read.result == b"first version"
    assert read.timestamp == first
    assert not any(name.startswith("verify.failed.by[")
                   for name in recorder.registry.snapshot())


# -- metadata-only revalidation -----------------------------------------------

def test_write_handle_exposes_the_adopted_timestamp():
    """Acked writes surface the TIMESTAMP the servers adopted
    (``Timestamp(ts + 1, oid)``) so session caches can seed from them."""
    cluster = _cluster()
    first = cluster.write(1, "reg", "w1", b"v1")
    assert first.timestamp == Timestamp(1, "w1")
    second = cluster.write(1, "reg", "w2", b"v2")
    assert second.timestamp == Timestamp(2, "w2")


def test_validate_round_reports_the_freshest_quorum_timestamp():
    """``invoke_validate`` completes with the maximum TIMESTAMP over an
    ``n - t`` quorum — equal to the last write's — and moves metadata
    only: no block ever travels."""
    cluster = _cluster()
    write = cluster.write(1, "reg", "w1", b"payload")
    probe = cluster.client(2).invoke_validate("reg", "v1")
    cluster.run()
    assert probe.done
    assert probe.timestamp == write.timestamp
    assert probe.result is None
    counts = cluster.simulator.metrics.messages_by_mtype("reg")
    assert counts.get(MSG_VALIDATE, 0) == cluster.config.n
    assert counts.get(MSG_VALID, 0) >= cluster.config.quorum
    assert MSG_META not in counts  # metadata plane only: no block moves


# -- Byzantine data plane: escalation -----------------------------------------

def test_corrupt_block_server_forces_escalation():
    """A server sending corrupted blocks fails reader-side verification
    whenever the reader evaluates its block; the read then takes a
    further agreeing server's block and still returns the correct
    value.  Every failure is recorded once, against ``md-meta``."""
    recorded = 0
    for seed in range(4):
        cluster = _cluster(seed=seed,
                           server_overrides={1: CorruptBlockMdServer})
        recorder = TraceRecorder().attach(cluster.simulator)
        cluster.write(1, "reg", "w1", b"still intact")
        assert cluster.read(2, "reg", "r1").result == b"still intact"
        failures = {name: summary["value"]
                    for name, summary in recorder.registry.snapshot().items()
                    if name.startswith("verify.failed.by[")}
        assert set(failures) <= {f"verify.failed.by[{MSG_META}]"}
        assert sum(failures.values()) <= 1  # one read, one corrupt block
        recorded += sum(failures.values())
    assert recorded > 0


def _block_failures(recorder):
    summary = recorder.registry.snapshot().get(
        f"verify.failed.by[{MSG_META}]")
    return 0 if summary is None else summary["value"]


def test_every_read_escalates_when_corrupt_server_is_always_queried():
    """By construction, not by seed: P4 sends corrupted blocks and the
    scheduler delivers its ``md-meta`` before any other server's, so P4
    is the first member of every read's agreeing group and its block is
    the first one evaluated.  Every read fails exactly that one
    verification, takes the next two members' blocks, and returns the
    written value."""
    def held(message):
        return message.mtype == MSG_META and message.sender.index != 4

    config = SystemConfig(n=4, t=1, k=2)
    cluster = build_cluster(config, protocol="atomic_md", num_clients=3,
                            scheduler=_HoldBack(held),
                            server_overrides={4: CorruptBlockMdServer})
    recorder = TraceRecorder().attach(cluster.simulator)
    metrics = cluster.simulator.metrics
    cluster.write(1, "reg", "w1", b"sweep value")
    for client in (2, 3):
        failures = _block_failures(recorder)
        replies = metrics.messages_by_mtype("reg").get(MSG_META, 0)
        read = cluster.read(client, "reg", f"r{client}")
        assert read.result == b"sweep value"
        assert _block_failures(recorder) == failures + 1
        cluster.run()
        assert metrics.messages_by_mtype("reg")[MSG_META] \
            == replies + config.n


def test_missing_block_server_triggers_miss_escalation():
    """P2's replies carry metadata and no block: they count toward the
    agreeing quorum, never toward the ``k`` blocks, and are omission,
    not verification failures.  Reads decode from the honest servers'
    blocks, whatever the arrival order."""
    for seed in range(4):
        cluster = _cluster(seed=seed,
                           server_overrides={2: MissingBlockMdServer})
        recorder = TraceRecorder().attach(cluster.simulator)
        cluster.write(1, "reg", "w1", b"served elsewhere")
        assert cluster.read(2, "reg", "r1").result == b"served elsewhere"
        blockless = [record for record in recorder.messages.values()
                     if record.mtype == MSG_META
                     and record.sender.index == 2]
        assert blockless
        assert not any(name.startswith("verify.failed.by[")
                       for name in recorder.registry.snapshot())


def test_reads_linearize_with_byzantine_data_plane_at_n7():
    """Full workload at n=7/t=2 with one corrupt-block and one
    missing-block server (within the t=2 budget): atomicity holds."""
    cluster = _cluster(
        n=7, t=2, seed=2, clients=3,
        server_overrides={
            6: lambda pid, cfg: MissingBlockMdServer(pid, cfg),
            7: lambda pid, cfg: CorruptBlockMdServer(pid, cfg)})
    operations = random_workload(3, writes=3, reads=4, seed=2)
    run_workload(cluster, "reg", operations, seed=2)
    HistoryRecorder(cluster, "reg",
                    honest_servers=[cluster.server(j).pid
                                    for j in range(1, 6)]).check()


# -- crash-only writers: the two-phase boundary ------------------------------

class _CrashingWriter(AtomicMdClient):
    """Stores at every server, commits only to ``commit_to`` (server
    indices), then crashes: it neither sends nor reads anything more."""

    def __init__(self, pid, config, commit_to=()):
        super().__init__(pid, config)
        self.commit_to = commit_to
        self.crashed = False

    def send_to_servers(self, tag, mtype, *payload):
        if mtype != MSG_COMMIT:
            return super().send_to_servers(tag, mtype, *payload)
        for server in self.simulator.server_pids:
            if server.index in self.commit_to:
                self.send(server, tag, mtype, *payload)
        self.crashed = True

    def receive(self, message):
        if not self.crashed:
            super().receive(message)


def _plan(name, n=4, t=1):
    if name.startswith("byz-"):
        return FaultPlan(name=name, faulty=(n,), byzantine=(
            ByzantineSpec(server=n, behaviour=name[len("byz-"):]),))
    return builtin_plan(name, n, t)


def _crashed_write_run(plan, commit_to, server_overrides=None):
    """At n=4/t=1: a completed write ``w0``, then a writer that crashes
    after its stores and the commits in ``commit_to`` concurrently with
    a read, then one more read once the network is quiet.  Both reads
    must complete without a retry, the history (the crashed write
    counted iff some honest server accepted it) must be atomic, and no
    honest server may ever hold a version no writer committed."""
    plan.validate(4, 1)
    overrides = {**(fault_overrides(plan, AtomicMdServer) or {}),
                 **(server_overrides or {})}
    cluster = build_cluster(
        SystemConfig(n=4, t=1, k=2), protocol="atomic_md", num_clients=3,
        scheduler=plan.build_scheduler(0), server_overrides=overrides,
        client_overrides={1: partial(_CrashingWriter,
                                     commit_to=commit_to)})
    cluster.simulator.attach_injector(FaultInjector(plan))
    honest = [server.pid for server in cluster.servers
              if server.pid.index not in plan.faulty
              and server.pid.index not in overrides]
    install_commit_invariant(cluster.simulator, "reg", honest)
    history = HistoryRecorder(cluster, "reg", honest_servers=honest)
    cluster.write(2, "reg", "w0", b"committed first")
    cluster.client(1).invoke_write("reg", "w1", b"crashed writer")
    history.record_byzantine_write("w1", b"crashed writer")
    _read_to_completion(cluster, 2, "r1")
    after = _read_to_completion(cluster, 3, "r2")
    history.check(require_done=False)
    return cluster, after


def _read_to_completion(cluster, client, oid):
    """A read, run until the network quiesces: it must have completed
    — no retry, no second request, no fetch target left to wait for."""
    read = cluster.client(client).invoke_read("reg", oid)
    cluster.run()
    assert read.done
    return read


@pytest.mark.parametrize("commits", range(3))
@pytest.mark.parametrize("plan_name", [
    *(name for name in BUILTIN_PLANS if name != "boundary"),
    *(f"byz-{name}" for name, (_, deviates_from)
      in sorted(BYZANTINE_BEHAVIOURS.items())
      if AtomicMdServer in deviates_from)])
def test_writer_crashing_between_commits_leaves_reads_wait_free(
        plan_name, commits):
    """``j = 0 .. n - t - 1`` commits at n=4/t=1, under every builtin
    chaos plan within the bound and every Byzantine md server."""
    _crashed_write_run(_plan(plan_name), tuple(range(1, commits + 1)))


def test_write_back_needs_one_report_when_t_servers_are_silent():
    """The case a ``t + 1``-report write-back cannot close: P4 is silent
    from the start and the writer crashed after committing to P1 alone,
    so no ``n - t`` servers agree on either version and only one reports
    the new one.  The reader relays P1's commit — its proof of writing
    cannot be forged, so one report is evidence enough — and P2, P3
    adopt the version they already hold the store of."""
    plan = FaultPlan(name="silent-p4", faulty=(4,),
                     crashes=(CrashSpec(server=4, after=0),))
    cluster, after = _crashed_write_run(plan, commit_to=(1,))
    assert after.result == b"crashed writer"
    assert all(server.register_state("reg").timestamp.oid == "w1"
               for server in cluster.servers[:3])
    counts = cluster.simulator.metrics.messages_by_mtype("reg")
    assert counts[MSG_COMMIT] > 1  # the writer itself sent one


class _CommitForger(AtomicMdServer):
    """Invents a commit for every store it receives (each timestamp it
    could guess, the right digest, a made-up proof) and replays every
    commit a client sends it, to every server."""

    def _on_store(self, message):
        super()._on_store(message)
        oid, commitment = message.payload[:2]
        digest = self.config.commitment_scheme.digest(commitment)
        for ts in range(3):
            self.send_to_servers(message.tag, MSG_COMMIT, oid, ts, digest,
                                 hash_bytes(b"guessed proof"))

    def _on_commit(self, message):
        super()._on_commit(message)
        if not message.sender.is_server:
            self.send_to_servers(message.tag, MSG_COMMIT, *message.payload)


@pytest.mark.parametrize("commit_to", [(), (4,)], ids=["none", "forger"])
def test_commits_invented_or_replayed_by_a_server_change_nothing(commit_to):
    """The writer crashes after committing to P4 only (or to nobody):
    the honest servers end exactly as they do beside an honest P4 —
    ``w0`` adopted, no join state for ``w1``.  Then readers still
    complete and the history is atomic."""
    states = []
    for server_cls in (AtomicMdServer, _CommitForger):
        cluster = build_cluster(
            SystemConfig(n=4, t=1, k=2), protocol="atomic_md",
            num_clients=2, scheduler=RandomScheduler(0),
            server_overrides={4: server_cls},
            client_overrides={1: partial(_CrashingWriter,
                                         commit_to=commit_to)})
        cluster.write(2, "reg", "w0", b"committed first")
        cluster.client(1).invoke_write("reg", "w1", b"crashed writer")
        cluster.run()
        states.append([
            (state.timestamp, dict(state.pending_meta), state.accepted)
            for state in (server.register_state("reg")
                          for server in cluster.servers[:3])])
    assert states[0] == states[1]
    assert all(timestamp.oid == "w0" and not pending
               for timestamp, pending, _ in states[1])
    _crashed_write_run(builtin_plan("none", 4, 1), commit_to,
                       server_overrides={4: _CommitForger})


def test_a_server_that_crashes_after_its_metadata_does_not_stall_the_read():
    """What used to be the boundary of the two-round read: P4 answers
    ``md-read`` first and then crashes.  A fetch target that crashed
    before serving its block stalled that read; now P4's block arrived
    with its metadata, so the read completes without a retry."""
    def held(message):
        return message.mtype == MSG_META and message.sender.index != 4

    config = SystemConfig(n=4, t=1, k=2)
    # P4 handles md-get-ts, md-store, md-commit and md-read, then crashes
    cluster = build_cluster(
        config, protocol="atomic_md", num_clients=2,
        scheduler=_HoldBack(held),
        server_overrides={4: partial(FailStopMdServer, crash_after=4)})
    cluster.write(1, "reg", "w1", b"value")
    read = cluster.client(2).invoke_read("reg", "r1")
    cluster.run()
    assert cluster.server(4).crashed
    assert read.done and read.result == b"value"


@pytest.mark.parametrize("n, t", [(4, 1), (7, 2)])
def test_t_servers_crashing_after_their_replies_leave_reads_wait_free(n, t):
    """The worst case of the same boundary: the ``t`` servers whose
    replies the reader sees first crash right after sending them, so
    the agreeing group is formed with them and no later message of
    theirs ever arrives.  Every read completes without a retry."""
    crashing = set(range(n - t + 1, n + 1))

    def held(message):
        return message.mtype == MSG_META \
            and message.sender.index not in crashing

    # each handles md-get-ts, md-store, md-commit and md-read, then
    # crashes
    cluster = build_cluster(
        SystemConfig(n=n, t=t, k=t + 1), protocol="atomic_md",
        num_clients=2, scheduler=_HoldBack(held),
        server_overrides={index: partial(FailStopMdServer, crash_after=4)
                          for index in crashing})
    install_commit_invariant(cluster.simulator, "reg",
                             [cluster.server(j).pid
                              for j in range(1, n - t + 1)])
    cluster.write(1, "reg", "w1", b"value")
    read = _read_to_completion(cluster, 2, "r1")
    assert all(cluster.server(index).crashed for index in crashing)
    assert read.result == b"value"
    assert _read_to_completion(cluster, 1, "r2").result == b"value"


def test_a_relayed_commit_must_open_the_stores_lock():
    """Any client may relay a commit, so the lock is what binds it: a
    guessed proof, or the writer's proof moved to another timestamp,
    is buffered and never joins; the writer's own ``(ts, N)`` does."""
    cluster = _cluster(clients=2, client_overrides={1: _CrashingWriter})
    writer = cluster.client(1)
    handle = writer.invoke_write("reg", "w1", b"never committed")
    cluster.run()
    relay = cluster.client(2)
    digest = cluster.config.commitment_scheme.digest(
        _commitment_of(cluster, b"never committed"))
    proof = writer._proof_of_writing("reg", "w1")
    for ts, candidate in ((0, hash_bytes(b"guess")), (5, proof)):
        relay.send_to_servers("reg", MSG_COMMIT, "w1", ts, digest, candidate)
        cluster.run()
        assert all(server.register_state("reg").timestamp
                   == INITIAL_TIMESTAMP for server in cluster.servers)
    relay.send_to_servers("reg", MSG_COMMIT, "w1", 0, digest, proof)
    cluster.run()
    assert all(server.register_state("reg").timestamp == Timestamp(1, "w1")
               for server in cluster.servers)
    assert not handle.done  # the writer crashed; its write took effect


def test_a_server_whose_store_never_arrives_never_adopts_the_write():
    """Boundary, the same as with the broadcast it replaced (where the
    half that arrived was the r-delivered pair): P1 never receives its
    ``md-store``.  It keeps the commit in join state and never adopts
    that version; the write completes on the other ``n - 1 >= n - t``
    servers and reads return it.  A later write moves P1 forward; the
    orphaned commit stays buffered (one entry per such write)."""
    plan = FaultPlan(name="lost-store", faulty=(1,), rules=(
        FaultRule(kind="drop", party=1, mtype=MSG_STORE, limit=1),))
    plan.validate(4, 1)
    cluster = _cluster(clients=2)
    cluster.simulator.attach_injector(FaultInjector(plan))
    install_commit_invariant(cluster.simulator, "reg",
                             [server.pid for server in cluster.servers])
    first = cluster.write(1, "reg", "w1", b"v1")
    cluster.run()
    p1 = cluster.server(1).register_state("reg")
    assert p1.timestamp == INITIAL_TIMESTAMP
    assert list(p1.pending_meta) == ["w1"] and not p1.pending_store
    assert all(server.register_state("reg").timestamp == first.timestamp
               for server in cluster.servers[1:])
    assert cluster.read(2, "reg", "r1").result == b"v1"
    second = cluster.write(1, "reg", "w2", b"v2")
    cluster.run()
    assert p1.timestamp == second.timestamp
    assert list(p1.pending_meta) == ["w1"]


def test_commit_invariant_catches_an_uncommitted_adoption():
    """The invariant itself: a server that adopts on the store alone is
    reported at the delivery that does it."""
    class StoreAdopter(AtomicMdServer):
        def _on_store(self, message):
            super()._on_store(message)
            oid = message.payload[0]
            state = self.register_state(message.tag)
            if oid in state.pending_store and oid not in state.accepted:
                state.accepted.add(oid)
                writer = next(iter(state.pending_store[oid]))
                self._accept_write(message.tag, oid, writer,
                                   Timestamp(1, oid), b"", state)

    cluster = _cluster(server_overrides={1: StoreAdopter})
    install_commit_invariant(cluster.simulator, "reg",
                             [server.pid for server in cluster.servers])
    with pytest.raises(ProtocolError, match="no writer committed"):
        cluster.write(1, "reg", "w1", b"v1")


def test_commit_invariant_catches_a_kept_block_that_does_not_verify():
    """The invariant's data half: a server that adopts a committed
    version but keeps a block other than its own — the block its read
    replies would carry — is reported at the delivery that does it."""
    class BlockMangler(AtomicMdServer):
        def _accept_write(self, register_tag, oid, writer, timestamp, proof,
                          state):
            super()._accept_write(register_tag, oid, writer, timestamp,
                                  proof, state)
            state.block = bytes(byte ^ 0xFF for byte in state.block)

    cluster = _cluster(server_overrides={1: BlockMangler})
    install_commit_invariant(cluster.simulator, "reg",
                             [server.pid for server in cluster.servers])
    with pytest.raises(ProtocolError, match="does not verify"):
        cluster.write(1, "reg", "w1", b"v1")


# -- chaos battery ------------------------------------------------------------

@pytest.mark.parametrize("plan_name", sorted(BUILTIN_PLANS))
def test_builtin_chaos_battery_n4(plan_name):
    """Every builtin plan at n=4/t=1 yields the model's promise: ``ok``
    within the resilience bound, a failure beyond it (``boundary``)."""
    spec = RunSpec(protocol="atomic_md",
                   plan=builtin_plan(plan_name, 4, 1, seed=0))
    result = execute_run(spec)
    assert result.expected, (plan_name, result.status, result.detail)


@pytest.mark.parametrize("plan_name",
                         ["corruption", "partition", "slow-server",
                          "sched-partition", "boundary"])
def test_builtin_chaos_battery_n7(plan_name):
    spec = RunSpec(protocol="atomic_md", n=7, t=2,
                   plan=builtin_plan(plan_name, 7, 2, seed=1), seed=1)
    result = execute_run(spec)
    assert result.expected, (plan_name, result.status, result.detail)


# -- schedule preservation ----------------------------------------------------

def test_existing_schedules_byte_identical_with_atomic_md_exercised():
    """Exercising AtomicMd first must not perturb the golden schedules
    of the existing protocols (shared caches, wire registry, RNG)."""
    import gen_golden_schedules
    cluster = _cluster()
    cluster.write(1, "reg", "w1", b"warm the caches")
    cluster.read(2, "reg", "r1")
    fixture = json.loads(
        (REPO_ROOT / "tests" / "fixtures" /
         "golden_schedules.json").read_text(encoding="utf-8"))
    for case in fixture["cases"][:2]:
        fresh = gen_golden_schedules.run_case(dict(case["spec"]))
        assert fresh["sha256"] == case["sha256"]


def test_atomic_md_runs_are_deterministic():
    digests = set()
    for _ in range(2):
        spec = RunSpec(protocol="atomic_md",
                       plan=builtin_plan("mixed", 4, 1, seed=3), seed=3)
        digests.add(execute_run(spec).digest)
    assert len(digests) == 1


# -- plane attribution --------------------------------------------------------

def test_plane_classification_of_md_message_types():
    assert set(DATA_PLANE_TYPES) <= DATA_PLANE_MTYPES
    for mtype in MESSAGE_TYPES:
        expected = "data" if mtype in DATA_PLANE_TYPES else "metadata"
        assert plane_of_mtype(mtype) == expected


def test_two_phase_write_types_are_metadata_with_their_own_phases():
    assert plane_of_mtype(MSG_STORED) == plane_of_mtype(MSG_COMMIT) \
        == "metadata"
    assert classify_phase("reg", MSG_STORED, "reg") == PHASE_BLOCK_PUSH
    assert classify_phase("reg", MSG_COMMIT, "reg") == PHASE_COMMIT


def test_transport_envelope_literal_stays_in_sync():
    """``repro.obs.planes`` spells the kv envelope type as a literal to
    avoid an ``obs -> kv -> obs`` import cycle; this is the pin."""
    assert TRANSPORT_MTYPES == frozenset((MSG_KV_BATCH,))


def test_plane_traffic_excludes_transport_envelopes():
    traffic = PlaneTraffic()
    traffic.observe(MSG_STORE, 100)
    traffic.observe(MSG_COMMIT, 10)
    traffic.observe(MSG_KV_BATCH, 10_000)
    assert traffic.data_bytes == 100
    assert traffic.metadata_bytes == 10
    assert traffic.total_bytes == 110
    assert traffic.to_json()["data_messages"] == 1


def test_run_level_plane_split_shows_one_round_trip_reads():
    """Per-operation attribution: a read's data plane is its ``n``
    ``md-meta`` replies, one block each, as a write's is its ``n``
    ``md-store`` pushes; its metadata plane is ``md-read`` and
    ``md-read-complete`` alone — no block request."""
    cluster = _cluster()
    recorder = TraceRecorder().attach(cluster.simulator)
    cluster.write(1, "reg", "w1", b"z" * 256)
    cluster.read(2, "reg", "r1")
    cluster.run()
    totals = plane_traffic(recorder)
    assert totals.data_bytes > 0 and totals.metadata_bytes > 0
    # the totals read off the histograms equal a scan of the records
    scanned = PlaneTraffic()
    for record in recorder.messages.values():
        scanned.add(record)
    assert totals == scanned
    per_op = operation_plane_traffic(recorder)
    n = cluster.config.n
    assert per_op["write"].data_messages == per_op["read"].data_messages \
        == n
    assert per_op["read"].metadata_messages == 2 * n


# -- kv plane integration -----------------------------------------------------

def test_directory_shard_k_reaches_every_shard_config():
    directory = KvDirectory(SystemConfig(n=4, t=1), 4, shard_k=2)
    assert all(spec.config.k == 2 for spec in directory.shards)


def test_kv_case_rejects_byzantine_for_other_protocols():
    with pytest.raises(ConfigurationError):
        run_kv_case(2, protocol="atomic", byzantine="corrupt-block")


def test_kv_case_rejects_a_plan_that_collides_with_its_byzantine_server():
    """``byzantine=`` travels inside the plan, so ``FaultPlan.validate``
    sees both faults: the Byzantine override used to win silently over
    a crash of the same server, and a crash elsewhere used to push the
    run past ``t`` unnoticed."""
    from repro.chaos.plan import CrashSpec, FaultPlan
    with pytest.raises(ConfigurationError,
                       match="both crashes and runs a byzantine"):
        run_kv_case(2, protocol="atomic_md", plan="crash",
                    byzantine="corrupt-block")
    elsewhere = FaultPlan(name="crash-p1", faulty=(1,),
                          crashes=(CrashSpec(server=1, after=5),))
    with pytest.raises(ConfigurationError,
                       match="designates 2 faulty servers"):
        run_kv_case(2, protocol="atomic_md", plan=elsewhere,
                    byzantine="corrupt-block")
    with pytest.raises(ConfigurationError,
                       match="unknown byzantine behaviour"):
        run_kv_case(2, protocol="atomic_md", byzantine="no-such")


def test_kv_case_md_byzantine_composes_with_a_within_budget_plan():
    row, _ = run_kv_case(2, protocol="atomic_md", sessions=2, keys=8,
                         ops=24, write_ratio=0.1, seed=0, plan="delays",
                         byzantine="corrupt-block")
    assert row.linearizable and row.completed == 24
    assert row.plan == "delays+byz-corrupt-block"


def test_kv_case_md_byzantine_row_escalates_and_linearizes():
    row, _ = run_kv_case(2, protocol="atomic_md", sessions=2, keys=8,
                         ops=24, write_ratio=0.1, seed=0,
                         byzantine="corrupt-block")
    assert row.linearizable
    assert row.verify_failures > 0
    assert row.plan == "byz-corrupt-block"


# -- read-mostly workload mixes -----------------------------------------------

def test_zipf_shift_rotates_the_hot_set():
    """Under ``zipf-shift`` the rank → key assignment rotates by one
    every ``shift_every`` ops: the first phase matches plain zipf, the
    next phase's keys are shifted by one position."""
    plain = kv_workload(2, 8, 32, write_ratio=0.1, distribution="zipf",
                        seed=9)
    shifted = kv_workload(2, 8, 32, write_ratio=0.1,
                          distribution="zipf-shift", seed=9,
                          shift_every=16)
    keys = [f"k{i:03d}" for i in range(8)]
    assert [op.key for op in plain[:16]] == [op.key for op in shifted[:16]]
    for before, after in zip(plain[16:], shifted[16:]):
        index = keys.index(before.key)
        assert after.key == keys[(index + 1) % len(keys)]


def test_zipf_shift_validates_shift_every():
    with pytest.raises(ConfigurationError):
        kv_workload(2, 8, 16, distribution="zipf-shift", shift_every=0)


def test_read_mostly_mix_is_read_mostly_and_deterministic():
    first = kv_workload(4, 32, 200, write_ratio=0.1,
                        distribution="zipf-shift", seed=0)
    second = kv_workload(4, 32, 200, write_ratio=0.1,
                         distribution="zipf-shift", seed=0)
    assert first == second
    writes = sum(1 for op in first if op.kind == "write")
    assert 0.02 <= writes / len(first) <= 0.25


# -- lint coverage ------------------------------------------------------------

def test_atomic_md_is_inside_every_protocol_lint_scope():
    """The new protocol module must be covered by the determinism,
    quorum, handler, and taint-flow packs (``repro.core`` scope)."""
    for pack in ("determinism", "quorum", "handlers", "taint"):
        assert in_scope(pack, "repro.core.atomic_md"), pack
