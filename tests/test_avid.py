"""Protocol Disperse (AVID): termination, agreement, verifiability."""

from types import SimpleNamespace

import pytest

from repro.avid.disperse import (
    MSG_ECHO,
    MSG_READY,
    MSG_SEND,
    AvidServer,
    disperse,
)
from repro.cluster import run_register_case
from repro.common.ids import client_id, server_id
from repro.common.serialization import encode
from repro.config import SystemConfig
from repro.kv import KvDirectory, build_kv_cluster, drive
from repro.net import message as message_module
from repro.net.message import content_wire_size
from repro.net.process import Process
from repro.net.schedulers import (
    FifoScheduler,
    RandomScheduler,
    SlowPartiesScheduler,
)
from repro.net.simulator import Simulator
from repro.obs import TraceRecorder
from repro.workloads.kv import kv_workload


class AvidHost(Process):
    """A server hosting only the dispersal component."""

    def __init__(self, pid, config):
        super().__init__(pid)
        self.config = config
        self.completions = {}
        self.avid = AvidServer(self, config, self._complete)

    def _complete(self, tag, commitment, client, block, witness):
        assert tag not in self.completions
        self.completions[tag] = (commitment, client, block, witness)


class Disperser(Process):
    pass


def _network(n=4, t=1, k=None, seed=0, commitment="vector", crashed=0,
             scheduler=None):
    config = SystemConfig(n=n, t=t, k=k, commitment=commitment)
    simulator = Simulator(
        scheduler=scheduler or RandomScheduler(seed))
    servers = []
    for j in range(1, n + 1):
        if j <= crashed:
            servers.append(simulator.add_process(Disperser(server_id(j))))
        else:
            servers.append(simulator.add_process(
                AvidHost(server_id(j), config)))
    client = simulator.add_process(Disperser(client_id(1)))
    return simulator, servers, client, config


def _honest(servers):
    return [s for s in servers if isinstance(s, AvidHost)]


def _sent(simulator, servers, mtype):
    """``(message, echoers, consistent)`` for every ``mtype`` message an
    honest server sends: the indices whose echoes its sender had recorded
    at that moment, and the verdict of its verifiability check."""
    sent = []

    def on_send(sender, sends, pending):
        host = servers[sender.index - 1] if sender.is_server else None
        if not isinstance(host, AvidHost):
            return
        for message, _, _, _ in sends:
            if message.mtype != mtype:
                continue
            (state,) = host.avid._instances[message.tag].keys.values()
            sent.append((message, frozenset(state.echo_blocks),
                         state.consistent))

    simulator.add_observer(SimpleNamespace(on_send=on_send))
    return sent


def _decode_from_completions(config, servers, tag):
    pairs = [(server.pid.index, server.completions[tag][2])
             for server in _honest(servers)][: config.k]
    return config.coder.decode(pairs)


@pytest.mark.parametrize("commitment", ["vector", "merkle"])
def test_honest_dispersal_completes_everywhere(commitment):
    simulator, servers, client, config = _network(commitment=commitment)
    disperse(client, "d", b"the dispersed value", config)
    simulator.run()
    for server in _honest(servers):
        assert "d" in server.completions
        _, who, block, witness = server.completions["d"]
        assert who == client.pid
        assert config.commitment_scheme.verify(
            server.completions["d"][0], server.pid.index, block, witness)


def test_blocks_reconstruct_value():
    simulator, servers, client, config = _network(seed=2)
    value = bytes(range(256)) * 3
    disperse(client, "d", value, config)
    simulator.run()
    assert _decode_from_completions(config, servers, "d") == value


def test_agreement_on_commitment():
    simulator, servers, client, config = _network(seed=4)
    disperse(client, "d", b"v", config)
    simulator.run()
    commitments = {encode(s.completions["d"][0]) for s in _honest(servers)}
    assert len(commitments) == 1


def test_completes_with_t_crashed_servers():
    simulator, servers, client, config = _network(crashed=1, seed=7)
    disperse(client, "d", b"resilient", config)
    simulator.run()
    for server in _honest(servers):
        assert "d" in server.completions
    assert _decode_from_completions(config, servers, "d") == b"resilient"


def test_many_schedules():
    for seed in range(8):
        simulator, servers, client, config = _network(seed=seed)
        disperse(client, "d", b"value-%d" % seed, config)
        simulator.run()
        assert _decode_from_completions(
            config, servers, "d") == b"value-%d" % seed


def test_withheld_sends_still_complete_everywhere():
    """Agreement: the client sends valid blocks to only n - t servers.
    Every honest server completes, and each one it withheld from is sent
    its block in a personalized ready."""
    for n, t in ((4, 1), (7, 2)):
        withheld = range(n - t + 1, n + 1)
        for seed in range(16):
            simulator, servers, client, config = _network(n=n, t=t,
                                                          seed=seed)
            readys = _sent(simulator, servers, MSG_READY)
            value = b"partially distributed"
            blocks = config.coder.encode(value)
            commitment, witnesses = config.commitment_scheme.commit(blocks)
            # The echo quorum can be met; the last t servers never get
            # their send.
            for index in range(1, n - t + 1):
                client.send(server_id(index), "d", MSG_SEND, commitment,
                            blocks[index - 1], witnesses[index - 1])
            simulator.run()
            assert all("d" in s.completions for s in servers), (n, seed)
            assert _decode_from_completions(config, servers, "d") == value
            for index in withheld:
                carried = {message.payload[2] for message, _, _ in readys
                           if message.recipient.index == index}
                assert blocks[index - 1] in carried, (n, seed, index)


def test_inconsistent_encoding_never_completes():
    """Verifiability: commitments over blocks that are not an encoding of
    any value are refused (no honest server ever sends ready)."""
    simulator, servers, client, config = _network(seed=1)
    blocks_a = config.coder.encode(b"A" * 50)
    blocks_b = config.coder.encode(b"B" * 50)
    mixed = [blocks_a[0], blocks_b[1], blocks_a[2], blocks_b[3]]
    commitment, witnesses = config.commitment_scheme.commit(mixed)
    for index, server in enumerate(simulator.server_pids, start=1):
        client.send(server, "d", MSG_SEND, commitment, mixed[index - 1],
                    witnesses[index - 1])
    simulator.run()
    assert all("d" not in s.completions for s in _honest(servers))


def test_corrupted_send_ignored():
    simulator, servers, client, config = _network()
    blocks = config.coder.encode(b"value")
    commitment, witnesses = config.commitment_scheme.commit(blocks)
    # Block does not match the commitment slot.
    client.send(server_id(1), "d", MSG_SEND, commitment, b"garbage",
                witnesses[0])
    simulator.run()
    assert all("d" not in s.completions for s in _honest(servers))


def test_byzantine_echo_flood_harmless():
    simulator, servers, client, config = _network(crashed=1, seed=3)
    byzantine = servers[0]
    disperse(client, "d", b"value", config)
    for _ in range(5):
        byzantine.send_to_servers(
            "d", "avid-echo",
            tuple(b"\x00" * 32 for _ in range(config.n)),
            client.pid, b"junk", None)
        byzantine.send_to_servers(
            "d", "avid-ready",
            tuple(b"\x00" * 32 for _ in range(config.n)),
            client.pid, None, None)
    simulator.run()
    assert _decode_from_completions(config, servers, "d") == b"value"


def test_equivocating_client_at_most_one_commitment():
    """Different (send) commitments to different servers: at most one can
    ever complete, and all honest completions agree."""
    for seed in range(6):
        simulator, servers, client, config = _network(seed=seed)
        value_a, value_b = b"A" * 40, b"B" * 40
        for value, targets in ((value_a, (1, 2)), (value_b, (3, 4))):
            blocks = config.coder.encode(value)
            commitment, witnesses = config.commitment_scheme.commit(blocks)
            for index in targets:
                client.send(server_id(index), "d", MSG_SEND, commitment,
                            blocks[index - 1], witnesses[index - 1])
        simulator.run()
        commitments = {encode(s.completions["d"][0])
                       for s in _honest(servers) if "d" in s.completions}
        assert len(commitments) <= 1


def test_k_values_sweep():
    for k in (1, 2, 3):
        simulator, servers, client, config = _network(k=k, seed=k)
        disperse(client, "d", b"k-sweep", config)
        simulator.run()
        assert _decode_from_completions(config, servers, "d") == b"k-sweep"


def test_empty_value():
    simulator, servers, client, config = _network()
    disperse(client, "d", b"", config)
    simulator.run()
    assert _decode_from_completions(config, servers, "d") == b""


def test_adversarial_scheduler_starving_one_server():
    """A server whose traffic is maximally delayed still completes."""
    victim = server_id(4)
    scheduler = SlowPartiesScheduler({victim}, seed=2)
    simulator, servers, client, config = _network(scheduler=scheduler)
    disperse(client, "d", b"starved", config)
    simulator.run()
    assert all("d" in s.completions for s in _honest(servers))


def test_storage_released_after_completion():
    simulator, servers, client, config = _network()
    disperse(client, "d", b"x" * 1000, config)
    simulator.run()
    for server in _honest(servers):
        assert server.avid.storage_bytes() == 0


# -- nothing is sent to a server that already holds it ------------------------

@pytest.mark.parametrize("commitment", ["vector", "merkle"])
def test_ready_to_a_server_that_echoed_names_the_digest_only(commitment):
    """A ready to a server whose valid echo its sender recorded carries
    ``H(D)`` and no block; every other ready carries ``D``.  Under FIFO
    every server readies on the echoes of P1..P(n-t), which gives the
    model's split: n(n - t) digest-only readys, n t personalized."""
    for scheduler in [FifoScheduler()] + [RandomScheduler(s)
                                          for s in range(6)]:
        simulator, servers, client, config = _network(
            commitment=commitment, scheduler=scheduler)
        readys = _sent(simulator, servers, MSG_READY)
        disperse(client, "d", bytes(range(200)), config)
        simulator.run()
        assert all("d" in s.completions for s in servers)
        dispersed = servers[0].completions["d"][0]
        digest = config.commitment_scheme.digest(dispersed)
        for message, echoers, _ in readys:
            name, who, block, witness = message.payload
            assert who == client.pid
            if message.recipient.index in echoers:
                assert (name, block, witness) == (digest, None, None)
            else:
                assert encode(name) == encode(dispersed)
        if isinstance(scheduler, FifoScheduler):
            n, t = config.n, config.t
            digest_only = [message for message, echoers, _ in readys
                           if message.recipient.index in echoers]
            assert len(readys) == n * n
            assert len(digest_only) == n * (n - t)
            assert all(message.payload[2] is not None
                       for message, echoers, _ in readys
                       if message.recipient.index not in echoers)


@pytest.mark.parametrize("commitment", ["vector", "merkle"])
def test_own_echo_is_blockless_and_counts_toward_quorum_and_check(
        commitment):
    """With P1 crashed the three live echoes, each server's own among
    them, are the whole ``n - t`` quorum and the ``k = 3`` blocks the
    verifiability check decodes."""
    simulator, servers, client, config = _network(
        crashed=1, commitment=commitment, scheduler=FifoScheduler())
    echoes = _sent(simulator, servers, MSG_ECHO)
    readys = _sent(simulator, servers, MSG_READY)
    disperse(client, "d", b"counted once, sent never", config)
    simulator.run()
    assert all("d" in s.completions for s in _honest(servers))
    digest = config.commitment_scheme.digest(
        servers[1].completions["d"][0])
    own = [message for message, _, _ in echoes
           if message.sender == message.recipient]
    assert len(own) == 3
    assert all(message.payload == (digest, client.pid, None, None)
               for message in own)
    first_ready = {}
    for message, echoers, consistent in readys:
        first_ready.setdefault(message.sender.index, (echoers, consistent))
    assert first_ready == {j: (frozenset({2, 3, 4}), True)
                           for j in (2, 3, 4)}


@pytest.mark.parametrize("commitment", ["vector", "merkle"])
def test_digest_named_messages_for_an_unknown_session_open_none(
        commitment):
    """Only a message naming ``D`` opens a session.  In Merkle mode the
    root is both ``D`` and ``H(D)``, so a blockless ready naming it opens
    one, as a ready amplifier's ``D``-named ready must."""
    simulator, servers, client, config = _network(
        crashed=1, commitment=commitment)
    scheme = config.commitment_scheme
    unknown, _ = scheme.commit(config.coder.encode(b"never dispersed"))
    digest = scheme.digest(unknown)
    byzantine = servers[0]
    byzantine.send_to_servers("d", MSG_ECHO, digest, client.pid, None,
                              None)
    byzantine.send_to_servers("d", MSG_READY, digest, client.pid, None,
                              None)
    for server in _honest(servers):
        server.send(server.pid, "d", MSG_ECHO, digest, client.pid, None,
                    None)
    simulator.run()
    for server in _honest(servers):
        keys = server.avid._instances["d"].keys
        if commitment == "vector":
            assert keys == {}
        else:
            assert list(keys) == [(digest, client.pid)]
            assert keys[(digest, client.pid)].echo_blocks == {}


@pytest.mark.parametrize("commitment", ["vector", "merkle"])
def test_blockless_echo_from_another_server_never_counts(commitment):
    """Only P2 gets its send, so nothing completes and every recorded
    echo stays visible: P2's alone, whatever P1 sends without a block."""
    simulator, servers, client, config = _network(
        crashed=1, commitment=commitment, scheduler=FifoScheduler())
    scheme = config.commitment_scheme
    blocks = config.coder.encode(b"one send only")
    commitment_value, witnesses = scheme.commit(blocks)
    client.send(server_id(2), "d", MSG_SEND, commitment_value, blocks[1],
                witnesses[1])
    byzantine = servers[0]
    for name in (scheme.digest(commitment_value), commitment_value):
        byzantine.send_to_servers("d", MSG_ECHO, name, client.pid, None,
                                  None)
    simulator.run()
    for server in _honest(servers):
        (state,) = server.avid._instances["d"].keys.values()
        assert set(state.echo_blocks) == {2}


class _ContentSpy(TraceRecorder):
    """A recorder that also keeps what each sent message carried (a kv
    host's inner sends as the messages they stand for)."""

    def __init__(self):
        super().__init__()
        self.contents = {}

    def on_send(self, sender, sends, pending):
        for message, _, _, _ in sends:
            self.contents[message.msg_id] = (message.tag, message.mtype,
                                             message.payload)
        super().on_send(sender, sends, pending)


def _traced_atomic_run(plane, seed, commitment="vector"):
    spy = _ContentSpy()
    if plane == "register":
        run_register_case("atomic", 4, 1, seed=seed, commitment=commitment,
                          tracer=spy)
    else:
        cluster = build_kv_cluster(
            KvDirectory(SystemConfig(n=4, t=1, commitment=commitment), 2),
            num_sessions=2, scheduler=RandomScheduler(seed))
        spy.attach(cluster.simulator)
        drive(cluster, kv_workload(num_sessions=2, num_keys=4, ops=12,
                                   seed=seed), seed=seed)
    return spy


@pytest.mark.parametrize("plane", ["register", "kv"])
@pytest.mark.parametrize("commitment", ["vector", "merkle"])
@pytest.mark.parametrize("seed", [0, 5])
def test_every_send_and_ready_is_stamped_with_its_exact_size(
        plane, commitment, seed):
    """``send`` and ``ready`` sizes are stamped by their sender, not
    re-derived: in a traced ``atomic`` run every ``avid-send`` and
    ``avid-ready`` record's ``wire_bytes`` is what its content sizes
    to — digest-form, plain and personalized copies alike."""
    spy = _traced_atomic_run(plane, seed, commitment)
    records = [record for record in spy.messages.values()
               if record.mtype in (MSG_SEND, MSG_READY)]
    forms = {(record.mtype, type(spy.contents[record.msg_id][2][0]),
              spy.contents[record.msg_id][2][-2] is None)
             for record in records}
    if commitment == "vector":
        assert {(MSG_SEND, tuple, False), (MSG_READY, bytes, True),
                (MSG_READY, tuple, False)} <= forms
    for record in records:
        assert record.wire_bytes == content_wire_size(
            *spy.contents[record.msg_id])


@pytest.mark.parametrize("plane", ["register", "kv"])
def test_a_ready_sizes_its_digest_form_copies_once(plane, monkeypatch):
    """The ``(H(D), client, None, None)`` copies of one ready are all
    alike, so one ``_send_ready`` walks that content at most once."""
    walks, per_ready = [], []
    real_size = message_module.encoded_size

    def counting_size(value):
        _, mtype, payload = value
        if mtype == MSG_READY and isinstance(payload[0], bytes):
            walks.append(payload)
        return real_size(value)

    real_send_ready = AvidServer._send_ready

    def send_ready(server, *args):
        before = len(walks)
        real_send_ready(server, *args)
        per_ready.append(len(walks) - before)

    monkeypatch.setattr(message_module, "encoded_size", counting_size)
    monkeypatch.setattr(AvidServer, "_send_ready", send_ready)
    _traced_atomic_run(plane, seed=3)
    assert per_ready and max(per_ready) == 1
