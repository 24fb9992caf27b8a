"""Standalone AVID storage: Disperse + Retrieve as a service."""

from repro.avid import AvidStorageClient, AvidStorageNode
from repro.common.ids import client_id, server_id
from repro.config import SystemConfig
from repro.faults.byzantine_servers import CrashServer
from repro.net.schedulers import RandomScheduler
from repro.net.simulator import Simulator


def _network(n=4, t=1, seed=0, commitment="vector", crashed=0):
    config = SystemConfig(n=n, t=t, commitment=commitment)
    simulator = Simulator(scheduler=RandomScheduler(seed))
    nodes = []
    for j in range(1, n + 1):
        if j <= crashed:
            nodes.append(simulator.add_process(
                CrashServer(server_id(j), config)))
        else:
            nodes.append(simulator.add_process(
                AvidStorageNode(server_id(j), config)))
    clients = [simulator.add_process(AvidStorageClient(client_id(i),
                                                       config))
               for i in (1, 2)]
    return simulator, nodes, clients, config


def test_disperse_then_retrieve():
    simulator, nodes, (writer, reader), _ = _network()
    writer.disperse("obj", b"stored once, read anywhere")
    simulator.run()
    handle = reader.retrieve("obj")
    simulator.run()
    assert handle.done
    assert handle.value == b"stored once, read anywhere"


def test_retrieve_missing_tag():
    simulator, nodes, (writer, reader), _ = _network()
    handle = reader.retrieve("never-stored")
    simulator.run()
    assert handle.done and handle.value is None


def test_retrieve_with_merkle_commitments():
    simulator, nodes, (writer, reader), _ = _network(commitment="merkle")
    writer.disperse("obj", b"merkle-committed " * 20)
    simulator.run()
    handle = reader.retrieve("obj")
    simulator.run()
    assert handle.value == b"merkle-committed " * 20


def test_retrieve_with_t_crashed_nodes():
    simulator, nodes, (writer, reader), _ = _network(crashed=1, seed=5)
    writer.disperse("obj", b"resilient blob")
    simulator.run()
    handle = reader.retrieve("obj")
    simulator.run()
    assert handle.value == b"resilient blob"


def test_multiple_objects():
    simulator, nodes, (writer, reader), _ = _network(seed=2)
    for index in range(5):
        writer.disperse(f"obj{index}", b"payload-%d" % index)
    simulator.run()
    handles = [reader.retrieve(f"obj{index}") for index in range(5)]
    simulator.run()
    for index, handle in enumerate(handles):
        assert handle.value == b"payload-%d" % index


def test_stored_tags_and_output_actions():
    simulator, nodes, (writer, _), _ = _network()
    writer.disperse("obj", b"x")
    simulator.run()
    honest = [node for node in nodes
              if isinstance(node, AvidStorageNode)]
    for node in honest:
        assert node.stored_tags() == ["obj"]
        assert node.storage_bytes() > 0
    stored_events = [event for event in simulator.event_log
                     if event.kind == "out" and event.action == "stored"]
    assert len(stored_events) == len(honest)
    assert all(event.payload[0] == writer.pid for event in stored_events)


def test_garbage_block_counts_toward_negative_verdict():
    """A Byzantine server answering with an *unverifiable* block must not
    delay the verdict past ``n - t`` replies: present-but-invalid blocks
    count toward the negative quorum exactly like explicit misses
    (previously they counted toward nothing, so the client waited for a
    fourth reply that the first three already made redundant)."""
    config = SystemConfig(n=4, t=1)
    simulator = Simulator()  # FIFO: replies arrive in server order
    nodes = [simulator.add_process(AvidStorageNode(server_id(j), config))
             for j in (1, 2, 3, 4)]
    writer = simulator.add_process(AvidStorageClient(client_id(1), config))
    reader = simulator.add_process(AvidStorageClient(client_id(2), config))
    # A real dispersal gives server 1 a structurally valid commitment and
    # witness to lie with ...
    writer.disperse("obj", b"legitimate value")
    simulator.run()
    commitment, block, witness = nodes[0].storage._stored["obj"]
    corrupted = bytes(byte ^ 0xFF for byte in block) or b"\x00"
    # ... which it serves, corrupted, for a tag nothing was stored under.
    nodes[0].storage.store("ghost", commitment, corrupted, witness)
    handle = reader.retrieve("ghost")
    simulator.run_until(lambda: handle.done)
    assert handle.value is None
    # The verdict landed on the first n - t = 3 replies (garbage + two
    # misses); the fourth server's reply is still in flight.
    assert simulator.pending_count > 0


def test_byzantine_node_cannot_corrupt_retrieval():
    """A corrupted node serving a bogus block is filtered by commitment
    verification at the reader."""

    class LyingNode(AvidStorageNode):
        def _on_complete(self, tag, commitment, client, block, witness):
            corrupted = bytes(byte ^ 0xFF for byte in block) or b"\x00"
            self.storage.store(tag, commitment, corrupted, witness)
            self.output(tag, "stored", client)

    config = SystemConfig(n=4, t=1)
    simulator = Simulator(scheduler=RandomScheduler(3))
    simulator.add_process(LyingNode(server_id(1), config))
    for j in (2, 3, 4):
        simulator.add_process(AvidStorageNode(server_id(j), config))
    writer = simulator.add_process(AvidStorageClient(client_id(1), config))
    reader = simulator.add_process(AvidStorageClient(client_id(2), config))
    writer.disperse("obj", b"truth")
    simulator.run()
    handle = reader.retrieve("obj")
    simulator.run()
    assert handle.value == b"truth"
