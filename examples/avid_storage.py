"""Standalone AVID storage: write-once verifiable dispersal + retrieval.

The substrate below the register protocols is a storage system in its own
right (Cachin–Tessaro's AVID): disperse a file once, store one block per
server, retrieve from any ``n − t`` responders — with write-time
verifiability, so a malicious writer cannot plant inconsistent data.

Run:  python examples/avid_storage.py
"""

import os

from repro import RandomScheduler, Simulator, SystemConfig
from repro.avid import AvidStorageClient, AvidStorageNode
from repro.common.ids import client_id, server_id
from repro.net.process import Process


def main() -> None:
    config = SystemConfig(n=4, t=1)
    simulator = Simulator(scheduler=RandomScheduler(21))
    nodes = [simulator.add_process(AvidStorageNode(server_id(j), config))
             for j in range(1, 5)]
    writer = simulator.add_process(AvidStorageClient(client_id(1), config))
    reader = simulator.add_process(AvidStorageClient(client_id(2), config))
    attacker = simulator.add_process(Process(client_id(3)))

    # Disperse a file: each server ends up with one erasure-code block.
    payload = os.urandom(30_000)
    writer.disperse("files/report.pdf", payload)
    simulator.run()
    per_node = nodes[0].storage_bytes()
    print(f"dispersed {len(payload)} B; each node stores ~{per_node} B "
          f"(1/{config.k} + commitment)")

    # Retrieve from a different client.
    handle = reader.retrieve("files/report.pdf")
    simulator.run()
    assert handle.value == payload
    print("retrieved and verified against the commitment")

    # A malicious writer cannot store inconsistent blocks: the servers'
    # decode/re-encode check refuses to complete the dispersal.
    from repro.avid.disperse import MSG_SEND
    blocks_a = config.coder.encode(b"A" * 100)
    blocks_b = config.coder.encode(b"B" * 100)
    mixed = [blocks_a[0], blocks_b[1], blocks_a[2], blocks_b[3]]
    commitment, witnesses = config.commitment_scheme.commit(mixed)
    for index, server in enumerate(simulator.server_pids, start=1):
        attacker.send(server, "files/evil.bin", MSG_SEND, commitment,
                      mixed[index - 1], witnesses[index - 1])
    simulator.run()
    probe = reader.retrieve("files/evil.bin")
    simulator.run()
    assert probe.value is None
    print("inconsistent dispersal rejected at write time: "
          "nothing was stored under files/evil.bin")

    stored = nodes[0].stored_tags()
    print(f"node P1 stores exactly: {stored}")


if __name__ == "__main__":
    main()
