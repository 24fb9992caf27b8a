"""Experiment F6 — read cost after inconsistent (poisonous) writes.

The paper's core argument against read-time validation (Section 1.1):
with Goodson et al., "retrieving data can be very inefficient in the case
of several faulty write operations" — every poisonous version a Byzantine
writer stored costs every subsequent read one rollback round trip.  With
verifiable dispersal (Protocols Atomic/AtomicNS), inconsistency is
rejected at *write* time: the dispersal never completes, nothing is
stored, and read cost is flat no matter how many inconsistent writes were
attempted.

Measures, as a function of the number ``w`` of inconsistent write
attempts: messages per subsequent read, rollback rounds (Goodson), and
whether any inconsistent write took effect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.analysis.history import effected_writes
from repro.cluster import build_cluster, protocol_classes
from repro.config import SystemConfig
from repro.core.register import OperationHandle
from repro.experiments.common import measure_operation, render_table
from repro.faults.byzantine_clients import byzantine_client
from repro.net.schedulers import FifoScheduler, RandomScheduler
from repro.workloads.generator import make_values

TAG = "reg"


@dataclass
class PoisonRow:
    protocol: str
    poisonous_writes: int
    read_messages: int
    rollback_rounds: int
    poison_took_effect: bool


def poisoned_read(protocol: str, count: int, t: int = 1, seed: int = 0,
                  value_size: int = 512) -> Tuple[PoisonRow, OperationHandle]:
    """An honest write, ``count`` poisonous writes by a Byzantine client,
    then a probe read under FIFO delivery; returns the row and the probe
    read's handle.

    Against ``goodson`` (``n = 4t+1``) the poison is stored and stacked
    by increasing timestamps, so the read rolls back past each version;
    against ``atomic_ns`` (``n = 3t+1``) the inconsistent dispersals
    never complete and nothing is stored.
    """
    garbage = make_values(1, size=value_size, prefix=b"garbage")[0]
    honest_value = make_values(1, size=value_size, prefix=b"honest")[0]
    goodson = protocol == "goodson"
    config = SystemConfig(n=(4 if goodson else 3) * t + 1, t=t, seed=seed)
    writer = byzantine_client(protocol_classes(protocol)[1],
                              "poison" if goodson else
                              "inconsistent-dispersal")
    cluster = build_cluster(config, protocol=protocol, num_clients=2,
                            scheduler=RandomScheduler(seed),
                            client_overrides={2: writer})
    cluster.write(1, TAG, "honest", honest_value)
    oids = [f"poison{index}" for index in range(count)]
    for oid in oids:
        cluster.client(2).invoke_write(TAG, oid, garbage)
    cluster.run()
    # The probe read runs alone under FIFO delivery, so its cost is the
    # protocol's, not that of whatever random schedule the attack left.
    cluster.simulator.scheduler = FifoScheduler()
    read, cost = measure_operation(cluster,
                                   lambda: cluster.read(1, TAG, "probe"))
    assert read.result == honest_value
    return PoisonRow(
        protocol=protocol, poisonous_writes=count,
        read_messages=cost.messages,
        rollback_rounds=cluster.client(1).rollback_counts.get("probe", 0)
        if goodson else 0,
        poison_took_effect=bool(effected_writes(cluster, TAG)
                                & set(oids))), read


def run(counts: Sequence[int] = (0, 1, 2, 4, 8), t: int = 1,
        seed: int = 0, value_size: int = 512) -> List[PoisonRow]:
    """Execute the experiment sweep; returns structured result rows."""
    return [poisoned_read(protocol, count, t, seed, value_size)[0]
            for count in counts for protocol in ("goodson", "atomic_ns")]


def render(rows: List[PoisonRow]) -> str:
    """Render result rows as the printable table."""
    headers = ["protocol", "poisonous writes", "read msgs",
               "rollback rounds", "poison stored?"]
    body = [[row.protocol, row.poisonous_writes, row.read_messages,
             row.rollback_rounds,
             "yes" if row.poison_took_effect else "no"] for row in rows]
    return render_table(
        headers, body,
        title="F6: read cost after inconsistent writes "
              "(read-time rollback vs write-time verification)")


if __name__ == "__main__":
    from repro.experiments.battery import run_battery
    run_battery(["F6"])
