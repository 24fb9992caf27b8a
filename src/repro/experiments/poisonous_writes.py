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
from typing import List, Sequence

from repro.cluster import build_cluster
from repro.config import SystemConfig
from repro.experiments.common import render_table
from repro.faults.byzantine_clients import (
    InconsistentDisperser,
    PoisonousGoodsonWriter,
)
from repro.net.schedulers import RandomScheduler
from repro.workloads.generator import make_values

TAG = "reg"


@dataclass
class PoisonRow:
    protocol: str
    poisonous_writes: int
    read_messages: int
    rollback_rounds: int
    poison_took_effect: bool


def _poison_effected(cluster, oids) -> bool:
    accepted = {event.payload[0]
                for event in cluster.simulator.event_log
                if event.kind == "out"
                and event.action == "write-accepted" and event.payload}
    return any(oid in accepted for oid in oids)


def run(counts: Sequence[int] = (0, 1, 2, 4, 8), t: int = 1,
        seed: int = 0, value_size: int = 512) -> List[PoisonRow]:
    """Execute the experiment sweep; returns structured result rows."""
    rows = []
    garbage = make_values(2, size=value_size, prefix=b"garbage")
    honest_value = make_values(1, size=value_size, prefix=b"honest")[0]

    for count in counts:
        # --- Goodson et al.: poison is stored, reads roll back ------------
        config = SystemConfig(n=4 * t + 1, t=t, seed=seed)
        cluster = build_cluster(
            config, protocol="goodson", num_clients=2,
            scheduler=RandomScheduler(seed),
            client_overrides={
                2: lambda pid, cfg: PoisonousGoodsonWriter(pid, cfg)})
        cluster.write(1, TAG, "honest", honest_value)
        oids = []
        for index in range(count):
            oid = f"poison{index}"
            oids.append(oid)
            # Monotonically increasing timestamps stack the poison on top.
            cluster.client(2).attack_write(TAG, oid, 100 + index, garbage)
        cluster.run()
        before = cluster.simulator.metrics.snapshot()
        read = cluster.read(1, TAG, "probe")
        cluster.run()
        after = cluster.simulator.metrics.snapshot()
        assert read.result == honest_value
        reader = cluster.client(1)
        rows.append(PoisonRow(
            protocol="goodson", poisonous_writes=count,
            read_messages=after[0] - before[0],
            rollback_rounds=reader.rollback_counts.get("probe", 0),
            poison_took_effect=_poison_effected(cluster, oids)))

        # --- AtomicNS: poison is rejected at write time --------------------
        config = SystemConfig(n=3 * t + 1, t=t, seed=seed)
        cluster = build_cluster(
            config, protocol="atomic_ns", num_clients=2,
            scheduler=RandomScheduler(seed),
            client_overrides={
                2: lambda pid, cfg: InconsistentDisperser(pid, cfg)})
        cluster.write(1, TAG, "honest", honest_value)
        oids = []
        for index in range(count):
            oid = f"poison{index}"
            oids.append(oid)
            cluster.client(2).attack_write(TAG, oid, garbage, ts=index)
        cluster.run()
        before = cluster.simulator.metrics.snapshot()
        read = cluster.read(1, TAG, "probe")
        cluster.run()
        after = cluster.simulator.metrics.snapshot()
        assert read.result == honest_value
        rows.append(PoisonRow(
            protocol="atomic_ns", poisonous_writes=count,
            read_messages=after[0] - before[0], rollback_rounds=0,
            poison_took_effect=_poison_effected(cluster, oids)))
    return rows


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
