"""Experiment F7 — wait-free reads under concurrent writes.

The listeners mechanism guarantees that reads terminate regardless of
concurrent write activity (wait-freedom, Definition 1's liveness).  This
experiment drives ``c`` writers concurrently with readers under a random
adversarial schedule and reports: operation termination (must be 100%),
atomicity (the history must linearize), and the extra ``value`` messages
a read receives because concurrent writes keep feeding its listeners —
the cost of concurrency the paper bounds with ``|L|``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.analysis.history import HistoryRecorder
from repro.cluster import build_cluster
from repro.config import SystemConfig
from repro.core.atomic import MSG_VALUE
from repro.experiments.common import render_table
from repro.net.schedulers import RandomScheduler
from repro.workloads.generator import (
    WorkloadOp,
    random_workload,
    run_workload,
)

TAG = "reg"


@dataclass
class ConcurrencyRow:
    protocol: str
    writers: int
    operations: int
    all_terminated: bool
    atomic: bool
    value_messages_per_read: float


def run(writer_counts: Sequence[int] = (1, 2, 3, 4), readers: int = 4,
        writes_per_writer: int = 2, protocol: str = "atomic_ns",
        n: int = 4, t: int = 1, seed: int = 0) -> List[ConcurrencyRow]:
    """Execute the experiment sweep; returns structured result rows."""
    rows = []
    for writers in writer_counts:
        clients = writers + 1  # last client is the dedicated reader
        config = SystemConfig(n=n, t=t, seed=seed)
        cluster = build_cluster(config, protocol=protocol,
                                num_clients=clients,
                                scheduler=RandomScheduler(seed))
        operations = random_workload(
            writers, writes=writers * writes_per_writer, reads=0,
            seed=seed)
        operations += [
            WorkloadOp(client_index=clients, kind="read", oid=f"r{i}")
            for i in range(readers)]
        handles = run_workload(cluster, TAG, operations, seed=seed,
                               invoke_probability=0.05)
        atomic = True
        try:
            HistoryRecorder(cluster, TAG).check()
        except Exception:
            atomic = False
        # the dedicated reader is the only party ever sent a value
        value_messages = cluster.simulator.metrics.messages_by_mtype(
            TAG).get(MSG_VALUE, 0)
        rows.append(ConcurrencyRow(
            protocol=protocol, writers=writers,
            operations=len(operations),
            all_terminated=all(handle.done
                               for handle in handles.values()),
            atomic=atomic,
            value_messages_per_read=value_messages / readers))
    return rows


def render(rows: List[ConcurrencyRow]) -> str:
    """Render result rows as the printable table."""
    headers = ["protocol", "concurrent writers", "ops", "all terminated",
               "atomic", "value msgs / read"]
    body = [[row.protocol, row.writers, row.operations,
             "yes" if row.all_terminated else "NO",
             "yes" if row.atomic else "NO",
             f"{row.value_messages_per_read:.1f}"] for row in rows]
    return render_table(
        headers, body,
        title="F7: wait-freedom and atomicity under concurrency")


def main() -> None:
    """Run the experiment at default scale and print its table(s)."""
    print(render(run()))


if __name__ == "__main__":
    main()
