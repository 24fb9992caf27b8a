"""Experiment F13 — registers without consensus vs registers on atomic
broadcast (§3.4).

The paper's protocols deliberately avoid consensus: registers are
implementable in a fully asynchronous system deterministically, while
atomic broadcast requires randomization (FLP) and pays a consensus round
per operation.  This experiment builds both — Protocol AtomicNS and the
same register serialized by the full randomized stack (reliable
broadcast + threshold-coin binary agreement + common subset) — and
measures messages, bytes, and latency rounds per isolated operation.

Expected shape: the consensus register costs several times more messages
per *write* and an order of magnitude more per *read* (reads must also
be ordered), with higher and variable round latency (expected-constant
coin rounds), and replicates fully (storage blow-up ``n``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.cluster import build_cluster
from repro.config import SystemConfig
from repro.experiments.common import fmt_bytes, render_table
from repro.net.schedulers import RandomScheduler
from repro.workloads.generator import make_values

TAG = "reg"


@dataclass
class ConsensusRow:
    protocol: str
    n: int
    write_messages: int
    write_bytes: int
    write_rounds: int
    read_messages: int
    read_bytes: int
    read_rounds: int


def _measure(protocol: str, n: int, t: int, value_size: int,
             seed: int) -> ConsensusRow:
    config = SystemConfig(n=n, t=t, seed=seed)
    cluster = build_cluster(config, protocol=protocol, num_clients=1,
                            scheduler=RandomScheduler(seed))
    prime, target = make_values(2, size=value_size)
    cluster.write(1, TAG, "prime", prime)
    cluster.run()
    metrics = cluster.simulator.metrics
    before = metrics.snapshot()
    write = cluster.write(1, TAG, "w", target)
    cluster.run()
    mid = metrics.snapshot()
    read = cluster.read(1, TAG, "r")
    cluster.run()
    after = metrics.snapshot()
    return ConsensusRow(
        protocol=protocol, n=n,
        write_messages=mid[0] - before[0],
        write_bytes=mid[1] - before[1],
        write_rounds=write.latency_rounds,
        read_messages=after[0] - mid[0],
        read_bytes=after[1] - mid[1],
        read_rounds=read.latency_rounds)


def run(ts: Sequence[int] = (1, 2), value_size: int = 1024,
        seed: int = 0) -> List[ConsensusRow]:
    """Execute the experiment sweep; returns structured result rows."""
    rows = []
    for t in ts:
        n = 3 * t + 1
        for protocol in ("atomic_ns", "abc"):
            rows.append(_measure(protocol, n, t, value_size, seed))
    return rows


def render(rows: List[ConsensusRow]) -> str:
    """Render result rows as the printable table."""
    headers = ["protocol", "n", "write msgs", "write bytes",
               "write rounds", "read msgs", "read bytes", "read rounds"]
    body = [[row.protocol, row.n, row.write_messages,
             fmt_bytes(row.write_bytes), row.write_rounds,
             row.read_messages, fmt_bytes(row.read_bytes),
             row.read_rounds] for row in rows]
    return render_table(
        headers, body,
        title="F13: consensus-free register (atomic_ns) vs register on "
              "atomic broadcast (abc)")


if __name__ == "__main__":
    from repro.experiments.battery import run_battery
    run_battery(["F13"])
