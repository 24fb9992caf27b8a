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

from repro.experiments.common import (
    fmt_bytes,
    render_table,
    run_isolated_probe,
)


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


def run(ts: Sequence[int] = (1, 2), value_size: int = 1024,
        seed: int = 0) -> List[ConsensusRow]:
    """Execute the experiment sweep; returns structured result rows."""
    rows = []
    for t in ts:
        n = 3 * t + 1
        for protocol in ("atomic_ns", "abc"):
            probe = run_isolated_probe(protocol, n, t,
                                       value_size=value_size, seed=seed)
            rows.append(ConsensusRow(
                protocol=protocol, n=n,
                write_messages=probe.write_cost.messages,
                write_bytes=probe.write_cost.message_bytes,
                write_rounds=probe.write.latency_rounds,
                read_messages=probe.read_cost.messages,
                read_bytes=probe.read_cost.message_bytes,
                read_rounds=probe.read.latency_rounds))
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
