"""Experiment F3 — message complexity versus system size.

Measures messages per isolated operation as ``n`` grows.  Expected shape
(Section 3.5): the erasure-coded protocols pay ``O(n^2)`` messages per
write (Disperse echo/ready rounds, the broadcast, and — for AtomicNS —
the signature-share round) and ``O(n)`` per read; the replication
baselines pay ``O(n)`` for both.  Fitting the measured write counts
against ``n^2`` should give a near-constant coefficient for Atomic(NS)
and a vanishing one for Martin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.experiments.common import measure_isolated_costs, render_table

PROTOCOLS = ("atomic", "atomic_ns", "martin")


@dataclass
class MessageRow:
    protocol: str
    n: int
    t: int
    write_messages: int
    read_messages: int

    @property
    def write_per_n2(self) -> float:
        return self.write_messages / (self.n * self.n)

    @property
    def read_per_n(self) -> float:
        return self.read_messages / self.n


def run(ts: Sequence[int] = (1, 2, 3, 4, 5), value_size: int = 1024,
        seed: int = 0) -> List[MessageRow]:
    """Execute the experiment sweep; returns structured result rows."""
    rows = []
    for protocol in PROTOCOLS:
        for t in ts:
            n = 3 * t + 1
            measured = measure_isolated_costs(
                protocol, n=n, t=t, value_size=value_size, seed=seed)
            rows.append(MessageRow(
                protocol=protocol, n=n, t=t,
                write_messages=measured.write.messages,
                read_messages=measured.read.messages))
    return rows


def render(rows: List[MessageRow]) -> str:
    """Render result rows as the printable table."""
    headers = ["protocol", "n", "write msgs", "write msgs / n^2",
               "read msgs", "read msgs / n"]
    body = [[row.protocol, row.n, row.write_messages,
             f"{row.write_per_n2:.2f}", row.read_messages,
             f"{row.read_per_n:.2f}"] for row in rows]
    return render_table(
        headers, body,
        title="F3: message complexity vs n "
              "(write ~ c*n^2 for erasure-coded, ~ c*n for replication)")


def coefficients(rows: List[MessageRow]) -> Dict[str, List[float]]:
    """Per-protocol series of ``write_messages / n^2`` (flat series mean
    a genuine quadratic law)."""
    series: Dict[str, List[float]] = {}
    for row in rows:
        series.setdefault(row.protocol, []).append(row.write_per_n2)
    return series


if __name__ == "__main__":
    from repro.experiments.battery import run_battery
    run_battery(["F3"])
