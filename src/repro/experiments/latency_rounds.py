"""Experiment F10 — operation latency in message rounds.

In an asynchronous system the natural latency measure is the length of
the operation's critical path in message delays.  The simulator tracks
causal depth per message, so a completed operation reports exactly how
many sequential network hops it needed:

* replication (Martin et al.): write = 4 hops (``get-ts``/``ts`` round
  trip + ``store``/``ack``), read = 2;
* Protocol Atomic adds the Disperse/broadcast echo-ready rounds before
  servers accept: write = 6 hops;
* Protocol AtomicNS adds the signature-share exchange: write = 7 hops;
* Goodson et al. writes stay at 4 hops (no server interaction) — and its
  reads pay 2 extra hops per rollback, re-measured here per poison depth.

This quantifies the latency cost of write-time verifiability and
non-skipping timestamps: +2 and +3 round trips over bare replication,
independent of ``n`` and ``|F|``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.experiments.common import render_table, run_isolated_probe
from repro.experiments.poisonous_writes import poisoned_read

PROTOCOLS = ("martin", "goodson", "bazzi_ding", "atomic", "atomic_ns")


@dataclass
class LatencyRow:
    protocol: str
    n: int
    write_rounds: int
    read_rounds: int


def run(t: int = 1, seed: int = 0,
        protocols: Sequence[str] = PROTOCOLS) -> List[LatencyRow]:
    """Execute the experiment sweep; returns structured result rows."""
    rows = []
    for protocol in protocols:
        n = 3 * t + 1 if protocol in ("martin", "atomic", "atomic_ns") \
            else 4 * t + 1
        probe = run_isolated_probe(protocol, n, t, value_size=256,
                                   seed=seed)
        rows.append(LatencyRow(protocol=protocol, n=n,
                               write_rounds=probe.write.latency_rounds,
                               read_rounds=probe.read.latency_rounds))
    return rows


@dataclass
class RollbackLatencyRow:
    poisonous_writes: int
    read_rounds: int


def run_goodson_rollback_latency(counts: Sequence[int] = (0, 1, 2, 4),
                                 t: int = 1, seed: int = 0
                                 ) -> List[RollbackLatencyRow]:
    """Goodson read latency grows by one round trip per stacked poison
    (the probe read of F6's Goodson runs)."""
    return [RollbackLatencyRow(
        poisonous_writes=count,
        read_rounds=poisoned_read("goodson", count, t, seed)[1]
        .latency_rounds) for count in counts]


def render(rows: List[LatencyRow]) -> str:
    """Render result rows as the printable table."""
    headers = ["protocol", "n", "write rounds", "read rounds"]
    body = [[row.protocol, row.n, row.write_rounds, row.read_rounds]
            for row in rows]
    return render_table(
        headers, body,
        title="F10: operation latency in message rounds (isolated ops)")


def render_rollback(rows: List[RollbackLatencyRow]) -> str:
    """Render the rollback-latency rows as a printable table."""
    headers = ["poisonous writes", "goodson read rounds"]
    body = [[row.poisonous_writes, row.read_rounds] for row in rows]
    return render_table(
        headers, body,
        title="F10b: Goodson read latency vs stacked poison "
              "(+2 rounds per rollback)")


if __name__ == "__main__":
    from repro.experiments.battery import run_battery
    run_battery(["F10"])
