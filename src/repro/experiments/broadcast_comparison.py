"""Experiment F12 — broadcasting large values: Bracha vs AVID-RBC.

The paper's substrate choice in context: Bracha's reliable broadcast
carries the value in every echo and ready (``O(n^2 |F|)`` bits), which is
fine for the timestamps Protocol Atomic broadcasts but ruinous for bulk
data.  The cited AVID-RBC scheme (dispersal + one block-exchange round)
delivers the *full value at every server* for ``O(n |F|)`` bits.  This
experiment broadcasts the same value both ways and reports total bytes;
the ratio should grow linearly with ``n``.

(This is also exactly why Protocol Atomic disperses ``F`` and broadcasts
only ``ts``: the expensive full-value delivery is avoided entirely —
servers *store* a block each, never the whole value.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.broadcast.reliable import ReliableBroadcastServer, r_broadcast
from repro.broadcast.verifiable import (
    VerifiableBroadcastServer,
    v_broadcast,
)
from repro.common.ids import client_id, server_id
from repro.config import SystemConfig
from repro.experiments.common import fmt_bytes, render_table
from repro.net.process import Process
from repro.net.schedulers import RandomScheduler
from repro.net.simulator import Simulator


class _BrachaHost(Process):
    def __init__(self, pid, config):
        super().__init__(pid)
        self.delivered = {}
        self.rbc = ReliableBroadcastServer(self, config, self._deliver)

    def _deliver(self, tag, origin, value):
        self.delivered[tag] = value


class _VrbcHost(Process):
    def __init__(self, pid, config):
        super().__init__(pid)
        self.delivered = {}
        self.vrbc = VerifiableBroadcastServer(self, config, self._deliver)

    def _deliver(self, tag, client, value):
        self.delivered[tag] = value


@dataclass
class BroadcastRow:
    n: int
    value_size: int
    bracha_bytes: int
    avid_rbc_bytes: int

    @property
    def ratio(self) -> float:
        return self.bracha_bytes / max(1, self.avid_rbc_bytes)


def _measure(host_cls, send, n: int, t: int, value: bytes,
             seed: int) -> int:
    config = SystemConfig(n=n, t=t)
    simulator = Simulator(scheduler=RandomScheduler(seed))
    hosts = [simulator.add_process(host_cls(server_id(j), config))
             for j in range(1, n + 1)]
    sender = simulator.add_process(Process(client_id(1)))
    send(sender, "bc", value, config)
    simulator.run()
    for host in hosts:
        assert host.delivered.get("bc") == value
    return simulator.metrics.total_bytes


def run(ts: Sequence[int] = (1, 2, 3, 4), value_size: int = 16384,
        seed: int = 0) -> List[BroadcastRow]:
    """Execute the experiment sweep; returns structured result rows."""
    value = bytes(i % 251 for i in range(value_size))
    rows = []
    for t in ts:
        n = 3 * t + 1
        bracha = _measure(
            _BrachaHost,
            lambda sender, tag, val, cfg: r_broadcast(sender, tag, val),
            n, t, value, seed)
        avid_rbc = _measure(_VrbcHost, v_broadcast, n, t, value, seed)
        rows.append(BroadcastRow(n=n, value_size=value_size,
                                 bracha_bytes=bracha,
                                 avid_rbc_bytes=avid_rbc))
    return rows


def render(rows: List[BroadcastRow]) -> str:
    """Render result rows as the printable table."""
    headers = ["n", "|F|", "Bracha bytes", "AVID-RBC bytes",
               "ratio (Bracha / AVID-RBC)"]
    body = [[row.n, fmt_bytes(row.value_size),
             fmt_bytes(row.bracha_bytes), fmt_bytes(row.avid_rbc_bytes),
             f"{row.ratio:.2f}x"] for row in rows]
    return render_table(
        headers, body,
        title="F12: broadcasting a large value — Bracha O(n^2|F|) vs "
              "AVID-RBC O(n|F|)")


if __name__ == "__main__":
    from repro.experiments.battery import run_battery
    run_battery(["F12"])
