"""Experiment T1 — the protocol comparison table.

Reproduces the paper's headline comparison (Sections 1, 1.1, 3.5): for
each protocol — Martin et al., Goodson et al., Bazzi–Ding, and the paper's
Atomic / AtomicNS — the resilience bound, whether timestamps are
non-skipping, whether Byzantine clients are tolerated, and measured
storage blow-up plus isolated read/write costs at the protocol's minimal
deployment for a given ``t``.

Expected shape (the paper's claims):

* only Atomic/AtomicNS combine ``n > 3t`` with erasure-coded storage;
* only AtomicNS has non-skipping timestamps at optimal resilience;
* replication baselines pay storage blow-up ``n`` vs ``~ n / (n - t)``;
* the erasure-coded protocols pay more messages (server-to-server
  rounds), the replicated ones pay more bytes per read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis.complexity import ComplexityModel
from repro.experiments.common import (
    IsolatedCosts,
    fmt_bytes,
    measure_isolated_costs,
    render_table,
)

#: protocol -> minimal n as a function of t
MINIMAL_N = {
    "phalanx": lambda t: 4 * t + 1,
    "martin": lambda t: 3 * t + 1,
    "goodson": lambda t: 4 * t + 1,
    "bazzi_ding": lambda t: 4 * t + 1,
    "atomic": lambda t: 3 * t + 1,
    "atomic_ns": lambda t: 3 * t + 1,
}


@dataclass
class ComparisonRow:
    protocol: str
    n: int
    resilience: str
    consistency: str
    non_skipping: bool
    byzantine_clients: bool
    measured: IsolatedCosts


def run(t: int = 1, value_size: int = 4096, seed: int = 0
        ) -> List[ComparisonRow]:
    """Measure every protocol at its minimal ``n`` for this ``t``."""
    rows = []
    for protocol, minimal_n in MINIMAL_N.items():
        n = minimal_n(t)
        model = ComplexityModel(n=n, t=t, value_size=value_size)
        prediction = getattr(model, protocol)()
        measured = measure_isolated_costs(protocol, n=n, t=t,
                                          value_size=value_size, seed=seed)
        rows.append(ComparisonRow(
            protocol=protocol, n=n, resilience=prediction.resilience,
            consistency=prediction.consistency,
            non_skipping=prediction.non_skipping,
            byzantine_clients=prediction.byzantine_clients,
            measured=measured))
    return rows


def render(rows: List[ComparisonRow]) -> str:
    """Render result rows as the printable table."""
    headers = ["protocol", "resilience", "n", "semantics", "non-skip",
               "byz clients", "storage blow-up", "write msgs",
               "write bytes", "read msgs", "read bytes"]
    body = []
    for row in rows:
        body.append([
            row.protocol, row.resilience, row.n, row.consistency,
            "yes" if row.non_skipping else "no",
            "yes" if row.byzantine_clients else "no",
            f"{row.measured.storage_blowup:.2f}x",
            row.measured.write.messages,
            fmt_bytes(row.measured.write.message_bytes),
            row.measured.read.messages,
            fmt_bytes(row.measured.read.message_bytes),
        ])
    title = (f"T1: protocol comparison at t={rows[0].measured.t}, "
             f"|F|={rows[0].measured.value_size} B "
             f"(measured, isolated operations)")
    return render_table(headers, body, title=title)


if __name__ == "__main__":
    from repro.experiments.battery import run_battery
    run_battery(["T1"])
