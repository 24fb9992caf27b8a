"""Experiment F1 — storage blow-up versus system size.

The storage-efficiency claim: erasure-coded registers store
``n / k = n / (n - t)`` times the value size across all servers, versus
``n`` for replication.  At minimal deployments (``n = 3t + 1``,
``k = n - t = 2t + 1``) the blow-up stays below 2 and tends to ~1.5,
while replication grows linearly with ``n``.

Also sweeps ``k`` at fixed ``n`` to show the storage/erasure-threshold
trade-off (``k = 1`` degenerates to replication-level storage).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.experiments.common import measure_isolated_costs, render_table


@dataclass
class BlowupRow:
    protocol: str
    n: int
    t: int
    k: Optional[int]
    measured_blowup: float
    predicted_blowup: float


def run(ts: Sequence[int] = (1, 2, 3, 4, 5),
        value_size: int = 8192, seed: int = 0) -> List[BlowupRow]:
    """Execute the experiment sweep; returns structured result rows."""
    rows = []
    for t in ts:
        n = 3 * t + 1
        k = n - t
        measured = measure_isolated_costs("atomic_ns", n=n, t=t, k=k,
                                          value_size=value_size, seed=seed)
        rows.append(BlowupRow(protocol="atomic_ns", n=n, t=t, k=k,
                              measured_blowup=measured.storage_blowup,
                              predicted_blowup=n / k))
        martin = measure_isolated_costs("martin", n=n, t=t,
                                        value_size=value_size, seed=seed)
        rows.append(BlowupRow(protocol="martin", n=n, t=t, k=None,
                              measured_blowup=martin.storage_blowup,
                              predicted_blowup=float(n)))
    return rows


def run_k_sweep(n: int = 10, t: int = 3, value_size: int = 8192,
                seed: int = 0) -> List[BlowupRow]:
    """Blow-up at fixed ``(n, t)`` for every admissible ``k``."""
    rows = []
    for k in range(1, n - t + 1):
        measured = measure_isolated_costs("atomic_ns", n=n, t=t, k=k,
                                          value_size=value_size, seed=seed)
        rows.append(BlowupRow(protocol="atomic_ns", n=n, t=t, k=k,
                              measured_blowup=measured.storage_blowup,
                              predicted_blowup=n / k))
    return rows


def render(rows: List[BlowupRow], title: str = "F1: storage blow-up vs n "
           "(erasure coding vs replication)") -> str:
    """Render result rows as the printable table."""
    headers = ["protocol", "n", "t", "k", "blow-up measured",
               "blow-up predicted"]
    body = [[row.protocol, row.n, row.t,
             row.k if row.k is not None else "-",
             f"{row.measured_blowup:.2f}x", f"{row.predicted_blowup:.2f}x"]
            for row in rows]
    return render_table(headers, body, title=title)


def render_k_sweep(rows: List[BlowupRow]) -> str:
    """Render :func:`run_k_sweep` rows (one ``(n, t)``) as the F1b table."""
    return render(rows, title=f"F1b: storage blow-up vs erasure threshold k "
                              f"(n={rows[0].n}, t={rows[0].t})")


if __name__ == "__main__":
    from repro.experiments.battery import run_battery
    run_battery(["F1"])
