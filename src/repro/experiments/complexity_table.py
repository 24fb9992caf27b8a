"""Experiment T2 — Section 3.5 complexity analysis, analytic vs measured.

For Protocol AtomicNS (the paper's full protocol), compares the
re-derived closed-form complexity expressions of
:class:`repro.analysis.complexity.ComplexityModel` against measured
values from the simulator, across deployment sizes and value sizes.
The prediction/measurement ratio should be O(1) (near 1.0) everywhere —
that is, the model captures the true growth in both ``n`` and ``|F|``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.analysis.complexity import ComplexityModel, Prediction
from repro.experiments.common import (
    IsolatedCosts,
    fmt_bytes,
    measure_isolated_costs,
    render_table,
)


@dataclass
class ComplexityRow:
    n: int
    t: int
    value_size: int
    predicted: Prediction
    measured: IsolatedCosts

    @property
    def write_bytes_ratio(self) -> float:
        return self.measured.write.message_bytes / \
            max(1, self.predicted.write_bytes)

    @property
    def read_bytes_ratio(self) -> float:
        return self.measured.read.message_bytes / \
            max(1, self.predicted.read_bytes)

    @property
    def write_messages_ratio(self) -> float:
        return self.measured.write.messages / \
            max(1, self.predicted.write_messages)


def run(ts: Sequence[int] = (1, 2, 3, 4),
        value_sizes: Sequence[int] = (1024, 16 * 1024, 131072),
        protocol: str = "atomic_ns",
        seed: int = 0) -> List[ComplexityRow]:
    """Execute the experiment sweep; returns structured result rows."""
    rows = []
    for t in ts:
        n = 3 * t + 1
        for value_size in value_sizes:
            model = ComplexityModel(n=n, t=t, value_size=value_size)
            predicted = getattr(model, protocol)()
            measured = measure_isolated_costs(
                protocol, n=n, t=t, value_size=value_size, seed=seed)
            rows.append(ComplexityRow(n=n, t=t, value_size=value_size,
                                      predicted=predicted,
                                      measured=measured))
    return rows


def render(rows: List[ComplexityRow]) -> str:
    """Render result rows as the printable table."""
    headers = ["n", "t", "|F|", "write msgs (meas/pred)",
               "write bytes (meas/pred)", "read bytes (meas/pred)",
               "storage/server"]
    body = []
    for row in rows:
        body.append([
            row.n, row.t, fmt_bytes(row.value_size),
            f"{row.measured.write.messages}/{row.predicted.write_messages}"
            f" ({row.write_messages_ratio:.2f})",
            f"{fmt_bytes(row.measured.write.message_bytes)}/"
            f"{fmt_bytes(row.predicted.write_bytes)}"
            f" ({row.write_bytes_ratio:.2f})",
            f"{fmt_bytes(row.measured.read.message_bytes)}/"
            f"{fmt_bytes(row.predicted.read_bytes)}"
            f" ({row.read_bytes_ratio:.2f})",
            fmt_bytes(row.measured.storage_per_server),
        ])
    return render_table(
        headers, body,
        title="T2: AtomicNS complexity — measured vs analytic model")


if __name__ == "__main__":
    from repro.experiments.battery import run_battery
    run_battery(["T2"])
