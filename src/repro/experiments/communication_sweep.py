"""Experiment F2 — communication complexity versus value size.

Sweeps ``|F|`` and reports per-operation bytes for AtomicNS (erasure
coded, with both hash-vector and Merkle commitments), Martin et al.
(replication), and Goodson et al.  Expected shape:

* **reads**: erasure-coded protocols transfer ``~ n/k · |F|`` ≈ ``1.5|F|``
  per read, replication ``n·|F|`` — erasure coding wins by ``~ k`` for
  large values; for tiny values fixed overheads (hash vectors) dominate
  and replication is cheaper, giving a crossover in ``|F|``.
* **writes**: Disperse's echo/ready rounds cost ``~ 2 n/k · n |F|/n``;
  the hash-vector term ``n^3 H`` dominates small values and is reduced by
  the Merkle-tree variant (Section 2.3's optimization).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.experiments.common import (
    fmt_bytes,
    measure_isolated_costs,
    render_table,
)

#: (label, protocol, commitment)
VARIANTS: Tuple = (
    ("atomic_ns/vector", "atomic_ns", "vector"),
    ("atomic_ns/merkle", "atomic_ns", "merkle"),
    ("martin", "martin", "vector"),
    ("goodson", "goodson", "vector"),
)


@dataclass
class SweepPoint:
    label: str
    value_size: int
    write_bytes: int
    read_bytes: int


def run(n: int = 7, t: int = 2,
        value_sizes: Sequence[int] = (64, 512, 4096, 32768, 262144),
        seed: int = 0) -> List[SweepPoint]:
    """Execute the experiment sweep; returns structured result rows."""
    points = []
    for label, protocol, commitment in VARIANTS:
        # The n > 4t baselines need a bigger cluster at the same t.
        protocol_n = n if protocol != "goodson" else max(n, 4 * t + 1)
        for value_size in value_sizes:
            measured = measure_isolated_costs(
                protocol, n=protocol_n, t=t, value_size=value_size,
                seed=seed, commitment=commitment)
            points.append(SweepPoint(
                label=label, value_size=value_size,
                write_bytes=measured.write.message_bytes,
                read_bytes=measured.read.message_bytes))
    return points


def render(points: List[SweepPoint]) -> str:
    """Render result rows as the printable table."""
    value_sizes = sorted({point.value_size for point in points})
    labels = []
    for point in points:
        if point.label not in labels:
            labels.append(point.label)
    headers = ["|F|"] + [f"{label} write/read" for label in labels]
    by_key = {(point.label, point.value_size): point for point in points}
    body = []
    for value_size in value_sizes:
        row = [fmt_bytes(value_size)]
        for label in labels:
            point = by_key[(label, value_size)]
            row.append(f"{fmt_bytes(point.write_bytes)} / "
                       f"{fmt_bytes(point.read_bytes)}")
        body.append(row)
    return render_table(
        headers, body,
        title="F2: per-operation communication vs value size (n=7, t=2)")


def read_crossover(points: List[SweepPoint], erasure: str =
                   "atomic_ns/vector", replicated: str = "martin") -> int:
    """Smallest swept ``|F|`` at which the erasure-coded read is cheaper
    than the replicated read (0 if never)."""
    by_key = {(point.label, point.value_size): point for point in points}
    for value_size in sorted({p.value_size for p in points}):
        erasure_point = by_key.get((erasure, value_size))
        replicated_point = by_key.get((replicated, value_size))
        if erasure_point and replicated_point and \
                erasure_point.read_bytes < replicated_point.read_bytes:
            return value_size
    return 0


def render_crossover(crossover: int) -> str:
    """The :func:`read_crossover` result as one printable line."""
    return (f"read-cost crossover (erasure beats replication): "
            f"|F| >= {fmt_bytes(crossover) if crossover else 'never'}")


if __name__ == "__main__":
    from repro.experiments.battery import run_battery
    run_battery(["F2"])
