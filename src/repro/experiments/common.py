"""Shared measurement utilities for the experiment harness.

Every experiment follows the same pattern: build a cluster, run a
workload, and report *measured* message/communication/storage complexity —
optionally next to the analytic prediction of
:mod:`repro.analysis.complexity`.  Operation costs are isolated by
differencing metric snapshots around a single operation
(:func:`measure_operation`), exactly matching the paper's per-instance
complexity definitions; :func:`run_isolated_probe` is the one "prime,
isolated write, isolated read" run every such measurement starts from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from repro.cluster import Cluster, build_cluster
from repro.config import SystemConfig
from repro.core.register import OperationHandle
from repro.net.schedulers import RandomScheduler
from repro.workloads.generator import make_values


@dataclass(frozen=True)
class OperationCost:
    """Measured cost of one isolated operation."""

    messages: int
    message_bytes: int


@dataclass
class IsolatedCosts:
    """Measured costs of an isolated write and read plus server storage."""

    protocol: str
    n: int
    t: int
    k: Optional[int]
    value_size: int
    write: OperationCost
    read: OperationCost
    storage_per_server: float
    storage_blowup: float


@dataclass
class IsolatedProbe:
    """One isolated write and one isolated read, after a priming write."""

    cluster: Cluster
    write: OperationHandle
    read: OperationHandle
    write_cost: OperationCost
    read_cost: OperationCost


def measure_operation(cluster: Cluster, invoke: Callable[[], OperationHandle]
                      ) -> Tuple[OperationHandle, OperationCost]:
    """Invoke one operation and run the network to quiescence; returns
    its handle and the traffic it caused."""
    metrics = cluster.simulator.metrics
    before_messages, before_bytes = metrics.snapshot()
    handle = invoke()
    cluster.run()
    after_messages, after_bytes = metrics.snapshot()
    return handle, OperationCost(messages=after_messages - before_messages,
                                 message_bytes=after_bytes - before_bytes)


def average_register_storage(cluster: Cluster, tag: str) -> float:
    """Mean per-server storage of one register's global variables."""
    totals = []
    for server in cluster.servers:
        probe = getattr(server, "register_storage_bytes", None)
        if probe is not None:
            totals.append(probe(tag))
    return sum(totals) / len(totals) if totals else 0.0


def run_isolated_probe(protocol: str, n: int, t: int,
                       k: Optional[int] = None, value_size: int = 1024,
                       seed: int = 0, commitment: str = "vector",
                       threshold_backend: str = "ideal") -> IsolatedProbe:
    """Run an isolated write and then an isolated read on register
    ``"reg"`` of a one-client cluster.

    A priming write moves the register past its initial state first, so
    the measured operations are steady-state (the read returns a real
    dispersed value, not ``F_init``).
    """
    config = SystemConfig(n=n, t=t, k=k, commitment=commitment,
                          threshold_backend=threshold_backend, seed=seed)
    cluster = build_cluster(config, protocol=protocol, num_clients=1,
                            scheduler=RandomScheduler(seed))
    prime, target = make_values(2, size=value_size)
    cluster.write(1, "reg", "prime", prime)
    cluster.run()
    write, write_cost = measure_operation(
        cluster, lambda: cluster.write(1, "reg", "w", target))
    read, read_cost = measure_operation(
        cluster, lambda: cluster.read(1, "reg", "r"))
    return IsolatedProbe(cluster=cluster, write=write, read=read,
                         write_cost=write_cost, read_cost=read_cost)


def measure_isolated_costs(protocol: str, n: int, t: int,
                           k: Optional[int] = None,
                           value_size: int = 1024, seed: int = 0,
                           commitment: str = "vector",
                           threshold_backend: str = "ideal"
                           ) -> IsolatedCosts:
    """Costs of :func:`run_isolated_probe`'s write and read, plus the
    register's storage per server."""
    probe = run_isolated_probe(protocol, n, t, k=k, value_size=value_size,
                               seed=seed, commitment=commitment,
                               threshold_backend=threshold_backend)
    storage = average_register_storage(probe.cluster, "reg")
    return IsolatedCosts(
        protocol=protocol, n=n, t=t, k=probe.cluster.config.k
        if protocol not in ("martin", "bazzi_ding") else None,
        value_size=value_size, write=probe.write_cost,
        read=probe.read_cost, storage_per_server=storage,
        storage_blowup=storage * n / value_size)


# ---------------------------------------------------------------------------
# Plain-text table rendering (what the benches and run_all print).
# ---------------------------------------------------------------------------

def render_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: Optional[str] = None) -> str:
    """Fixed-width ASCII table; cells are stringified as-is."""
    cells = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in cells:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    separator = "-+-".join("-" * width for width in widths)
    lines.append(" | ".join(header.ljust(width)
                            for header, width in zip(headers, widths)))
    lines.append(separator)
    for row in cells:
        lines.append(" | ".join(cell.ljust(width)
                                for cell, width in zip(row, widths)))
    return "\n".join(lines)


def fmt_bytes(count: float) -> str:
    """Human-readable byte counts for table cells."""
    count = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if count < 1024 or unit == "GiB":
            return f"{count:.1f} {unit}" if unit != "B" \
                else f"{int(count)} B"
        count /= 1024
    return f"{count:.1f} GiB"
