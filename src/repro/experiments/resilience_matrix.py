"""Experiment F5 — the resilience matrix.

Optimal resilience (Theorem 2): Protocols Atomic/AtomicNS stay live and
atomic whenever at most ``t < n/3`` servers misbehave; exceeding the bound
may cost liveness.  The ``n > 4t`` baselines cannot even be deployed at
``n = 3t + 1``.  The matrix runs a concurrent workload against clusters
with ``f`` faulty servers (a mix of crash, equivocation, and inflation
faults) and classifies each cell:

* ``OK``        — every operation terminated and the history linearizes;
* ``STALLED``   — some honest operation could not terminate (liveness
  lost; expected as soon as ``f > t``: quorums of ``n - t`` no longer
  respond);
* ``VIOLATION`` — a non-linearizable history (must never appear for
  ``f <= t``);
* ``N/A``       — the protocol rejects the deployment (resilience bound).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from repro.analysis.history import HistoryRecorder
from repro.cluster import build_cluster, protocol_classes
from repro.common.errors import (
    AtomicityViolation,
    ConfigurationError,
    LivenessError,
    SimulationError,
)
from repro.config import SystemConfig
from repro.experiments.common import render_table
from repro.faults.byzantine_servers import CrashServer, byzantine
from repro.net.schedulers import RandomScheduler
from repro.workloads.generator import random_workload, run_workload

TAG = "reg"

OK = "OK"
STALLED = "STALLED"
VIOLATION = "VIOLATION"
NOT_APPLICABLE = "N/A"


@dataclass
class MatrixCell:
    protocol: str
    n: int
    t: int
    faulty: int
    verdict: str


def _fault_factories(protocol: str, faulty: int, t: int) -> List[Callable]:
    """Fault mix for injected servers.

    Within the bound (``faulty <= t``) a mix of crash, equivocation, and
    inflation faults exercises the quorum logic.  Beyond the bound the
    adversary picks its strongest move — all crashes — which denies every
    ``n - t`` quorum and must cost liveness.  Protocols without
    Atomic-style server state get crash faults only.
    """
    if faulty > t or protocol not in ("atomic", "atomic_ns"):
        return [CrashServer]
    server_cls = protocol_classes(protocol)[0]
    return [CrashServer, byzantine(server_cls, "equivocate-read"),
            byzantine(server_cls, "inflate-ts")]


def _classify(protocol: str, n: int, t: int, faulty: int,
              seed: int) -> str:
    try:
        config = SystemConfig(n=n, t=t, seed=seed)
        factories = _fault_factories(protocol, faulty, t)
        overrides = {
            index: factories[(index - 1) % len(factories)]
            for index in range(1, faulty + 1)
        }
        cluster = build_cluster(config, protocol=protocol, num_clients=3,
                                scheduler=RandomScheduler(seed),
                                server_overrides=overrides)
    except ConfigurationError:
        return NOT_APPLICABLE
    operations = random_workload(3, writes=3, reads=4, seed=seed)
    try:
        # Cap the step budget: a stalled operation leaves the network
        # quiescent with an unfinished handle, which run_workload reports
        # as a LivenessError.
        run_workload(cluster, TAG, operations, seed=seed,
                     max_steps=400_000)
    except LivenessError:
        return STALLED
    except SimulationError:
        return STALLED
    try:
        HistoryRecorder(cluster, TAG).check()
    except LivenessError:
        return STALLED
    except AtomicityViolation:
        return VIOLATION
    return OK


def run(ts: Sequence[int] = (1, 2), seed: int = 0) -> List[MatrixCell]:
    """Execute the experiment sweep; returns structured result rows."""
    cells = []
    for protocol in ("atomic", "atomic_ns", "martin", "bazzi_ding",
                     "goodson"):
        for t in ts:
            n = 3 * t + 1
            for faulty in range(0, t + 2):
                verdict = _classify(protocol, n, t, faulty, seed)
                cells.append(MatrixCell(protocol=protocol, n=n, t=t,
                                        faulty=faulty, verdict=verdict))
    return cells


def render(cells: List[MatrixCell]) -> str:
    """Render result rows as the printable table."""
    headers = ["protocol", "n", "t", "faulty servers", "verdict"]
    body = [[cell.protocol, cell.n, cell.t, cell.faulty, cell.verdict]
            for cell in cells]
    return render_table(
        headers, body,
        title="F5: resilience matrix at n = 3t+1 "
              "(OK expected iff faulty <= t and protocol deployable)")


if __name__ == "__main__":
    from repro.experiments.battery import run_battery
    run_battery(["F5"])
