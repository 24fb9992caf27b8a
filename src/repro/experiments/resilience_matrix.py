"""Experiment F5 — the resilience matrix.

Optimal resilience (Theorem 2): Protocols Atomic/AtomicNS stay live and
atomic whenever at most ``t < n/3`` servers misbehave; exceeding the bound
may cost liveness.  The ``n > 4t`` baselines cannot even be deployed at
``n = 3t + 1``.  The matrix runs a concurrent workload against clusters
with ``f`` faulty servers (a mix of crash, equivocation, and inflation
faults) — each cell one chaos run (:func:`repro.chaos.execute_run`)
whose fault plan designates servers ``1..f`` faulty — and classifies
each cell by the run's verdict:

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
from typing import List, Sequence

from repro.analysis.history import (
    STATUS_OK,
    STATUS_STALLED,
    STATUS_VIOLATION,
)
from repro.chaos.campaign import RunSpec, execute_run
from repro.chaos.plan import ByzantineSpec, CrashSpec, FaultPlan
from repro.common.errors import ConfigurationError
from repro.experiments.common import render_table

OK = "OK"
STALLED = "STALLED"
VIOLATION = "VIOLATION"
NOT_APPLICABLE = "N/A"

_VERDICTS = {STATUS_OK: OK, STATUS_STALLED: STALLED,
             STATUS_VIOLATION: VIOLATION}


@dataclass
class MatrixCell:
    protocol: str
    n: int
    t: int
    faulty: int
    verdict: str


#: The within-bound fault mix servers cycle through (``None``: crash).
_MIX = (None, "equivocate-read", "inflate-ts")


def _plan(protocol: str, t: int, faulty: int) -> FaultPlan:
    """Servers ``1..faulty`` are faulty.

    Within the bound (``faulty <= t``) they cycle through crash,
    equivocation, and inflation faults, which exercises the quorum
    logic.  Beyond the bound the adversary picks its strongest move —
    all crashes — which denies every ``n - t`` quorum and must cost
    liveness.  Protocols without Atomic-style server state get crash
    faults only.
    """
    mixed = faulty <= t and protocol in ("atomic", "atomic_ns")
    behaviours = {server: _MIX[(server - 1) % len(_MIX)] if mixed else None
                  for server in range(1, faulty + 1)}
    return FaultPlan(
        name="resilience-matrix", faulty=tuple(behaviours),
        crashes=tuple(CrashSpec(server=server)
                      for server, behaviour in behaviours.items()
                      if behaviour is None),
        byzantine=tuple(ByzantineSpec(server=server, behaviour=behaviour)
                        for server, behaviour in behaviours.items()
                        if behaviour is not None),
        exceeds_t=faulty > t)


def _classify(protocol: str, n: int, t: int, faulty: int,
              seed: int) -> str:
    spec = RunSpec(protocol=protocol, plan=_plan(protocol, t, faulty),
                   n=n, t=t, seed=seed, clients=3, writes=3, reads=4)
    try:
        return _VERDICTS[execute_run(spec).status]
    except ConfigurationError:
        return NOT_APPLICABLE


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
