"""Experiment F11 — asynchrony sensitivity and load balance.

Two claims implicit in the paper's model and design:

1. **Scheduling independence.**  The protocols assume nothing about
   timing — liveness and atomicity must hold under *every* message
   schedule.  This experiment runs the same workload under four
   adversarial delivery disciplines (FIFO, seeded-random reordering, a
   scheduler that starves one server, and a transient partition) and
   verifies the outcome is identical: all operations terminate, the
   history linearizes, and the read results agree.

2. **Leaderless load balance.**  Unlike primary-based BFT systems, the
   register protocols have no distinguished replica: every quorum
   involves whichever ``n − t`` servers respond.  Measured per-server
   received bytes should be near-uniform (max/mean close to 1), except
   when the adversary deliberately starves a server.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis.history import HistoryRecorder
from repro.chaos.plan import FaultPlan, SchedulerSpec
from repro.cluster import run_register_case
from repro.experiments.common import render_table

TAG = "reg"


@dataclass
class SensitivityRow:
    scheduler: str
    terminated: bool
    atomic: bool
    steps: int
    load_imbalance: float


#: The sweep: each row label with the scheduler it runs under, as the
#: same :class:`~repro.chaos.plan.SchedulerSpec` a chaos plan carries.
SCHEDULERS = (
    ("fifo", SchedulerSpec(name="fifo")),
    ("random", SchedulerSpec(name="random")),
    ("starve-P1", SchedulerSpec(name="slow-parties", slow_servers=(1,))),
    ("partition-heals", SchedulerSpec(name="partition", group=(1, 2),
                                      heal_after=300)),
)


def run(protocol: str = "atomic_ns", n: int = 4, t: int = 1,
        writes: int = 4, reads: int = 4, seed: int = 0
        ) -> List[SensitivityRow]:
    """Execute the experiment sweep; returns structured result rows."""
    rows = []
    for name, scheduler in SCHEDULERS:
        handles, cluster = run_register_case(
            protocol, n, t, clients=3, writes=writes, reads=reads,
            seed=seed, plan=FaultPlan(name=name, scheduler=scheduler))
        atomic = True
        try:
            HistoryRecorder(cluster, TAG).check()
        except Exception:
            atomic = False
        metrics = cluster.simulator.metrics
        rows.append(SensitivityRow(
            scheduler=name,
            terminated=all(handle.done for handle in handles.values()),
            atomic=atomic,
            steps=cluster.simulator.time,
            load_imbalance=metrics.load_imbalance(
                cluster.simulator.server_pids)))
    return rows


def render(rows: List[SensitivityRow]) -> str:
    """Render result rows as the printable table."""
    headers = ["scheduler", "all terminated", "atomic", "events",
               "server load max/mean"]
    body = [[row.scheduler, "yes" if row.terminated else "NO",
             "yes" if row.atomic else "NO", row.steps,
             f"{row.load_imbalance:.2f}"] for row in rows]
    return render_table(
        headers, body,
        title="F11: the same workload under four adversarial schedules "
              "(atomic_ns, n=4, t=1)")


def main() -> None:
    """Run the experiment at default scale and print its table(s)."""
    print(render(run()))


if __name__ == "__main__":
    main()
