"""Churn benchmark: crash → repair → re-crash storms vs an unrepaired fleet.

The payload behind ``benchmarks/BENCH_kv_churn.json``
(``repro kv-bench --churn``).  One storm plan staggers ``t + 1``
permanent crashes — one more than the resilience budget — each marked
``replace_after`` so a repair plane, when attached, swaps the crashed
member for an amnesiac newcomer and re-disperses its registers before
the next crash lands.  Three cases run the same seeded workload:

* ``faultfree`` — no plan, the throughput baseline;
* ``churn+repair`` — the storm with a
  :class:`~repro.repair.coordinator.RepairCoordinator` attached: the
  fleet never has more than one member crashed or unrepaired at once,
  so every operation completes and histories stay linearizable, with
  repair lag pinned back to zero;
* ``churn-norepair`` — the same storm with repair off: the third
  permanent crash leaves ``n - (t + 1) < n - t`` servers alive, below
  every quorum, and the run loses liveness (the one case declared
  ``may_stall``: reported, with whatever history *did* complete still
  checked atomic).

The summary's headline is ``throughput_retention``: repaired ops/tick
over fault-free ops/tick — the fraction of fault-free throughput the
fleet keeps while absorbing a full churn storm in the background.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.chaos.plan import CrashSpec, FaultPlan
from repro.kv.bench import Comparison
from repro.kv.cluster import KvCluster


def churn_storm_plan(n: int, t: int, seed: int = 0,
                     first_crash: int = 40, stagger: int = 120,
                     replace_after: int = 40) -> FaultPlan:
    """A staggered crash storm of ``t + 1`` servers with replacement.

    Servers ``n, n - 1, .., n - t`` permanently crash at decision
    points ``first_crash + i * stagger``; each carries
    ``replace_after`` so an attached repair plane swaps it
    ``replace_after`` decisions after its crash point.  With repair
    attached no more than one member is missing at a time, by
    construction: the coordinator holds a crash that is due while the
    previous member is still down or its registers are still queued
    for re-dispersal (see :class:`~repro.repair.RepairCoordinator`), so
    ``stagger`` is the earliest a crash lands, not a promise that
    repair has finished.  Without repair the same plan spends ``t + 1``
    resilience units and the fleet drops below quorum, which is exactly
    the comparison the churn bench draws (``exceeds_t`` declares that
    deliberately).
    """
    servers = tuple(range(n, n - (t + 1), -1))
    crashes = tuple(
        CrashSpec(server=server, after=first_crash + rank * stagger,
                  trigger="decisions", replace_after=replace_after)
        for rank, server in enumerate(servers))
    return FaultPlan(name="churn-storm", seed=seed, faulty=servers,
                     crashes=crashes, exceeds_t=len(servers) > t)


def _alive_servers(cluster: KvCluster) -> int:
    """Fleet members currently able to answer (replacements count;
    crashed fail-stop hosts do not)."""
    return sum(1 for host in cluster.servers
               if not getattr(host, "crashed", False))


def churn_columns(label: str, cluster: KvCluster,
                  stalled: bool) -> Dict[str, Any]:
    """What a churn row reports beyond the
    :class:`~repro.kv.bench.KvBenchRow` columns: whether the run lost
    liveness (for the unrepaired storm that *is* the measurement), who
    survived, and — with the repair plane attached — what it did."""
    columns: Dict[str, Any] = {
        "case": label,
        "liveness_violation": stalled,
        "alive_servers": _alive_servers(cluster),
        "quorum": cluster.directory.fleet_config.quorum,
        "session_epochs": sorted(
            {session.epoch for session in cluster.sessions}),
    }
    coordinator = cluster.repair
    if coordinator is not None:
        columns.update({
            "replacements": coordinator.stats.replacements,
            "repairs_completed": coordinator.stats.completed,
            "repairs_failed": coordinator.stats.failed,
            "repairs_skipped": coordinator.stats.skipped,
            "repair_retries": coordinator.stats.retries,
            "repair_lag_final": coordinator.lag,
            "repair_lag_series": coordinator.stats.lag_samples,
        })
    return columns


#: What every churn case pins beyond its workload: repair only covers
#: ``atomic_md``, and the session retry budget is the one the committed
#: document was measured with (the unrepaired case spends all of it).
CHURN_CASE = {"protocol": "atomic_md", "max_attempts": 6}


def _churn_cases(config: Dict[str, Any]
                 ) -> List[Tuple[str, Dict[str, Any]]]:
    plan = churn_storm_plan(
        config["n"], config["t"], seed=config["seed"],
        first_crash=config["first_crash"], stagger=config["stagger"],
        replace_after=config["replace_after"])
    return [
        ("faultfree", CHURN_CASE),
        ("churn+repair", {**CHURN_CASE, "plan": plan,
                          "batch_size": config["batch_size"]}),
        ("churn-norepair", {**CHURN_CASE, "plan": plan}),
    ]


def _retention(cases: Dict[str, Dict[str, Any]]) -> float:
    """Repaired over fault-free ops/tick, unrounded (0 without a
    fault-free baseline)."""
    base = cases["faultfree"]["ops_per_tick"]
    return cases["churn+repair"]["ops_per_tick"] / base if base else 0.0


def _churn_summary(config: Dict[str, Any],
                   rows: List[Dict[str, Any]]) -> Dict[str, Any]:
    by_case = {row["case"]: row for row in rows}
    repaired = by_case["churn+repair"]
    norepair = by_case["churn-norepair"]
    return {
        "ops_per_tick_faultfree": by_case["faultfree"]["ops_per_tick"],
        "ops_per_tick_repaired": repaired["ops_per_tick"],
        "throughput_retention": round(_retention(by_case), 4),
        "repaired_completed_all":
            repaired["completed"] == config["ops"],
        "repaired_linearizable": repaired["linearizable"],
        "repair_lag_final": repaired["repair_lag_final"],
        "replacements": repaired["replacements"],
        "repairs_completed": repaired["repairs_completed"],
        "norepair_liveness_violation": norepair["liveness_violation"],
        "norepair_below_quorum":
            norepair["alive_servers"] < norepair["quorum"],
    }


def _churn_gates(p: Dict[str, Any]) -> Dict[str, bool]:
    cases = {row["case"]: row for row in p["rows"]}
    summary, config = p["summary"], p["config"]
    repaired = cases["churn+repair"]
    return {
        "exactly the three cases": set(cases) == {
            "faultfree", "churn+repair", "churn-norepair"},
        "the repaired case is linearizable": repaired["linearizable"],
        "the repaired case kept liveness":
            not repaired["liveness_violation"],
        "the repaired case completed every operation":
            repaired["completed"] == repaired["ops"] == config["ops"],
        "repair lag reached zero": repaired["repair_lag_final"] == 0,
        "the repaired case replaced members and re-dispersed "
        "registers":
            repaired["replacements"] > 0
            and repaired["repairs_completed"] > 0,
        # the rows' own ratio: a rounded summary must not lift a
        # document over the line.  0.84 since the two-phase atomic_md
        # write: the fault-free baseline gained more (1.96x ops/tick)
        # than the storm, whose repair rounds are reads (1.84x).
        "throughput retention >= 0.84 (seed 0)":
            _retention(cases) >= 0.84,
        "at least t + 1 replacements":
            summary["replacements"] >= config["t"] + 1,
        "the unrepaired storm lost liveness or fell below quorum":
            bool(summary["norepair_liveness_violation"]
                 or summary["norepair_below_quorum"]),
    }


#: The three cases described at the top of this module (``kv-bench
#: --churn``; ``benchmarks/BENCH_kv_churn.json``); the gates are the
#: acceptance claims the committed document backs.
CHURN = Comparison(
    label="kv_churn",
    shape={"num_shards": 2, "n": 7, "t": 2, "sessions": 4, "keys": 8,
           "ops": 160, "write_ratio": 0.5, "seed": 0, "value_size": 64},
    settings={"first_crash": 40, "stagger": 120, "replace_after": 40,
              "batch_size": 2},
    smoke={"sessions": 2, "keys": 4, "ops": 48, "first_crash": 20,
           "stagger": 80, "replace_after": 30},
    cases=_churn_cases, columns=churn_columns, summary=_churn_summary,
    table=("case", "ops_per_tick", "completed", "ticks", "linearizable",
           "alive_servers", "replacements", "repairs_completed",
           "repair_lag_final", "liveness_violation"),
    gates=_churn_gates, may_stall=frozenset({"churn-norepair"}))
