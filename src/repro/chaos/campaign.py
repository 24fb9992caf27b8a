"""Chaos campaigns: sweep seeds × plans × protocols, check, reproduce.

A campaign run takes one :class:`RunSpec` — protocol, deployment shape,
workload seed, and a :class:`~repro.chaos.plan.FaultPlan` — executes the
seeded workload with the plan's faults injected, and classifies the
outcome:

* ``ok`` — every operation terminated and the history linearizes;
* ``stalled`` — the network quiesced with an operation still pending
  (a wait-freedom violation);
* ``violation`` — the recorded history admits no atomic order
  (a safety violation, strictly worse than stalling).

Within the resilience bound (``|faulty| <= t``) the paper guarantees
``ok``; a campaign that reports anything else has found a bug — or has
been pointed past the bound on purpose (the ``boundary`` plan), where
``stalled`` is the *expected* outcome.  Either way the run serializes
to a self-contained JSON reproducer (spec + plan) that replays
bit-for-bit: the event-log digest recorded at failure time must match
on replay, which :func:`replay_reproducer` asserts.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.chaos.library import builtin_plan
from repro.chaos.plan import FaultPlan
from repro.cluster import Cluster, run_register_case
from repro.common.errors import SimulationError
from repro.analysis.history import STATUS_OK, STATUS_STALLED, run_verdict

TAG = "reg"


@dataclass(frozen=True)
class RunSpec:
    """One chaos run: a deployment, a workload seed, and a fault plan."""

    protocol: str
    plan: FaultPlan
    n: int = 4
    t: int = 1
    seed: int = 0
    clients: int = 2
    writes: int = 3
    reads: int = 3
    #: erasure threshold, or ``None`` for the protocol's default
    #: (``atomic_md`` resolves to ``t + 1`` — it requires ``k <= n - 2t``)
    k: Optional[int] = None

    def to_json(self) -> Dict[str, Any]:
        """The spec as a plain JSON-serializable dictionary."""
        return {"protocol": self.protocol, "n": self.n, "t": self.t,
                "seed": self.seed, "clients": self.clients,
                "writes": self.writes, "reads": self.reads,
                "k": self.k, "plan": self.plan.to_json()}

    @classmethod
    def from_json(cls, doc: Dict[str, Any]) -> "RunSpec":
        """Inverse of :meth:`to_json`."""
        return cls(protocol=doc["protocol"], n=doc["n"], t=doc["t"],
                   seed=doc["seed"], clients=doc["clients"],
                   writes=doc["writes"], reads=doc["reads"],
                   k=doc.get("k"),
                   plan=FaultPlan.from_json(doc["plan"]))


@dataclass(frozen=True)
class RunResult:
    """Outcome of one chaos run, with its determinism fingerprint."""

    spec: RunSpec
    status: str
    detail: str
    steps: int
    digest: str
    faults: Dict[str, int]

    @property
    def expected(self) -> bool:
        """Whether the outcome matches the model's promise: ``ok``
        within the bound, a failure beyond it (``exceeds_t`` plans)."""
        if self.spec.plan.exceeds_t:
            return self.status != STATUS_OK
        return self.status == STATUS_OK

    def to_json(self) -> Dict[str, Any]:
        """The result as a plain JSON-serializable dictionary."""
        return {"spec": self.spec.to_json(), "status": self.status,
                "detail": self.detail, "steps": self.steps,
                "digest": self.digest, "faults": dict(self.faults),
                "expected": self.expected}


def _event_log_digest(cluster: Cluster) -> str:
    lines = [repr(event) for event in cluster.simulator.event_log]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _fault_counts(cluster: Cluster) -> Dict[str, int]:
    snapshot = cluster.simulator.chaos.instruments.snapshot()
    return {name: summary["value"]
            for name, summary in snapshot.items()
            if summary.get("type") == "counter"}


def execute_run(spec: RunSpec, monitor=None) -> RunResult:
    """Execute one chaos run and classify its outcome.

    The workload is the standard seeded random mix; faults come only
    from the plan.  :func:`~repro.analysis.history.run_verdict` judges
    the run over the servers outside ``plan.faulty`` — a safety
    violation outranks a stall.

    ``monitor`` (a :class:`repro.obs.health.HealthMonitor`) is attached
    as the run's tracer before the workload starts and finalized on
    every exit path, so ``repro monitor`` can score server health and
    SLO burn over exactly the run the campaign classified.
    """
    try:
        handles, cluster = run_register_case(
            spec.protocol, spec.n, spec.t, k=spec.k, clients=spec.clients,
            writes=spec.writes, reads=spec.reads, seed=spec.seed,
            plan=spec.plan, tracer=monitor, require_done=False)
    except SimulationError as exc:
        return RunResult(spec=spec, status=STATUS_STALLED,
                         detail=f"run did not quiesce: {exc}",
                         steps=exc.cluster.simulator.time,
                         digest=_event_log_digest(exc.cluster),
                         faults=_fault_counts(exc.cluster))
    finally:
        if monitor is not None:
            monitor.finalize()
    honest = [server.pid for index, server
              in enumerate(cluster.servers, start=1)
              if index not in set(spec.plan.faulty)]
    status, detail = run_verdict(cluster, handles, TAG, honest)
    return RunResult(spec=spec, status=status, detail=detail,
                     steps=cluster.simulator.time,
                     digest=_event_log_digest(cluster),
                     faults=_fault_counts(cluster))


def sweep(protocols: Sequence[str], plan_names: Sequence[str],
          seeds: Sequence[int], n: int = 4, t: int = 1
          ) -> List[RunResult]:
    """The full campaign grid: every protocol × plan × seed, each run
    at :class:`RunSpec`'s default workload."""
    results = []
    for protocol in protocols:
        for name in plan_names:
            for seed in seeds:
                plan = builtin_plan(name, n, t, seed=seed)
                spec = RunSpec(protocol=protocol, plan=plan, n=n, t=t,
                               seed=seed)
                results.append(execute_run(spec))
    return results


def campaign_report(results: Sequence[RunResult]) -> Dict[str, Any]:
    """Aggregate a sweep into the JSON campaign report.

    ``fault_profile`` sums every injector counter per plan name — the
    per-plan coverage signal (which fault kinds and rules actually
    fired, how often) that coverage-guided plan search keys on.
    """
    by_status: Dict[str, int] = {}
    fault_profile: Dict[str, Dict[str, int]] = {}
    for result in results:
        by_status[result.status] = by_status.get(result.status, 0) + 1
        profile = fault_profile.setdefault(result.spec.plan.name, {})
        for counter, value in result.faults.items():
            profile[counter] = profile.get(counter, 0) + value
    unexpected = [result for result in results if not result.expected]
    return {
        "runs": len(results),
        "by_status": {name: by_status[name]
                      for name in sorted(by_status)},
        "unexpected": len(unexpected),
        "fault_profile": {name: {counter: profile[counter]
                                 for counter in sorted(profile)}
                          for name, profile in
                          sorted(fault_profile.items())},
        "results": [result.to_json() for result in results],
    }


# -- reproducers --------------------------------------------------------------


def save_reproducer(result: RunResult, path) -> None:
    """Serialize a failing run as a self-contained JSON reproducer."""
    document = {
        "comment": "chaos reproducer; replay with "
                   "`python -m repro.cli chaos --replay <file>`",
        "spec": result.spec.to_json(),
        "status": result.status,
        "detail": result.detail,
        "digest": result.digest,
    }
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(document, stream, indent=2, sort_keys=True)
        stream.write("\n")


def load_reproducer(path) -> Tuple[RunSpec, Dict[str, Any]]:
    """Load a reproducer file; returns ``(spec, original document)``."""
    with open(path, encoding="utf-8") as stream:
        document = json.load(stream)
    return RunSpec.from_json(document["spec"]), document


def replay_reproducer(path) -> Tuple[RunResult, bool]:
    """Re-execute a serialized reproducer.

    Returns ``(result, faithful)`` where ``faithful`` means the replay
    reproduced both the recorded failure status and the exact
    event-log digest — the determinism guarantee reproducers exist
    for.
    """
    spec, document = load_reproducer(path)
    result = execute_run(spec)
    faithful = (result.status == document["status"]
                and result.digest == document["digest"])
    return result, faithful
