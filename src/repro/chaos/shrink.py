"""Reproducer shrinking: minimize a failing fault plan *and* workload.

When a campaign run fails, the raw plan usually injects more faults
than the failure needs, and the workload runs more operations than the
failure needs.  :func:`shrink_plan` minimizes both, in three phases:

1. **Component ddmin** — classic delta debugging over the plan's
   components (rules, crashes, the partition, the scheduler entry):
   chunked removal starting at half the component list, doubling the
   granularity when no chunk's removal reproduces the failure and
   coarsening again after each success.  Removing ``k`` irrelevant
   components costs ``O(log k)`` runs instead of the ``k`` sequential
   passes of one-at-a-time greedy removal.
2. **Budget halving** — halve surviving rules' ``limit``/``delay``
   budgets to a fixed point.
3. **Workload cross-field shrinks** — halve ``writes``, ``reads``, and
   ``clients`` in the :class:`~repro.chaos.campaign.RunSpec` itself
   (never below one total operation or one client), so the reproducer's
   *workload* is minimal too, not just its plan.

Because runs are deterministic, each candidate needs exactly one
execution — no retries, no flakiness — and a candidate is accepted only
when it reproduces the *same* failure status, so shrinking never trades
one failure mode for another.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Tuple

from repro.chaos.campaign import RunResult, RunSpec, execute_run
from repro.chaos.plan import FaultPlan, FaultRule

#: A plan component key: ``(kind, index)``.
_Component = Tuple[str, int]


@dataclass(frozen=True)
class ShrinkResult:
    """Outcome of shrinking one failing run."""

    spec: RunSpec          #: the original spec with the minimal plan
    result: RunResult      #: the failing run of the minimal plan
    attempts: int          #: candidate executions spent shrinking
    removed: int           #: plan components eliminated


def _components(plan: FaultPlan) -> List[_Component]:
    out: List[_Component] = []
    out.extend(("rule", index) for index in range(len(plan.rules)))
    out.extend(("crash", index) for index in range(len(plan.crashes)))
    if plan.partition is not None:
        out.append(("partition", 0))
    if plan.scheduler is not None:
        out.append(("scheduler", 0))
    return out


def _build_plan(plan: FaultPlan, keep: List[_Component]) -> FaultPlan:
    kept = set(keep)
    return replace(
        plan,
        rules=tuple(rule for index, rule in enumerate(plan.rules)
                    if ("rule", index) in kept),
        crashes=tuple(crash for index, crash in enumerate(plan.crashes)
                      if ("crash", index) in kept),
        partition=plan.partition if ("partition", 0) in kept else None,
        scheduler=plan.scheduler if ("scheduler", 0) in kept else None)


def _ddmin(components: List[_Component],
           still_fails: Callable[[List[_Component]], bool]
           ) -> List[_Component]:
    """Classic ddmin by complement removal over ``components``.

    ``still_fails`` is the (budget-limited) oracle; it returns False
    once the attempt budget is exhausted, which safely reads as "this
    reduction did not reproduce the failure".
    """
    current = list(components)
    granularity = 2
    while len(current) >= 2:
        chunk_size = -(-len(current) // granularity)  # ceil division
        chunks = [current[start:start + chunk_size]
                  for start in range(0, len(current), chunk_size)]
        reduced = False
        for chunk in chunks:
            candidate = [entry for entry in current if entry not in chunk]
            if still_fails(candidate):
                current = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                break
        if not reduced:
            if granularity >= len(current):
                break
            granularity = min(granularity * 2, len(current))
    if len(current) == 1 and still_fails([]):
        current = []
    return current


def _budget_candidates(plan: FaultPlan) -> List[Tuple[str, FaultPlan]]:
    """Budget/delay halvings of surviving rules, in deterministic
    order."""
    out: List[Tuple[str, FaultPlan]] = []
    for index, rule in enumerate(plan.rules):
        if rule.limit > 1:
            halved = FaultRule(kind=rule.kind, party=rule.party,
                               mtype=rule.mtype, limit=rule.limit // 2,
                               delay=rule.delay)
            out.append((f"halve budget of rule {index}",
                        plan.with_rule(index, halved)))
        if rule.kind == "delay" and rule.delay > 1:
            shorter = FaultRule(kind=rule.kind, party=rule.party,
                                mtype=rule.mtype, limit=rule.limit,
                                delay=rule.delay // 2)
            out.append((f"halve delay of rule {index}",
                        plan.with_rule(index, shorter)))
    return out


def _workload_candidates(spec: RunSpec) -> List[RunSpec]:
    """Cross-field reductions of the spec's workload, in deterministic
    order (a candidate always keeps at least one operation and one
    client)."""
    out: List[RunSpec] = []
    if spec.writes > 0:
        out.append(replace(spec, writes=spec.writes // 2))
    if spec.reads > 0:
        out.append(replace(spec, reads=spec.reads // 2))
    if spec.clients > 1:
        out.append(replace(spec, clients=spec.clients // 2))
    return [candidate for candidate in out
            if candidate.writes + candidate.reads >= 1
            and candidate.clients >= 1]


#: Candidate runs one shrink may spend, the original run included.
MAX_SHRINK_ATTEMPTS = 200


def shrink_plan(spec: RunSpec, failing_status: str) -> ShrinkResult:
    """Minimize ``spec`` while preserving the failure.

    ``failing_status`` is the status the original run produced
    (``stalled`` or ``violation``).  Terminates at a fixed point
    (no chunk removal, budget halving, or workload reduction still
    fails) or after :data:`MAX_SHRINK_ATTEMPTS` candidate runs.  ``removed``
    counts eliminated plan components (not budget or workload
    reductions).
    """
    current = spec
    best = execute_run(current)
    if best.status != failing_status:
        raise ValueError(
            f"shrink oracle mismatch: plan produced {best.status!r}, "
            f"expected {failing_status!r}")
    state = {"attempts": 1, "current": current, "best": best}

    def try_spec(candidate: RunSpec) -> bool:
        if state["attempts"] >= MAX_SHRINK_ATTEMPTS:
            return False
        outcome = execute_run(candidate)
        state["attempts"] += 1
        if outcome.status == failing_status:
            state["current"] = candidate
            state["best"] = outcome
            return True
        return False

    # Phase 1: chunked ddmin over plan components.
    initial = _components(spec.plan)

    def still_fails(keep: List[_Component]) -> bool:
        candidate_plan = _build_plan(spec.plan, keep)
        return try_spec(replace(state["current"], plan=candidate_plan))

    kept = _ddmin(initial, still_fails)
    removed = len(initial) - len(kept)

    # Phase 2: halve surviving rule budgets/delays to a fixed point.
    progress = True
    while progress and state["attempts"] < MAX_SHRINK_ATTEMPTS:
        progress = False
        for _, candidate_plan in _budget_candidates(
                state["current"].plan):
            if try_spec(replace(state["current"], plan=candidate_plan)):
                progress = True
                break  # restart from the smaller plan

    # Phase 3: shrink the workload itself (writes/reads/clients).
    progress = True
    while progress and state["attempts"] < MAX_SHRINK_ATTEMPTS:
        progress = False
        for candidate in _workload_candidates(state["current"]):
            if try_spec(candidate):
                progress = True
                break  # restart from the smaller workload

    return ShrinkResult(spec=state["current"], result=state["best"],
                        attempts=state["attempts"], removed=removed)
