"""repro.chaos — deterministic fault injection with replay and shrink.

The chaos plane turns the paper's adversary into an executable test
harness.  A seeded, declarative :class:`~repro.chaos.plan.FaultPlan`
describes bounded faults (message drops, duplication, corruption,
delays, transient partitions, server crashes with optional recovery) at
parties the plan designates faulty; a
:class:`~repro.chaos.injector.FaultInjector` executes the plan inside
the simulator, recording every injected fault in the event log and in
observability counters; the campaign runner
(:mod:`repro.chaos.campaign`) sweeps seeds × plans × protocols, checks
atomicity and wait-freedom per run, and serializes failing runs as
replayable reproducers that :mod:`repro.chaos.shrink` minimizes.

Everything is deterministic: the same ``(seed, plan)`` produces the
same event log, and an empty plan is byte-identical to no injector at
all.  See ``docs/ROBUSTNESS.md`` for the fault-model rationale.
"""

from repro.analysis.history import (
    STATUS_OK,
    STATUS_STALLED,
    STATUS_VIOLATION,
)
from repro.chaos.campaign import (
    RunResult,
    RunSpec,
    campaign_report,
    execute_run,
    load_reproducer,
    replay_reproducer,
    save_reproducer,
    sweep,
)
from repro.chaos.injector import FaultInjector
from repro.chaos.library import BUILTIN_PLANS, DEFAULT_BATTERY, builtin_plan
from repro.chaos.plan import (
    CrashSpec,
    FaultPlan,
    FaultRule,
    PartitionSpec,
    SchedulerSpec,
)
from repro.chaos.shrink import ShrinkResult, shrink_plan

__all__ = [
    "BUILTIN_PLANS",
    "DEFAULT_BATTERY",
    "CrashSpec",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "PartitionSpec",
    "RunResult",
    "RunSpec",
    "STATUS_OK",
    "STATUS_STALLED",
    "STATUS_VIOLATION",
    "SchedulerSpec",
    "ShrinkResult",
    "builtin_plan",
    "campaign_report",
    "execute_run",
    "load_reproducer",
    "replay_reproducer",
    "save_reproducer",
    "shrink_plan",
    "sweep",
]
