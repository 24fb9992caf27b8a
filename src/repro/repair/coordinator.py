"""The repair plane: background re-dispersal and scheduled replacement.

A :class:`RepairCoordinator` rides the kv drive loop next to the live
sessions (see :func:`repro.kv.cluster.drive`): each
:meth:`~RepairCoordinator.pump` fires due member replacements, reaps
finished repair rounds, and admits queued ones — never more than
``batch_size`` in flight, so background re-dispersal is rate-limited
against client load instead of flooding the envelope layer.

Work arrives three ways:

* **scheduled replacement** — a chaos :class:`~repro.chaos.plan.CrashSpec`
  with ``replace_after`` set names the decision-clock point at which
  the crashed member is swapped for an amnesiac newcomer
  (:func:`repro.repair.reconfig.replace_member`); every AtomicMd
  register placed on it is then queued for repair.  Such a crash does
  not fire while the fleet is degraded — repair outstanding, or another
  scheduled member down and not yet replaced — so a storm never has
  more than one member crashed or unrepaired at a time.
* **operator trigger** — :meth:`~RepairCoordinator.request_repair`
  queues re-dispersal toward a named server without replacing it (a
  recovered-but-lossy member).
* **health detection** — :meth:`~RepairCoordinator.detect_degraded`
  reads :meth:`repro.obs.health.HealthMonitor.suspicion_scores` and
  queues repairs for every server at or above a threshold.

Repair rounds run on a dedicated :class:`~repro.kv.mux.KvClientHost`
whose inner clients are :class:`repro.repair.protocol.RepairClient`, so
repair traffic shares the simulator's scheduling and envelope batching
with everything else.  Progress is mirrored into the run's obs
registry as ``repair.*`` counters and — when a
:class:`~repro.obs.health.HealthMonitor` is attached — a ``repair.lag``
gauge (outstanding repairs over time), which the monitor CLI renders.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional

from repro.chaos.plan import FaultPlan
from repro.common.errors import ConfigurationError
from repro.common.ids import client_id
from repro.core.register import OperationHandle
from repro.kv.cluster import KvCluster
from repro.kv.mux import KvClientHost
from repro.repair.protocol import RepairClient
from repro.repair.reconfig import replace_member

#: Protocols the repair round speaks (read-reconstruct-redisperse is
#: built on the AtomicMd metadata/data separation).
REPAIRABLE_PROTOCOLS = ("atomic_md",)


@dataclass
class RepairTask:
    """One queued re-dispersal: a register at a shard-local target."""

    shard_id: int
    tag: str
    #: shard-local index of the server being repaired
    target_index: int
    attempts: int = 0
    handle: Optional[OperationHandle] = None


@dataclass
class _Replacement:
    """One scheduled member swap on the decision clock."""

    server: int
    due: int
    replace_after: int
    #: the fail-stop host whose ``decisions``-triggered crash this swap
    #: follows, held while the fleet is degraded (``None``: not held)
    host: Optional[Any] = None
    done: bool = False


@dataclass
class RepairStats:
    """Counters accumulated by one coordinator."""

    scheduled: int = 0
    completed: int = 0
    failed: int = 0
    skipped: int = 0
    retries: int = 0
    replacements: int = 0
    #: decision-clock/register backlog pairs for the lag time-series
    lag_samples: List[Dict[str, int]] = field(default_factory=list)


class RepairCoordinator:
    """Drives background repair and reconfiguration for one cluster.

    Construct via :func:`attach_repair`, which also registers the
    coordinator on :attr:`repro.kv.cluster.KvCluster.repair` so the
    drive loop pumps it.  ``batch_size`` bounds concurrent repair
    rounds; ``max_attempts`` bounds per-register retries when chaos
    stalls a round.
    """

    def __init__(self, cluster: KvCluster, batch_size: int = 2,
                 max_attempts: int = 4, monitor=None) -> None:
        if batch_size < 1:
            raise ConfigurationError(
                f"repair batch_size must be >= 1, got {batch_size}")
        if max_attempts < 1:
            raise ConfigurationError(
                f"repair max_attempts must be >= 1, got {max_attempts}")
        self.cluster = cluster
        self.batch_size = batch_size
        self.max_attempts = max_attempts
        self.monitor = monitor
        self.stats = RepairStats()
        self.host = KvClientHost(
            client_id(len(cluster.sessions) + 1), cluster.directory,
            client_cls=RepairClient)
        cluster.simulator.add_process(self.host)
        self._pending: Deque[RepairTask] = deque()
        self._inflight: List[RepairTask] = []
        self._scheduled: List[_Replacement] = []
        self._seq = 0

    # -- clocks and instruments --------------------------------------------

    def _decision_clock(self) -> int:
        simulator = self.cluster.simulator
        chaos = getattr(simulator, "chaos", None)
        if chaos is not None:
            return chaos.decisions
        return simulator.time

    def _count(self, label: str, value: int = 1) -> None:
        """Report one repair event to the simulator's observers."""
        self.cluster.simulator.count(f"repair.{label}", value)

    def _record_lag(self) -> None:
        """Sample the repair backlog (pending + in flight) now."""
        lag = self.lag
        self.stats.lag_samples.append(
            {"decisions": self._decision_clock(), "lag": lag})
        monitor = self.monitor
        if monitor is not None:
            monitor.store.gauge("repair.lag").record(
                self.cluster.simulator.time, lag)

    # -- work intake --------------------------------------------------------

    def schedule_from_plan(self, plan: FaultPlan) -> int:
        """Register every ``replace_after`` crash in ``plan``.

        Each such spec swaps its server ``replace_after`` decisions
        after its crash (the same clock the fail-stop wrapper crashes
        on): at ``after + replace_after`` unless the crash was held.
        Returns the number of replacements scheduled.
        """
        added = 0
        for crash in plan.crashes:
            if crash.replace_after is None:
                continue
            host = self.cluster.servers[crash.server - 1]
            held = crash.trigger == "decisions" \
                and hasattr(host, "hold_crash")
            self._scheduled.append(_Replacement(
                server=crash.server,
                due=crash.after + crash.replace_after,
                replace_after=crash.replace_after,
                host=host if held else None))
            added += 1
        self._scheduled.sort(key=lambda entry: (entry.due, entry.server))
        return added

    def request_repair(self, server_index: int) -> int:
        """Operator trigger: queue re-dispersal of every AtomicMd
        register placed on fleet server ``server_index`` (no
        replacement).  Returns the number of registers queued."""
        tasks = self._tasks_for_server(server_index)
        for task in tasks:
            self._pending.append(task)
        self.stats.scheduled += len(tasks)
        if tasks:
            self._count("scheduled", len(tasks))
            self._record_lag()
        return len(tasks)

    def detect_degraded(self, threshold: float) -> List[int]:
        """Queue repairs for every server whose suspicion score meets
        ``threshold`` (requires an attached health monitor).

        Detection is advisory — with crash-only faults a suspect is
        usually just slow or partitioned, so detection queues
        re-dispersal rather than replacement; swapping identity stays
        an operator/plan decision.
        """
        if self.monitor is None:
            raise ConfigurationError(
                "detect_degraded requires a HealthMonitor; construct "
                "the coordinator with monitor=...")
        suspects: List[int] = []
        for server, score in sorted(
                self.monitor.suspicion_scores().items()):
            if score >= threshold:
                index = int(str(server).lstrip("PC"))
                suspects.append(index)
                self.request_repair(index)
        return suspects

    def _tasks_for_server(self, fleet_index: int) -> List[RepairTask]:
        """Enumerate repairable registers placed on ``fleet_index``.

        Register tags come from the *other* hosts' materialised shard
        state (the operator's view of what exists; the target itself
        may be amnesiac).  Only AtomicMd shards are repairable — other
        protocols count as ``repair.skipped``.
        """
        tasks: List[RepairTask] = []
        directory = self.cluster.directory
        for spec in directory.shards:
            local = spec.local_server_index(fleet_index)
            if local is None:
                continue
            protocol = spec.protocol or self.cluster.protocol
            tags = set()
            for host in self.cluster.servers:
                if host.pid.index == fleet_index:
                    continue
                inner = host.inner_server(spec.shard_id)
                registers = getattr(inner, "_registers", None)
                if registers:
                    tags.update(registers)
            if protocol not in REPAIRABLE_PROTOCOLS:
                if tags:
                    self.stats.skipped += len(tags)
                    self._count("skipped", len(tags))
                continue
            for tag in sorted(tags):
                tasks.append(RepairTask(shard_id=spec.shard_id, tag=tag,
                                        target_index=local))
        return tasks

    # -- drive-loop surface --------------------------------------------------

    @property
    def lag(self) -> int:
        """Registers still awaiting repair (queued + in flight)."""
        return len(self._pending) + len(self._inflight)

    @property
    def idle(self) -> bool:
        """True when no repair or replacement work remains."""
        return (not self._pending and not self._inflight
                and all(entry.done for entry in self._scheduled))

    def pump(self) -> int:
        """Fire due replacements, reap done rounds, admit queued ones,
        then hold the storm's next crash if the fleet is degraded."""
        progress = self._fire_replacements()
        progress += self._reap()
        progress += self._admit()
        if progress:
            self.host.kv_flush()
            self._record_lag()
        self._hold_crashes()
        return progress

    def _degraded(self) -> bool:
        """Repair is outstanding, or a scheduled member is down and not
        yet replaced."""
        return self.lag > 0 or any(
            not entry.done and entry.host is not None
            and entry.host.crashed for entry in self._scheduled)

    def _hold_crashes(self) -> None:
        """Keep a crash that has not fired from firing at the next
        decision while the fleet is degraded, and all but the earliest
        while it is whole, moving each replacement with its crash: the
        drive loop delivers at most one message between two pumps, so a
        hold two decisions ahead is never overtaken."""
        waiting = [entry for entry in self._scheduled
                   if not entry.done and entry.host is not None
                   and not entry.host.crashed]
        if not self._degraded():
            waiting = waiting[1:]  # one crash at a time: the earliest
        if not waiting:
            return
        until = self._decision_clock() + 2
        for entry in waiting:
            entry.host.hold_crash(until)
            entry.due = max(entry.due, until + entry.replace_after)

    def _fire_replacements(self, force: bool = False) -> int:
        clock = self._decision_clock()
        fired = 0
        # A forced swap of a member still up opens a gap of its own, so
        # it waits for the fleet to be whole, like the crash it stands in
        # for; the swap of a member already down closes one.
        whole = not self._degraded()
        for entry in self._scheduled:
            if entry.done:
                continue
            if not force and clock < entry.due:
                continue
            if force and not whole and not (entry.host is not None
                                            and entry.host.crashed):
                continue
            self._replace(entry.server)
            entry.done = True
            fired += 1
            if force:
                break  # quiescent fallback: one swap per retry round
        return fired

    def _replace(self, server_index: int) -> None:
        replace_member(self.cluster, server_index)
        # The minted generation is the coordinator's admission context
        # too (shard math is unchanged, only the epoch stamp moves).
        self.host.directory = self.cluster.directory
        self.stats.replacements += 1
        self._count("replacements")
        tasks = self._tasks_for_server(server_index)
        for task in tasks:
            self._pending.append(task)
        self.stats.scheduled += len(tasks)
        if tasks:
            self._count("scheduled", len(tasks))

    def _reap(self) -> int:
        done = 0
        remaining: List[RepairTask] = []
        for task in self._inflight:
            handle = task.handle
            if handle is None or not handle.done:
                remaining.append(task)
                continue
            done += 1
            if getattr(handle, "repair_failed", False):
                self.stats.failed += 1
                self._count("failed")
            else:
                self.stats.completed += 1
                self._count("completed")
        if done:
            self._inflight = remaining
        return done

    def _admit(self) -> int:
        """Start queued rounds, once every session has drained onto the
        newest generation: a write admitted before the swap may have
        stored its block only at the member that crashed, and a repair
        that read before it completed would re-disperse the older
        version."""
        epoch = self.cluster.directory.epoch
        if any(session.epoch != epoch for session in self.cluster.sessions):
            return 0
        admitted = 0
        while self._pending and len(self._inflight) < self.batch_size:
            task = self._pending.popleft()
            self._invoke(task)
            self._inflight.append(task)
            admitted += 1
        return admitted

    def _invoke(self, task: RepairTask) -> None:
        client = self.host.inner_client(task.shard_id)
        if not hasattr(client, "invoke_repair"):
            # A shard-level protocol override displaced RepairClient.
            task.handle = None
            self.stats.skipped += 1
            self._count("skipped")
            task.attempts = self.max_attempts
            return
        self._seq += 1
        task.attempts += 1
        oid = f"c{self.host.pid.index}.r{self._seq}"
        task.handle = client.invoke_repair(task.tag, oid,
                                           task.target_index)

    def retry_pending(self) -> int:
        """Quiescent-network fallback, mirroring session retries.

        Re-invokes every stalled repair round with budget left, and —
        because the decision clock cannot advance on a silent network —
        force-fires the earliest still-scheduled replacement so churn
        plans terminate even when the workload drains first.  Returns
        the number of actions taken.
        """
        acted = self._fire_replacements(force=True)
        skipped: List[RepairTask] = []
        for task in list(self._inflight):
            handle = task.handle
            if handle is not None and handle.done:
                continue
            if task.attempts >= self.max_attempts:
                if handle is None:
                    skipped.append(task)
                continue
            self._invoke(task)
            self.stats.retries += 1
            self._count("retries")
            acted += 1
        for task in skipped:
            self._inflight.remove(task)
        if acted:
            self.host.kv_flush()
            self._record_lag()
        return acted


def attach_repair(cluster: KvCluster, plan: Optional[FaultPlan] = None,
                  batch_size: int = 2, max_attempts: int = 4,
                  monitor=None) -> RepairCoordinator:
    """Build a coordinator for ``cluster`` and hook it into the drive
    loop (sets :attr:`~repro.kv.cluster.KvCluster.repair`).

    ``plan`` pre-registers every ``replace_after`` crash as a scheduled
    member swap.  Repair stays fully off — and driven schedules stay
    byte-identical — unless this is called.
    """
    coordinator = RepairCoordinator(cluster, batch_size=batch_size,
                                    max_attempts=max_attempts,
                                    monitor=monitor)
    if plan is not None:
        coordinator.schedule_from_plan(plan)
    cluster.repair = coordinator
    return coordinator
