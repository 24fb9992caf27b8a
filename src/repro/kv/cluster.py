"""Wiring and drive loop for key-value deployments.

:func:`build_kv_cluster` assembles one fleet: ``n`` :class:`KvServer`
hosts, one :class:`KvClientHost` plus :class:`KvSession` per session,
and a shared :class:`Simulator`.  :func:`drive` runs a workload to
completion — interleaving submissions with deliveries under a seeded
schedule, honouring backpressure, and spending session retry budgets
when chaos stalls the network — so harnesses and tests share one
correct loop instead of re-deriving its edge cases.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.cluster import protocol_classes
from repro.common.errors import (
    BackpressureError,
    LivenessError,
    SimulationError,
)
from repro.common.ids import PartyId, client_id, server_id
from repro.faults.failstop import _FailStopMixin
from repro.kv.directory import KvDirectory
from repro.kv.mux import KvClientHost, KvServer
from repro.kv.session import KvSession
from repro.net.schedulers import Scheduler
from repro.net.simulator import Simulator
from repro.workloads.kv import KvOp

#: Factory signature for replacing a kv server host (fault injection).
KvServerFactory = Callable[[PartyId, KvDirectory], KvServer]


class FailStopKvServer(_FailStopMixin, KvServer):
    """A kv server host that fail-stops after ``crash_after`` deliveries.

    Crashing the *host* downs every shard it serves at once — the
    realistic failure unit (a machine, not a register).  Supports the
    same transient-recovery and trigger-clock options as the register
    fail-stop wrappers.
    """

    def __init__(self, pid: PartyId, directory: KvDirectory,
                 server_cls=None, initial_value: bytes = b"",
                 crash_after: int = 0, recover_after=None,
                 trigger: str = "messages"):
        kwargs = {} if server_cls is None else {"server_cls": server_cls}
        super().__init__(pid, directory, initial_value=initial_value,
                         **kwargs)
        self._init_failstop(crash_after, recover_after=recover_after,
                            trigger=trigger)


@dataclass
class KvCluster:
    """A wired key-value deployment: directory, network, hosts, sessions."""

    directory: KvDirectory
    simulator: Simulator
    servers: List[KvServer]
    sessions: List[KvSession]
    protocol: str = "atomic"
    #: repair/reconfiguration coordinator (``None`` keeps the plane off
    #: and the drive loop byte-identical to pre-repair schedules; see
    #: :func:`repro.repair.attach_repair`).
    repair: Optional[object] = None

    def session(self, index: int) -> KvSession:
        """Session ``index`` (1-based, matching client numbering)."""
        return self.sessions[index - 1]

    def settle(self, max_steps: int = 1_000_000) -> Dict[str, int]:
        """Run until every session is idle; returns drive statistics."""
        return drive(self, (), max_steps=max_steps)


@dataclass
class DriveStats:
    """Counters accumulated by one :func:`drive` run."""

    steps: int = 0
    submitted: int = 0
    backpressure_hits: int = 0
    retries: int = 0
    retry_rounds: int = 0
    completed: int = field(default=0)


def build_kv_cluster(directory: KvDirectory, protocol: str = "atomic",
                     num_sessions: int = 1,
                     scheduler: Optional[Scheduler] = None,
                     initial_value: bytes = b"",
                     server_overrides: Optional[
                         Dict[int, KvServerFactory]] = None,
                     max_queue: int = 32,
                     max_inflight_per_shard: int = 1,
                     max_attempts: int = 4,
                     cache_size: int = 0,
                     lease_ticks: int = 0) -> KvCluster:
    """Build a kv deployment over ``directory``'s fleet.

    ``server_overrides`` maps 1-based fleet server indices to factories
    (used by chaos harnesses to substitute fail-stop hosts).  The inner
    protocol comes from :data:`repro.cluster.PROTOCOLS`; shards whose
    :class:`~repro.kv.directory.ShardSpec` carries a ``protocol``
    override materialise that protocol instead of the cluster default.
    ``cache_size``/``lease_ticks`` configure every session's read cache
    (see :mod:`repro.kv.session_cache`; both default off).
    """
    server_cls, client_cls = protocol_classes(protocol)
    overrides = server_overrides or {}
    simulator = Simulator(scheduler=scheduler)
    servers: List[KvServer] = []
    for index in range(1, directory.fleet_config.n + 1):
        pid = server_id(index)
        factory = overrides.get(index)
        if factory is not None:
            host = factory(pid, directory)
        else:
            host = KvServer(pid, directory, server_cls=server_cls,
                            initial_value=initial_value)
        simulator.add_process(host)
        servers.append(host)
    sessions: List[KvSession] = []
    for index in range(1, num_sessions + 1):
        client_host = KvClientHost(client_id(index), directory,
                                   client_cls=client_cls)
        simulator.add_process(client_host)
        sessions.append(KvSession(
            client_host, directory, index=index, max_queue=max_queue,
            max_inflight_per_shard=max_inflight_per_shard,
            max_attempts=max_attempts, cache_size=cache_size,
            lease_ticks=lease_ticks))
    return KvCluster(directory=directory, simulator=simulator,
                     servers=servers, sessions=sessions, protocol=protocol)


def _submit(cluster: KvCluster, op: KvOp) -> None:
    session = cluster.session(op.session_index)
    if op.kind == "write":
        session.put(op.key, op.value)
    else:
        session.get(op.key)


def drive(cluster: KvCluster, operations: Sequence[KvOp], seed: int = 0,
          invoke_probability: float = 0.25,
          max_steps: int = 2_000_000) -> Dict[str, int]:
    """Run ``operations`` through ``cluster`` until all sessions idle.

    Submissions interleave with deliveries: while messages are pending,
    each loop iteration submits the next operation with probability
    ``invoke_probability`` (seeded), recreating the concurrency the
    register harnesses get from ``run_workload``; a quiescent network
    forces a submission so progress never depends on chance.  A full
    session queue counts a backpressure hit and the operation waits.
    When the network quiesces with operations still in flight, sessions
    spend their retry budgets; exhaustion raises
    :class:`LivenessError`, whose ``stats`` is the dictionary a
    completed run would have returned.
    """
    rng = random.Random(seed)
    queue: List[KvOp] = list(operations)
    cursor = 0
    stats = DriveStats()
    simulator = cluster.simulator
    sessions = cluster.sessions
    repair = cluster.repair
    while True:
        progress = 0
        for session in sessions:
            progress += session.pump()
        if repair is not None:
            progress += repair.pump()
        remaining = len(queue) - cursor
        if not remaining and all(session.idle for session in sessions) \
                and (repair is None or repair.idle):
            break
        stats.steps += 1
        if stats.steps > max_steps:
            raise SimulationError(
                f"kv drive exceeded {max_steps} steps "
                f"({remaining} operations unsubmitted)")
        if remaining and (not simulator.undelivered_count
                          or rng.random() < invoke_probability):
            try:
                _submit(cluster, queue[cursor])
                cursor += 1
                stats.submitted += 1
                progress += 1
            except BackpressureError:
                stats.backpressure_hits += 1
        if simulator.undelivered_count:
            simulator.step()
        elif not progress:
            retried = 0
            for session in sessions:
                retried += session.retry_pending()
            if repair is not None:
                retried += repair.retry_pending()
            stats.retries += retried
            if retried:
                stats.retry_rounds += 1
            elif not simulator.undelivered_count:
                pending = sum(session.inflight for session in sessions)
                raise LivenessError(
                    f"kv drive stalled: {pending} operations in flight, "
                    "retry budget exhausted, network quiescent",
                    stats=_drive_result(stats, sessions))
    return _drive_result(stats, sessions)


def _drive_result(stats: DriveStats,
                  sessions: Sequence[KvSession]) -> Dict[str, int]:
    stats.completed = sum(
        1 for session in sessions for handle in session.handles
        if handle.done)
    return {
        "steps": stats.steps,
        "submitted": stats.submitted,
        "completed": stats.completed,
        "backpressure_hits": stats.backpressure_hits,
        "retries": stats.retries,
        "retry_rounds": stats.retry_rounds,
    }
