"""Deployment facade: build a simulated storage cluster in one call.

Wires a :class:`~repro.net.simulator.Simulator` with ``n`` register servers
and any number of clients for a chosen protocol, optionally replacing some
servers or clients with Byzantine variants from :mod:`repro.faults` (or any
compatible process).  This is the entry point examples, tests, and the
experiment harness all share; :func:`run_register_case` is the register
plane's one runner on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines.abc_register import AbcRegisterClient, AbcRegisterServer
from repro.baselines.bazzi_ding import BazziDingClient, BazziDingServer
from repro.baselines.goodson import GoodsonClient, GoodsonServer
from repro.baselines.martin import MartinClient, MartinServer
from repro.baselines.phalanx import PhalanxClient, PhalanxServer
from repro.common.errors import (
    ConfigurationError,
    LivenessError,
    SimulationError,
)
from repro.common.ids import PartyId, client_id, server_id
from repro.config import SystemConfig
from repro.core.atomic import AtomicClient, AtomicServer
from repro.core.atomic_md import AtomicMdClient, AtomicMdServer
from repro.core.atomic_ns import AtomicNSClient, AtomicNSServer
from repro.core.no_listeners import NoListenersClient, NoListenersServer
from repro.core.register import OperationHandle
from repro.net.process import Process
from repro.net.schedulers import RandomScheduler, Scheduler
from repro.net.simulator import Simulator

#: protocol name -> (server class, client class)
PROTOCOLS = {
    "atomic": (AtomicServer, AtomicClient),
    "atomic_ns": (AtomicNSServer, AtomicNSClient),
    # Metadata/data separation (MDStore-style): tiny metadata quorums,
    # blocks pushed point-to-point and read from only k servers.
    # Requires k <= n - 2t (use SystemConfig(n, t, k=t + 1)).
    "atomic_md": (AtomicMdServer, AtomicMdClient),
    "martin": (MartinServer, MartinClient),
    "bazzi_ding": (BazziDingServer, BazziDingClient),
    "goodson": (GoodsonServer, GoodsonClient),
    "phalanx": (PhalanxServer, PhalanxClient),
    # The §3.4 alternative: operations serialized by atomic broadcast.
    "abc": (AbcRegisterServer, AbcRegisterClient),
    # Ablation variant: Protocol Atomic without the listeners mechanism
    # (reads retry; wait-freedom is lost under concurrency).
    "no_listeners": (NoListenersServer, NoListenersClient),
}


def protocol_classes(protocol: str) -> Tuple[type, type]:
    """``protocol``'s ``(server class, client class)``; the one place an
    unknown protocol name is rejected."""
    if protocol not in PROTOCOLS:
        raise ConfigurationError(
            f"unknown protocol {protocol!r}; choose from "
            f"{sorted(PROTOCOLS)}")
    return PROTOCOLS[protocol]


def default_k(protocol: str, t: int, k: Optional[int] = None
              ) -> Optional[int]:
    """The erasure threshold ``protocol`` deploys with: an explicit
    ``k`` as given, else ``t + 1`` for ``atomic_md`` — it reads blocks
    from ``k`` servers under ``n - t`` metadata quorums, which needs
    ``k <= n - 2t`` — and ``None`` (the config's own ``n - t``) for
    every other protocol.
    """
    if k is None and protocol == "atomic_md":
        return t + 1
    return k


ProcessFactory = Callable[[PartyId, SystemConfig], Process]


@dataclass
class Cluster:
    """A wired simulation: config, network, servers, and clients."""

    config: SystemConfig
    simulator: Simulator
    servers: List[Process]
    clients: List[Process]
    protocol: str = "atomic_ns"

    def client(self, index: int) -> Process:
        """Client ``C_index`` (1-based, as the paper numbers clients)."""
        return self.clients[index - 1]

    def server(self, index: int) -> Process:
        """Server ``P_index`` (1-based)."""
        return self.servers[index - 1]

    # -- convenience synchronous operations --------------------------------

    def run(self, max_steps: int = 1_000_000) -> int:
        """Deliver messages until quiescence."""
        return self.simulator.run(max_steps)

    def write(self, client_index: int, tag: str, oid: str,
              value: bytes) -> OperationHandle:
        """Invoke a write and run the network until it terminates.

        Raises :class:`LivenessError` when the network quiesces with the
        operation still pending (``run_until`` reports that explicitly)."""
        handle = self.client(client_index).invoke_write(tag, oid, value)
        try:
            self.simulator.run_until(lambda: handle.done)
        except LivenessError as exc:
            raise LivenessError(f"write {oid} did not terminate") from exc
        return handle

    def read(self, client_index: int, tag: str,
             oid: str) -> OperationHandle:
        """Invoke a read and run the network until it terminates.

        Raises :class:`LivenessError` when the network quiesces with the
        operation still pending (``run_until`` reports that explicitly)."""
        handle = self.client(client_index).invoke_read(tag, oid)
        try:
            self.simulator.run_until(lambda: handle.done)
        except LivenessError as exc:
            raise LivenessError(f"read {oid} did not terminate") from exc
        return handle


def build_cluster(
    config: SystemConfig,
    protocol: str = "atomic_ns",
    num_clients: int = 1,
    scheduler: Optional[Scheduler] = None,
    initial_value: bytes = b"",
    server_overrides: Optional[Dict[int, ProcessFactory]] = None,
    client_overrides: Optional[Dict[int, ProcessFactory]] = None,
) -> Cluster:
    """Build a cluster of ``config.n`` servers plus ``num_clients`` clients.

    ``server_overrides`` / ``client_overrides`` map 1-based indices to
    factories producing replacement processes — this is how Byzantine
    parties are injected.  The number of overridden servers is the
    experimenter's responsibility to keep within ``config.t`` when honest
    behaviour is expected.
    """
    server_cls, client_cls = protocol_classes(protocol)
    simulator = Simulator(scheduler=scheduler)
    server_overrides = server_overrides or {}
    client_overrides = client_overrides or {}

    servers: List[Process] = []
    for index in range(1, config.n + 1):
        pid = server_id(index)
        if index in server_overrides:
            process = server_overrides[index](pid, config)
        else:
            process = server_cls(pid, config, initial_value=initial_value)
        servers.append(simulator.add_process(process))

    clients: List[Process] = []
    for index in range(1, num_clients + 1):
        pid = client_id(index)
        if index in client_overrides:
            process = client_overrides[index](pid, config)
        else:
            process = client_cls(pid, config)
        clients.append(simulator.add_process(process))

    return Cluster(config=config, simulator=simulator, servers=servers,
                   clients=clients, protocol=protocol)


def run_register_case(protocol: str, n: int, t: int,
                      k: Optional[int] = None, clients: int = 2,
                      writes: int = 3, reads: int = 3, seed: int = 0,
                      value_size: int = 64, commitment: str = "vector",
                      plan=None, tracer=None,
                      record_deliveries: bool = False,
                      require_done: bool = True
                      ) -> Tuple[Dict[str, OperationHandle], Cluster]:
    """Run one seeded register workload and return ``(handles, cluster)``.

    The register plane's one runner (``repro simulate`` / ``trace``, the
    chaos campaign, F11, the golden fixtures): config (``k``
    through :func:`default_k`), cluster, scheduler, faults, tracer and
    :func:`~repro.workloads.generator.random_workload` on tag ``"reg"``,
    all seeded by ``seed``.  ``plan`` (a
    :class:`~repro.chaos.plan.FaultPlan`) is validated and supplies the
    scheduler, the crashing and Byzantine servers
    (:func:`~repro.faults.failstop.fault_overrides`) and an attached
    :class:`~repro.chaos.injector.FaultInjector`; ``None`` runs
    fault-free under :class:`~repro.net.schedulers.RandomScheduler`.
    ``tracer`` is anything with ``attach(simulator)``;
    ``record_deliveries`` logs every delivery, not only inputs and
    outputs.  A :class:`~repro.common.errors.SimulationError` from the
    drive (a stall under ``require_done``, a run that never quiesces)
    is re-raised carrying ``cluster``, as
    :func:`repro.kv.bench.run_kv_case` does.
    """
    # Imported here: the chaos, fault and workload layers build on this
    # module.
    from repro.chaos.injector import FaultInjector
    from repro.faults.failstop import fault_overrides
    from repro.workloads.generator import random_workload, run_workload

    scheduler, overrides = RandomScheduler(seed), None
    if plan is not None:
        plan.validate(n, t)
        scheduler = plan.build_scheduler(seed)
        overrides = fault_overrides(plan, protocol_classes(protocol)[0])
    config = SystemConfig(n=n, t=t, k=default_k(protocol, t, k),
                          commitment=commitment, seed=seed)
    cluster = build_cluster(config, protocol=protocol, num_clients=clients,
                            scheduler=scheduler, server_overrides=overrides)
    cluster.simulator.record_deliveries = record_deliveries
    if tracer is not None:
        tracer.attach(cluster.simulator)
    if plan is not None:
        cluster.simulator.attach_injector(FaultInjector(plan))
    operations = random_workload(clients, writes=writes, reads=reads,
                                 seed=seed, value_size=value_size)
    try:
        handles = run_workload(cluster, "reg", operations, seed=seed,
                               require_done=require_done)
    except SimulationError as error:
        error.cluster = cluster
        raise
    return handles, cluster
