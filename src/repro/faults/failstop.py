"""Fail-stop faults at arbitrary protocol points.

A crash is a special case of a Byzantine fault, but *when* the crash
happens matters: a server that dies between its ``echo`` and its
``ready``, or after signing a share but before forwarding a value to a
listener, exercises completely different recovery paths than one that
was dead from the start.  :class:`FailStopServer` behaves honestly for
its first ``crash_after`` message deliveries and then goes permanently
silent — sweeping ``crash_after`` over a run tests liveness at *every*
crash point (see ``tests/test_failstop.py``).

Two trigger clocks are supported:

* ``"messages"`` (historical default) — the crash point counts this
  server's own deliveries, and recovery counts messages that arrive
  while it is down.
* ``"decisions"`` — both points read the fault injector's
  scheduling-decision counter (``simulator.chaos.decisions``, falling
  back to the logical clock without an injector).  Decisions advance
  globally even while a server receives nothing, so crash/recovery
  windows compose predictably with delay and partition holds that
  starve the crashed server of traffic.

:func:`fail_stop` derives the crashing variant of any server class (a
register server or a kv host); :func:`fault_overrides` turns a chaos
plan's crashes and Byzantine entries into the server factories a
cluster builder takes — the register campaign and the kv runner both
wire faults through it.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Optional

from repro.baselines.martin import MartinServer
from repro.common.errors import ConfigurationError
from repro.core.atomic import AtomicServer
from repro.core.atomic_md import AtomicMdServer
from repro.core.atomic_ns import AtomicNSServer
from repro.faults.byzantine_servers import byzantine
from repro.faults.variants import derive
from repro.net.message import Message

#: Valid values for the fail-stop trigger clock.
TRIGGERS = ("messages", "decisions")


class _FailStopMixin:
    """Honest behaviour until the trigger clock passes ``crash_after``.

    After the crash point, received messages are delivered (the paper's
    model always delivers) but never processed or kept, and the parked
    threads never resume — exactly a fail-stop party.

    With ``recover_after`` set, the crash is transient: once the
    recovery point passes (``recover_after`` further messages while
    down, or scheduling decisions with ``trigger="decisions"``), the
    server comes back up and replays the buffered backlog through
    normal processing — state is process-local, so recovery resumes
    from the pre-crash state plus everything delivered in the meantime
    (a reboot, not an amnesiac replacement).  The chaos plane's
    ``crash-recover`` plans are built on this; ``recover_after=None``
    keeps the historical permanently-crashed behaviour.
    """

    def __init__(self, *args, crash_after: int = 0, recover_after=None,
                 trigger: str = "messages", **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if trigger not in TRIGGERS:
            raise ConfigurationError(
                f"unknown fail-stop trigger {trigger!r}; "
                f"choose from {TRIGGERS}")
        self._crash_after = crash_after
        self._recover_after = recover_after
        self._trigger = trigger
        self._delivered = 0
        self._recovered = False
        self._down_buffer = []

    def _decision_clock(self) -> int:
        """The global trigger clock for ``trigger="decisions"``."""
        simulator = getattr(self, "simulator", None)
        if simulator is None:
            return 0
        chaos = getattr(simulator, "chaos", None)
        if chaos is not None:
            return chaos.decisions
        return simulator.time

    @property
    def crashed(self) -> bool:
        if self._recovered:
            return False
        if self._trigger == "decisions":
            return self._decision_clock() >= self._crash_after
        return self._delivered >= self._crash_after

    def hold_crash(self, until: int) -> None:
        """Move a crash that has not happened yet to ``until`` on its
        trigger clock (the repair plane holds a churn storm's next crash
        while the fleet is still degraded from the last one)."""
        if not self.crashed and self._crash_after < until:
            self._crash_after = until

    def _recovery_due(self) -> bool:
        if self._trigger == "decisions":
            return (self._decision_clock()
                    >= self._crash_after + self._recover_after)
        return len(self._down_buffer) >= self._recover_after

    def receive(self, message: Message) -> None:  # type: ignore[override]
        if self.crashed:
            if self._recover_after is None:
                return  # down for good: nothing will ever read it
            self._down_buffer.append(message)
            if self._recovery_due():
                self._recovered = True
                backlog, self._down_buffer = self._down_buffer, []
                for held in backlog:
                    self._delivered += 1
                    super().receive(held)
            return
        self._delivered += 1
        super().receive(message)


def fail_stop(server_cls: type) -> type:
    """The fail-stop variant of ``server_cls``: :class:`_FailStopMixin`
    in front of any server class — every register server in
    :data:`repro.cluster.PROTOCOLS`, so a protocol is crashable by
    construction, and the kv host ``KvServer``, whose crash downs
    every shard it serves.  The variant takes the honest constructor's
    arguments plus ``crash_after``, ``recover_after`` and ``trigger``.
    Memoized (:func:`~repro.faults.variants.derive`):
    ``fail_stop(AtomicMdServer) is FailStopMdServer``.
    """
    return derive(_FailStopMixin, server_cls,
                  "FailStop" + server_cls.__name__.removeprefix("Atomic"))


FailStopServer = fail_stop(AtomicServer)
FailStopNSServer = fail_stop(AtomicNSServer)
#: Crashing an AtomicMd server downs both of its planes at once: it
#: stops joining metadata quorums, and no block of its reaches a reader
#: after its last ``md-meta``.
FailStopMdServer = fail_stop(AtomicMdServer)
FailStopMartinServer = fail_stop(MartinServer)


def fault_overrides(plan, server_cls: type, host: Optional[type] = None
                    ) -> Optional[Dict[int, Callable]]:
    """Server factories implementing ``plan``'s crashes and Byzantine
    behaviours: the one route by which a
    :class:`~repro.chaos.plan.FaultPlan`'s code-level faults reach a
    deployment (message-level ones go through the injector).

    With ``host=None`` the result suits
    :func:`repro.cluster.build_cluster`: a crashing server is
    ``fail_stop(server_cls)``, a Byzantine one
    ``byzantine(server_cls, behaviour)``.  With ``host=KvServer`` it
    suits :func:`repro.kv.cluster.build_kv_cluster`, where the failure
    unit is the host: a crash derives ``fail_stop(host)``, a behaviour
    runs in an honest host as the class it serves per shard.  A
    behaviour that does not deviate from ``server_cls`` raises
    :class:`ConfigurationError`.  Returns ``None`` when the plan
    replaces no server.
    """
    hosted = {} if host is None else {"server_cls": server_cls}
    overrides: Dict[int, Callable] = {}
    for crash in plan.crashes:
        overrides[crash.server] = partial(
            fail_stop(host or server_cls), crash_after=crash.after,
            recover_after=crash.recover_after, trigger=crash.trigger,
            **hosted)
    for entry in plan.byzantine:
        behaving = byzantine(server_cls, entry.behaviour)
        overrides[entry.server] = (
            behaving if host is None
            else partial(host, server_cls=behaving))
    return overrides or None
