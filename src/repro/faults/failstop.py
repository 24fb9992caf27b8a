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
"""

from __future__ import annotations

from repro.baselines.martin import MartinServer
from repro.common.errors import ConfigurationError
from repro.common.ids import PartyId
from repro.config import SystemConfig
from repro.core.atomic import AtomicServer
from repro.core.atomic_md import AtomicMdServer
from repro.core.atomic_ns import AtomicNSServer
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

    def _init_failstop(self, crash_after: int,
                       recover_after=None,
                       trigger: str = "messages") -> None:
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

    @property
    def recovered(self) -> bool:
        """Whether a transient crash has already healed."""
        return self._recovered

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


class FailStopServer(_FailStopMixin, AtomicServer):
    """Protocol Atomic server that crashes after N deliveries."""

    def __init__(self, pid: PartyId, config: SystemConfig,
                 initial_value: bytes = b"", crash_after: int = 0,
                 recover_after=None, trigger: str = "messages"):
        super().__init__(pid, config, initial_value)
        self._init_failstop(crash_after, recover_after=recover_after,
                            trigger=trigger)


class FailStopNSServer(_FailStopMixin, AtomicNSServer):
    """Protocol AtomicNS server that crashes after N deliveries."""

    def __init__(self, pid: PartyId, config: SystemConfig,
                 initial_value: bytes = b"", crash_after: int = 0,
                 recover_after=None, trigger: str = "messages"):
        super().__init__(pid, config, initial_value)
        self._init_failstop(crash_after, recover_after=recover_after,
                            trigger=trigger)


class FailStopMdServer(_FailStopMixin, AtomicMdServer):
    """Protocol AtomicMd server that crashes after N deliveries.

    Crashing an AtomicMd server downs both of its planes at once: it
    stops joining metadata quorums *and* stops serving blocks, so
    readers that had counted it among their ``k`` data-plane targets
    must escalate to another agreeing server.
    """

    def __init__(self, pid: PartyId, config: SystemConfig,
                 initial_value: bytes = b"", crash_after: int = 0,
                 recover_after=None, trigger: str = "messages"):
        super().__init__(pid, config, initial_value)
        self._init_failstop(crash_after, recover_after=recover_after,
                            trigger=trigger)


class FailStopMartinServer(_FailStopMixin, MartinServer):
    """SBQ-L server that crashes after N deliveries."""

    def __init__(self, pid: PartyId, config: SystemConfig,
                 initial_value: bytes = b"", crash_after: int = 0,
                 recover_after=None, trigger: str = "messages"):
        super().__init__(pid, config, initial_value)
        self._init_failstop(crash_after, recover_after=recover_after,
                            trigger=trigger)
