"""The asynchronous network simulator (the paper's system model).

A :class:`Simulator` owns a set of party processes, a bag of in-flight
messages, and a :class:`~repro.net.schedulers.Scheduler` playing the
adversary's role of choosing delivery order.  Each delivery activates the
recipient, which runs its threads to quiescence (see
:mod:`repro.net.process`); the interleaving of activations defines the
logical global clock — no two events share a point in time.

Every run is *complete*: :meth:`run` keeps delivering until no message is
in flight, so every message sent between honest parties is eventually
delivered, exactly as the model requires.  A step bound guards against
protocols that generate traffic forever (a bug, or a Byzantine flood that
experiments cap explicitly).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import LivenessError, SimulationError
from repro.common.ids import PartyId
from repro.net.message import (
    EVENT_CHAOS,
    EVENT_DELIVER,
    EVENT_INPUT,
    EVENT_OUTPUT,
    LocalEvent,
    Message,
)
from repro.net.metrics import Metrics
from repro.net.process import Process
from repro.net.schedulers import FifoScheduler, Scheduler

#: The callbacks an observer may define, in the order
#: :meth:`Simulator.add_observer` looks them up.
OBSERVER_HOOKS = ("on_send", "on_deliver", "on_input", "on_output",
                  "on_quorum", "on_verify_fail", "on_chaos", "on_tick",
                  "on_count")


class Simulator:
    """Event-driven simulation of the asynchronous message-passing model.

    Parameters
    ----------
    scheduler:
        Delivery-order strategy (defaults to FIFO): any object with a
        ``choose(pending)`` returning the index of the message to
        deliver next, the one call the simulator makes on it.  Pass a
        seeded :class:`~repro.net.schedulers.RandomScheduler` for
        adversarial reorderings.  Also a public attribute; a swap
        mid-run takes effect at the next :meth:`step`.

    Set the public attribute ``record_deliveries`` before the run to
    also log every message delivery in the event log (memory-heavy; off
    by default — input/output actions are always logged).
    """

    def __init__(self, scheduler: Optional[Scheduler] = None):
        self.scheduler = scheduler or FifoScheduler()
        self.metrics = Metrics()
        self.event_log: List[LocalEvent] = []
        self.time = 0
        self._processes: Dict[PartyId, Process] = {}
        self._server_pids: List[PartyId] = []
        self._pending: List[Message] = []
        self._next_msg_id = 0
        self.record_deliveries = False
        self._invariants: List[Callable[["Simulator"], None]] = []
        self._observers: List[Any] = []
        # Each hook's bound callbacks in attach order: with nothing
        # attached every report is a loop over an empty list.
        self._hooks: Dict[str, List[Callable[..., None]]] = {
            name: [] for name in OBSERVER_HOOKS}
        # The traffic hooks, held live: a report is built only when
        # one of them is non-empty.
        self._send_hooks = self._hooks["on_send"]
        self._deliver_hooks = self._hooks["on_deliver"]
        self._tick_hooks = self._hooks["on_tick"]
        #: attached fault injector (duck-typed; see
        #: :class:`repro.chaos.injector.FaultInjector`).  ``None`` keeps
        #: the hot path free of interposition overhead; an injector with
        #: an empty plan is byte-identical to no injector at all.
        self.chaos = None

    def add_observer(self, observer: Any) -> None:
        """Attach an observer beside those already attached.

        Binds whichever of :data:`OBSERVER_HOOKS` ``observer`` defines;
        every report reaches the observers in attach order.  See
        :class:`repro.obs.recorder.TraceRecorder` for the signatures;
        ``on_chaos(event)`` sees each injected fault and
        ``on_tick(time)`` runs after each delivery's invariants.
        ``on_send(sender, sends, pending)`` and ``on_deliver(sender,
        recipient, deliveries, pending)`` see every message sent and
        delivered: each one the simulator admits and delivers, as a
        batch of one, and the inner messages of kv envelopes, a batch
        per flush and per envelope (see :meth:`report_send_batch`).
        Observers are measurement-only: they must not feed back into
        the schedule.  The same object attaches once.
        """
        if any(attached is observer for attached in self._observers):
            raise SimulationError("this observer is already attached")
        self._observers.append(observer)
        for name, hooks in self._hooks.items():
            hook = getattr(observer, name, None)
            if hook is not None:
                hooks.append(hook)

    @property
    def observers(self) -> Tuple[Any, ...]:
        """The attached observers, in attach order."""
        return tuple(self._observers)

    def observer_hooks(self, hook: str) -> Sequence[Callable[..., None]]:
        """The live list of callbacks bound to ``hook``.

        It grows in place as observers attach, so a reporter may hold
        it from binding on and test it per report — empty means no
        observer would read what the report builds.
        """
        return self._hooks[hook]

    def attach_injector(self, injector) -> None:
        """Attach a fault injector (one per run; attach before the run).

        The injector intercepts every enqueue (``intercept_enqueue``) and
        every scheduling decision (``before_choose``); see
        :class:`repro.chaos.injector.FaultInjector` for the reference
        implementation.  With no faults to inject the interposition is
        schedule-preserving: event logs are byte-identical to a run
        without an injector.
        """
        if self.chaos is not None:
            raise SimulationError("a fault injector is already attached")
        self.chaos = injector
        bind = getattr(injector, "bind", None)
        if bind is not None:
            bind(self)

    # -- topology -----------------------------------------------------------

    def add_process(self, process: Process) -> Process:
        """Attach a party to the network; returns it for chaining."""
        if process.pid in self._processes:
            raise SimulationError(f"duplicate party {process.pid}")
        self._processes[process.pid] = process
        if process.pid.is_server:
            self._server_pids.append(process.pid)
            self._server_pids.sort()
        process.bind(self)
        return process

    def replace_process(self, process: Process) -> Process:
        """Swap the party at ``process.pid`` for ``process``; returns
        the replaced process.

        The reconfiguration primitive (see :mod:`repro.repair`): fleet
        member replacement keeps the *identity* — same :class:`PartyId`,
        same channels — while the machine behind it changes, so the
        roster, in-flight messages, and every other party's addressing
        are untouched.  Messages already in flight to the identity are
        delivered to the replacement (which, being amnesiac, treats
        them as its fresh state dictates).  The old process is unbound
        and never scheduled again.
        """
        old = self._processes.get(process.pid)
        if old is None:
            raise SimulationError(
                f"cannot replace unknown party {process.pid}")
        self._processes[process.pid] = process
        process.bind(self)
        return old

    @property
    def server_pids(self) -> List[PartyId]:
        """All server identities, in index order."""
        return list(self._server_pids)

    def process(self, pid: PartyId) -> Process:
        """Look up a party by identity."""
        try:
            return self._processes[pid]
        except KeyError:
            raise SimulationError(f"unknown party {pid}") from None

    @property
    def processes(self) -> List[Process]:
        return list(self._processes.values())

    # -- messaging ------------------------------------------------------------

    def enqueue(self, sender: PartyId, recipient: PartyId, tag: str,
                mtype: str, payload: Tuple[Any, ...],
                wire_size: Optional[int] = None) -> None:
        """Called by processes to send; the message joins the in-flight bag.

        The sender identity comes from the calling process, so origins are
        authenticated (secure channels).  Unknown recipients are an error —
        the topology is fixed before the run.

        ``wire_size`` lets senders that already know a message's size —
        broadcasts, for all ``n`` copies, and kv hosts, which add up
        their entries — stamp it instead of having it re-derived (the
        size is a pure function of ``(tag, mtype, payload)``).
        """
        if recipient not in self._processes:
            raise SimulationError(f"message to unknown party {recipient}")
        sender_process = self._processes.get(sender)
        if sender_process is not None:
            depth = sender_process.activation_depth + 1
            cause_id = sender_process.activation_msg_id
        else:
            depth, cause_id = 1, None
        message = Message(tag, mtype, sender, recipient, payload,
                          self._next_msg_id, depth, cause_id, wire_size)
        self._next_msg_id += 1
        if self.chaos is not None:
            for actual in self.chaos.intercept_enqueue(message):
                self._admit(actual)
        else:
            self._admit(message)

    def _admit(self, message: Message) -> None:
        """Place a message into the in-flight bag (post-interception)
        and report it to the ``on_send`` observers, a batch of one."""
        pending = self._pending
        pending.append(message)
        self.metrics.record(message)
        if self._send_hooks:
            sends = ((message, message.recipient, message.wire_size(),
                      self.time),)
            for hook in self._send_hooks:
                hook(message.sender, sends, len(pending))

    def report_send_batch(self, sender: PartyId,
                          sends: Sequence[Tuple[Any, PartyId, int, int]]
                          ) -> None:
        """Report inner messages a kv host is about to flush, in send
        order, to the ``on_send`` observers.

        Each send is ``(entry, recipient, wire_bytes, time)``, as for a
        message the simulator admits: the
        :class:`~repro.kv.envelope.KvEntry` (``tag``, ``mtype``,
        ``payload``, ``msg_id``, ``depth``, ``cause_id``, the fields of
        a :class:`~repro.net.message.Message`), its fleet recipient,
        its content's wire size and the tick it was buffered at;
        ``sender`` sent them all.  The in-flight count is one for the
        whole batch: nothing is admitted between an entry's buffering
        and its host's flush.
        """
        in_flight = len(self._pending)
        for hook in self._send_hooks:
            hook(sender, sends, in_flight)

    def report_deliver_batch(self, sender: PartyId, recipient: PartyId,
                             deliveries: Sequence[Tuple[Any, int, int]]
                             ) -> None:
        """Report the inner messages one kv envelope delivered, in
        delivery order, to the ``on_deliver`` observers.

        Each delivery is ``(entry, inbox_depth, time)``, as for a
        message the simulator delivers: the entry, the size of the
        receiving inner process's buffer when it arrived and the tick
        it arrived at; ``sender`` and ``recipient`` are the envelope's
        fleet parties.  The in-flight count is one for the batch, as in
        :meth:`report_send_batch`.
        """
        in_flight = len(self._pending)
        for hook in self._deliver_hooks:
            hook(sender, recipient, deliveries, in_flight)

    def fresh_msg_id(self) -> int:
        """Allocate a message identifier outside :meth:`enqueue`: a kv
        inner send's, or a chaos duplicate's (distinct in traces)."""
        msg_id = self._next_msg_id
        self._next_msg_id += 1
        return msg_id

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def undelivered_count(self) -> int:
        """Messages not yet delivered: in flight plus any held back by an
        attached fault injector (delay windows, unhealed partitions)."""
        count = len(self._pending)
        if self.chaos is not None:
            count += self.chaos.held_count
        return count

    # -- event log --------------------------------------------------------------

    def _tick(self) -> int:
        self.time += 1
        return self.time

    def _activation_cause(self, party: PartyId) -> Optional[int]:
        """``msg_id`` of the delivery the party is currently processing."""
        process = self._processes.get(party)
        return process.activation_msg_id if process is not None else None

    def record_input(self, party: PartyId, tag: str, action: str,
                     payload: Tuple[Any, ...]) -> LocalEvent:
        """Log an input action ``(tag, in, action, ...)`` at a party."""
        event = LocalEvent(self._tick(), party, EVENT_INPUT, tag, action,
                           payload, cause_id=self._activation_cause(party))
        self.event_log.append(event)
        for hook in self._hooks["on_input"]:
            hook(event)
        return event

    def record_output(self, party: PartyId, tag: str, action: str,
                      payload: Tuple[Any, ...]) -> LocalEvent:
        """Log an output action ``(tag, out, action, ...)`` at a party."""
        event = LocalEvent(self._tick(), party, EVENT_OUTPUT, tag, action,
                           payload, cause_id=self._activation_cause(party))
        self.event_log.append(event)
        for hook in self._hooks["on_output"]:
            hook(event)
        return event

    def record_chaos(self, party: PartyId, tag: str, action: str,
                     payload: Tuple[Any, ...]) -> LocalEvent:
        """Log an injected fault ``(tag, chaos, action, ...)``.

        Called by an attached fault injector for every injected event, so
        chaos runs carry their full fault schedule in the event log (the
        same log the golden-schedule digests and replay compare).
        """
        event = LocalEvent(self._tick(), party, EVENT_CHAOS, tag, action,
                           payload)
        self.event_log.append(event)
        for hook in self._hooks["on_chaos"]:
            hook(event)
        return event

    # -- measurement-only reports ----------------------------------------------
    # Parties report here (or to a ``ShardBus`` in front of it), never to
    # an observer; no report logs an event or ticks the clock.

    def notify_quorum(self, party: PartyId, tag: str, mtype: str,
                      threshold: int, quorum: Sequence[Message],
                      releasing_msg_id: Optional[int]) -> None:
        """Report a ``condition_quorum`` wait state at ``party``
        crossing ``threshold`` on ``quorum`` while processing
        ``releasing_msg_id``."""
        hooks = self._hooks["on_quorum"]
        if not hooks:
            return
        quorum_msg_ids = tuple(message.msg_id for message in quorum)
        for hook in hooks:
            hook(time=self.time, party=party, tag=tag, mtype=mtype,
                 threshold=threshold, quorum_msg_ids=quorum_msg_ids,
                 releasing_msg_id=releasing_msg_id)

    def notify_verify_fail(self, party: PartyId, suspect: PartyId,
                           tag: str, mtype: str) -> None:
        """Report a failed cryptographic check at ``party`` on traffic
        from ``suspect``."""
        for hook in self._hooks["on_verify_fail"]:
            hook(party, suspect, tag, mtype)

    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the observers' counter ``name``."""
        for hook in self._hooks["on_count"]:
            hook(name, amount)

    def add_invariant(self, check: Callable[["Simulator"], None]) -> None:
        """Register a global invariant, re-checked after every delivery.

        ``check(simulator)`` should raise (e.g. ``AssertionError``) on
        violation.  Invariant hooks make safety properties *continuously*
        checkable in tests, not just at quiescence — a violation is
        caught at the exact delivery that introduced it.
        """
        self._invariants.append(check)

    # -- execution -----------------------------------------------------------------

    def step(self) -> bool:
        """Deliver one message chosen by the scheduler.

        Returns ``False`` when nothing is in flight (including nothing
        held back by an attached fault injector).
        """
        if self.chaos is not None:
            self.chaos.before_choose()
        pending = self._pending
        if not pending:
            return False
        index = self.scheduler.choose(pending)
        if index < 0:  # ``pop`` would count it from the end
            raise SimulationError("scheduler chose an invalid message")
        try:
            message = pending.pop(index)
        except IndexError:  # past the end
            raise SimulationError(
                "scheduler chose an invalid message") from None
        self.time += 1
        if self.record_deliveries:
            self.event_log.append(LocalEvent(
                self.time, message.recipient, EVENT_DELIVER, message.tag,
                message.mtype, message.payload,
                cause_id=message.cause_id))
        recipient = self._processes[message.recipient]
        if self._deliver_hooks:
            deliveries = ((message, recipient.inbox.depth, self.time),)
            in_flight = len(pending)
            for hook in self._deliver_hooks:
                hook(message.sender, message.recipient, deliveries,
                     in_flight)
        recipient.receive(message)
        for check in self._invariants:
            check(self)
        for hook in self._tick_hooks:
            hook(self.time)
        return True

    def run(self, max_steps: int = 1_000_000) -> int:
        """Deliver messages until quiescence; returns the step count.

        Raises :class:`SimulationError` if the bound is hit — protocols in
        this library quiesce, so hitting the bound means a bug or an
        unbounded Byzantine flood that the experiment should cap itself.
        """
        steps = 0
        while self._pending or (self.chaos is not None
                                and self.chaos.held_count):
            if steps >= max_steps:
                raise SimulationError(
                    f"no quiescence after {max_steps} deliveries")
            self.step()
            steps += 1
        return steps

    def run_until(self, predicate: Callable[[], bool],
                  max_steps: int = 1_000_000) -> int:
        """Deliver messages until ``predicate()`` holds (checked after each
        delivery); returns steps taken.

        Raises :class:`LivenessError` if the network quiesces — every
        message delivered, nothing held back — with the predicate still
        false: the awaited condition can never occur, which earlier
        versions silently reported as success.  Raises
        :class:`SimulationError` if the step bound is exhausted first.
        """
        steps = 0
        while not predicate():
            if not self._pending and (self.chaos is None
                                      or not self.chaos.held_count):
                raise LivenessError(
                    f"network quiesced after {steps} deliveries with the "
                    f"awaited condition still unsatisfied")
            if steps >= max_steps:
                raise SimulationError(
                    f"predicate unsatisfied after {max_steps} deliveries")
            self.step()
            steps += 1
        return steps

    # -- measurements ---------------------------------------------------------------

    def storage_bytes(self) -> int:
        """Total storage complexity across all servers."""
        return sum(process.storage_bytes()
                   for process in self._processes.values()
                   if process.pid.is_server)
