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

from itertools import islice
from typing import (Any, Callable, Dict, Iterator, List, Optional,
                    Sequence, Tuple)

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


class PendingBag:
    """Order-preserving indexed bag of in-flight messages.

    Semantically identical to a plain ``list`` under ``append`` /
    ``pop(index)`` — logical index ``i`` is always the ``i``-th oldest
    surviving message — but implemented as a ring buffer with a head
    offset, so the FIFO pattern ``pop(0)`` is O(1) amortized instead of
    shifting every element.  Popped head slots are reclaimed by periodic
    compaction once they outnumber the live elements (amortized O(1) per
    operation).  Arbitrary-index pops fall back to an in-place delete,
    matching ``list.pop(i)`` exactly, so adversarial schedulers keep
    their index semantics and seeded schedules are byte-identical to the
    previous list-backed implementation.
    """

    __slots__ = ("_items", "_head")

    #: Compact only beyond this many dead head slots (avoids thrashing
    #: on small bags, where the O(n) slice is still trivially cheap).
    _COMPACT_THRESHOLD = 512

    def __init__(self) -> None:
        self._items: List[Message] = []
        self._head = 0

    def __len__(self) -> int:
        return len(self._items) - self._head

    def __bool__(self) -> bool:
        return len(self._items) > self._head

    def __iter__(self) -> Iterator[Message]:
        """Iterate oldest-to-newest (logical order)."""
        return islice(iter(self._items), self._head, None)

    def __getitem__(self, index: int) -> Message:
        """Logical indexing; supports the negative indices ``list`` does."""
        length = len(self._items) - self._head
        if index < 0:
            index += length
        if not 0 <= index < length:
            raise IndexError("pending index out of range")
        return self._items[self._head + index]

    def append(self, message: Message) -> None:
        """Add ``message`` at the back (newest position)."""
        self._items.append(message)

    def pop(self, index: int = 0) -> Message:
        """Remove and return the message at logical ``index``.

        ``pop(0)`` (the FIFO case) advances the head offset in O(1);
        other indices delete in place like ``list.pop``.
        """
        length = len(self._items) - self._head
        if index < 0:
            index += length
        if not 0 <= index < length:
            raise IndexError("pop index out of range")
        if index == 0:
            message = self._items[self._head]
            # Release the reference so compaction latency never keeps
            # delivered payloads alive.
            self._items[self._head] = None  # type: ignore[call-overload]
            self._head += 1
            head = self._head
            if (head >= self._COMPACT_THRESHOLD
                    and head * 2 >= len(self._items)):
                del self._items[:head]
                self._head = 0
            return message
        return self._items.pop(self._head + index)


class Simulator:
    """Event-driven simulation of the asynchronous message-passing model.

    Parameters
    ----------
    scheduler:
        Delivery-order strategy (defaults to FIFO).  Pass a seeded
        :class:`~repro.net.schedulers.RandomScheduler` for adversarial
        reorderings.
    record_deliveries:
        Also log every message delivery in the event log (memory-heavy;
        off by default — input/output actions are always logged); also
        a public attribute, set before the run.
    """

    def __init__(self, scheduler: Optional[Scheduler] = None,
                 record_deliveries: bool = False):
        self.scheduler = scheduler or FifoScheduler()
        self.metrics = Metrics()
        self.event_log: List[LocalEvent] = []
        self.time = 0
        self._processes: Dict[PartyId, Process] = {}
        self._server_pids: List[PartyId] = []
        self._pending = PendingBag()
        self._next_msg_id = 0
        self.record_deliveries = record_deliveries
        self._invariants: List[Callable[["Simulator"], None]] = []
        self._observers: List[Any] = []
        # Each hook's bound callbacks in attach order: with nothing
        # attached every report is a loop over an empty list.
        self._hooks: Dict[str, List[Callable[..., None]]] = {
            name: [] for name in OBSERVER_HOOKS}
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

    def observes(self, hook: str) -> bool:
        """Whether an attached observer defines ``hook`` (lets a
        reporter skip building what only observers would read)."""
        return bool(self._hooks[hook])

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
        """Place a message into the in-flight bag (post-interception)."""
        self._pending.append(message)
        self.scheduler.note_enqueue(message)
        self.metrics.record(message)
        self.report_send(message)

    def report_send(self, message: Message) -> None:
        """Report a message entering the network to the ``on_send``
        observers; the kv plane reports its envelope entries here."""
        for hook in self._hooks["on_send"]:
            hook(message, self.time, pending=len(self._pending))

    def report_deliver(self, message: Message, inbox_depth: int) -> None:
        """Report a delivery to the ``on_deliver`` observers; the kv
        plane reports its envelope entries here."""
        for hook in self._hooks["on_deliver"]:
            hook(message, self.time, inbox_depth=inbox_depth,
                 pending=len(self._pending))

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
        if not self._pending:
            return False
        index = self.scheduler.choose(self._pending)
        if not 0 <= index < len(self._pending):
            raise SimulationError("scheduler chose an invalid message")
        message = self._pending.pop(index)
        self.scheduler.note_pop(message)
        self._tick()
        if self.record_deliveries:
            self.event_log.append(LocalEvent(
                self.time, message.recipient, EVENT_DELIVER, message.tag,
                message.mtype, message.payload,
                cause_id=message.cause_id))
        recipient = self._processes[message.recipient]
        if self._hooks["on_deliver"]:
            self.report_deliver(message, len(recipient.inbox))
        recipient.receive(message)
        for check in self._invariants:
            check(self)
        for hook in self._hooks["on_tick"]:
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
