"""The fault injector: executes a plan inside the simulator hot path.

:class:`FaultInjector` is the runtime half of the chaos plane.  The
simulator calls it at exactly two interposition points:

* ``intercept_enqueue(message)`` — every send passes through the
  injector before joining the in-flight bag.  The injector returns the
  messages that actually enter the network: the original (no fault),
  nothing (dropped or held), the original plus a fresh-id copy
  (duplicated), or a corrupted replacement.
* ``before_choose()`` — called before every scheduling decision; due
  held messages (expired delays, healed partitions) re-enter the bag
  here, and when the bag would otherwise be empty the earliest held
  message is force-released so eventual delivery can never be starved.

Every injected fault is recorded twice: as an ``EVENT_CHAOS`` entry in
the simulator's event log (the same log golden-schedule digests and
replay compare, so fault schedules are part of a run's identity) and as
a counter in an observability :class:`~repro.obs.instruments.Registry`
(``chaos.injected[drop]``, ``chaos.released[delay]``, ...).

With an empty plan the injector admits every message untouched, draws
no randomness, and records nothing — attaching it is byte-identical to
not attaching it, which the golden-schedule tests pin.
"""

from __future__ import annotations

import hashlib
import random
from typing import List, Tuple

from repro.chaos.plan import FaultPlan
from repro.common.errors import SimulationError
from repro.common.ids import PartyId, server_id
from repro.net.message import Message
from repro.obs.instruments import Registry


class FaultInjector:
    """Applies a :class:`~repro.chaos.plan.FaultPlan` to one simulation.

    Attach with :meth:`Simulator.attach_injector
    <repro.net.simulator.Simulator.attach_injector>` before the run;
    one injector serves one run.  All randomness comes from the plan's
    seed, so the injected fault schedule is a deterministic function of
    ``(plan, workload)``.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        #: Per-fault-kind counters (``chaos.injected[...]``/
        #: ``chaos.released[...]``), exported with the campaign report.
        self.instruments = Registry()
        self._simulator = None
        self._rng = random.Random(plan.seed)
        self._budgets: List[int] = [rule.limit for rule in plan.rules]
        #: Delay-held messages as ``(release_at_decision, message)``,
        #: kept in hold order.
        self._delayed: List[Tuple[int, Message]] = []
        #: Partition-held messages, in send order.
        self._partitioned: List[Message] = []
        self._decisions = 0
        self._faulty_pids: frozenset = frozenset(
            server_id(index) for index in plan.faulty)
        self._partition_pids: frozenset = frozenset(
            server_id(index) for index in plan.partition.group) \
            if plan.partition is not None else frozenset()

    def bind(self, simulator) -> None:
        """Called by :meth:`Simulator.attach_injector`; one-shot."""
        if self._simulator is not None:
            raise SimulationError(
                "fault injector already bound to a simulator")
        self._simulator = simulator

    # -- state the simulator queries ----------------------------------------

    @property
    def held_count(self) -> int:
        """Messages currently held back (delayed or partitioned); the
        simulator counts these as undelivered."""
        return len(self._delayed) + len(self._partitioned)

    @property
    def decisions(self) -> int:
        """Scheduling decisions observed so far (the injector's clock)."""
        return self._decisions

    # -- interposition points ------------------------------------------------

    def intercept_enqueue(self, message: Message) -> Tuple[Message, ...]:
        """Map one sent message to the messages actually admitted now.

        Fault rules are consulted in plan order; the first rule with
        remaining budget that matches the message applies.  A held
        message (delay, partition) is admitted later by
        :meth:`before_choose`; a dropped message never enters the
        network at all (and is never counted by metrics — a message a
        Byzantine party never sent was never on the wire).
        """
        if self._crosses_partition(message):
            self._partitioned.append(message)
            self._record("partition-hold", message)
            return ()
        for index, rule in enumerate(self.plan.rules):
            if self._budgets[index] <= 0:
                continue
            if not self._matches(rule, message):
                continue
            self._budgets[index] -= 1
            # Per-rule firing profile: which plan entry consumed budget
            # (the coverage signal plan search mutates toward).
            self.instruments.counter(
                f"chaos.rule[{index}:{rule.kind}]").inc()
            if rule.kind == "drop":
                self._record("drop", message)
                return ()
            if rule.kind == "duplicate":
                self._record("duplicate", message)
                return (message, self._clone(message))
            if rule.kind == "corrupt":
                corrupted = self._corrupt(message)
                # Fingerprint the garbage actually sent: the event log
                # then pins the exact corruption, not just its victim,
                # so replay digests cover the keystream too.
                fingerprint = hashlib.sha256(
                    repr(corrupted.payload).encode()).hexdigest()[:16]
                self._record("corrupt", message, extra=(fingerprint,))
                return (corrupted,)
            self._delayed.append(
                (self._decisions + rule.delay, message))
            self._record("delay", message)
            return ()
        return (message,)

    def before_choose(self) -> None:
        """Advance the injector clock and release due held messages.

        Called by the simulator before every scheduling decision.  When
        the in-flight bag is empty but messages are still held, the
        earliest held message is released immediately — holds may
        reorder delivery, never prevent it (eventual delivery).
        """
        self._decisions += 1
        partition = self.plan.partition
        if (self._partitioned and partition is not None
                and self._decisions >= partition.heal_at):
            released, self._partitioned = self._partitioned, []
            for message in released:
                self._release("partition-heal", message)
        if self._delayed:
            # Different rules hold for different durations, so the list
            # is not sorted by release time: scan it (it is small —
            # every delay rule carries a finite budget).
            due = [entry for entry in self._delayed
                   if entry[0] <= self._decisions]
            if due:
                self._delayed = [entry for entry in self._delayed
                                 if entry[0] > self._decisions]
                for _, message in due:
                    self._release("delay-expired", message)
        if (self._simulator is not None
                and not self._simulator.pending_count):
            # Nothing deliverable: force-release the oldest held
            # message so the run can always make progress.
            if self._delayed:
                _, message = self._delayed.pop(0)
                self._release("forced", message)
            elif self._partitioned:
                message = self._partitioned.pop(0)
                self._release("forced", message)

    # -- fault mechanics ------------------------------------------------------

    def _matches(self, rule, message: Message) -> bool:
        pid = server_id(rule.party)
        if message.sender != pid and message.recipient != pid:
            return False
        if rule.mtype is not None and message.mtype != rule.mtype:
            return False
        if rule.kind == "corrupt" and not any(
                isinstance(element, (bytes, bytearray)) and element
                for element in message.payload):
            return False  # nothing corruptible: leave budget for later
        return True

    def _clone(self, message: Message) -> Message:
        """A duplicate copy with a fresh ``msg_id`` (duplicates must stay
        distinguishable in traces and scheduler state).  The payload is
        shared, so the original's wire size carries over."""
        return Message(tag=message.tag, mtype=message.mtype,
                       sender=message.sender,
                       recipient=message.recipient,
                       payload=message.payload,
                       msg_id=self._simulator.fresh_msg_id(),
                       depth=message.depth, cause_id=message.cause_id,
                       wire_size=message.wire_size())

    def _corrupt(self, message: Message) -> Message:
        """A replacement message with every bytes payload element XORed
        against the plan-seeded keystream (same ``msg_id``: the network
        delivered *something* for this send, just not what was sent).
        """
        mutated = []
        for element in message.payload:
            if isinstance(element, (bytes, bytearray)) and element:
                data = bytearray(element)
                # First byte XORs a non-zero octet, so the corrupted
                # value is guaranteed to differ from the original.
                data[0] ^= self._rng.randrange(1, 256)
                for position in range(1, len(data)):
                    data[position] ^= self._rng.randrange(256)
                mutated.append(bytes(data))
            else:
                mutated.append(element)
        return Message(tag=message.tag, mtype=message.mtype,
                       sender=message.sender,
                       recipient=message.recipient,
                       payload=tuple(mutated), msg_id=message.msg_id,
                       depth=message.depth, cause_id=message.cause_id)

    # -- bookkeeping ----------------------------------------------------------

    def _event_party(self, message: Message) -> PartyId:
        """The party a fault is attributed to: the designated-faulty
        endpoint when there is one, else the recipient."""
        if message.sender in self._faulty_pids:
            return message.sender
        if message.recipient in self._faulty_pids:
            return message.recipient
        return message.recipient

    def _record(self, action: str, message: Message,
                extra: Tuple = ()) -> None:
        self.instruments.counter(f"chaos.injected[{action}]").inc()
        if self._simulator is not None:
            self._simulator.record_chaos(
                self._event_party(message), message.tag, action,
                (message.msg_id, message.mtype, str(message.sender),
                 str(message.recipient)) + extra)

    def _release(self, reason: str, message: Message) -> None:
        self.instruments.counter(f"chaos.released[{reason}]").inc()
        if self._simulator is not None:
            self._simulator.record_chaos(
                self._event_party(message), message.tag,
                f"release[{reason}]",
                (message.msg_id, message.mtype, str(message.sender),
                 str(message.recipient)))
            self._simulator._admit(message)

    def _crosses_partition(self, message: Message) -> bool:
        if self.plan.partition is None:
            return False
        if self._decisions >= self.plan.partition.heal_at:
            return False
        return ((message.sender in self._partition_pids)
                != (message.recipient in self._partition_pids))
