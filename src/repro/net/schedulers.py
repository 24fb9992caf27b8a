"""Message-delivery schedulers: the adversary's control over asynchrony.

In the model, the adversary schedules message delivery arbitrarily, subject
only to *eventual delivery* (every run is complete).  A scheduler picks
which in-flight message the simulator delivers next; since schedulers can
only choose among pending messages and the simulator runs until the pending
set drains, eventual delivery holds for every scheduler here by
construction.

Deterministic seeds make every schedule reproducible, so a failing schedule
found by a property test can be replayed exactly.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.net.message import Message


class Scheduler:
    """Strategy interface: choose the index of the next message.

    :meth:`choose` is the whole contract — the simulator calls nothing
    else, so a run is named exactly by its sequence of choices, and any
    object with a ``choose`` (a subclass or not) drives a simulator.
    """

    def choose(self, pending: Sequence[Message]) -> int:
        """Return the index (into ``pending``, the in-flight messages
        oldest first) of the message to deliver next; the simulator pops
        and delivers it."""
        raise NotImplementedError


class FifoScheduler(Scheduler):
    """Deliver messages in global send order (the 'synchronous-looking'
    schedule; useful as a baseline and for debugging)."""

    def choose(self, pending: Sequence[Message]) -> int:
        return 0


class RandomScheduler(Scheduler):
    """Deliver a uniformly random pending message (asynchrony with
    arbitrary reordering).  Deterministic given the seed."""

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)

    def choose(self, pending: Sequence[Message]) -> int:
        return self._rng.randrange(len(pending))


class SlowPartiesScheduler(Scheduler):
    """Adversarial scheduler: starve all traffic to and from a set of
    victim parties.

    A victim's messages are delivered only when nothing else is
    pending, which models an adversary that delays a victim's traffic
    as long as the network allows while still satisfying eventual
    delivery.

    Each :meth:`choose` classifies the pending messages afresh and
    draws uniformly among the preferred ones, or among all of them when
    none is preferred; it sees nothing but ``pending``, like every
    scheduler.
    """

    def __init__(self, slow_parties, seed: int = 0):
        self._slow = frozenset(slow_parties)
        self._rng = random.Random(seed)

    def choose(self, pending: Sequence[Message]) -> int:
        slow = self._slow
        preferred = [index for index, message in enumerate(pending)
                     if message.sender not in slow
                     and message.recipient not in slow]
        if preferred:
            return preferred[self._rng.randrange(len(preferred))]
        return self._rng.randrange(len(pending))


class PartitionScheduler(Scheduler):
    """A temporary network partition that later heals.

    Until ``heal_after`` delivery decisions have been made, messages
    crossing the partition (between ``group`` and its complement) are
    starved; afterwards the network behaves like a seeded random
    scheduler.  Eventual delivery still holds — the partition is
    transient, as the model requires (a permanent partition would violate
    run completeness).
    """

    def __init__(self, group, heal_after: int, seed: int = 0):
        self._group = set(group)
        self._heal_after = heal_after
        self._decisions = 0
        self._rng = random.Random(seed)

    @property
    def healed(self) -> bool:
        return self._decisions >= self._heal_after

    def _crosses(self, message: Message) -> bool:
        return (message.sender in self._group) != \
            (message.recipient in self._group)

    def choose(self, pending: Sequence[Message]) -> int:
        self._decisions += 1
        if not self.healed:
            within = [index for index, message in enumerate(pending)
                      if not self._crosses(message)]
            if within:
                return within[self._rng.randrange(len(within))]
        return self._rng.randrange(len(pending))

