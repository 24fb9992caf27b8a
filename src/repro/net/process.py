"""Party processes with the paper's thread and wait-state semantics.

A party (Section 2.1) is activated when a message is delivered to it.  Its
threads are either running or parked in *wait states* — conditions over the
input buffer.  When activated, the party runs every thread whose condition
is satisfied until no thread can make progress, then control returns to the
adversary (the simulator's scheduler).

Handlers — the paper's ``upon <condition>`` clauses — are plain callables
or generator functions.  A generator handler implements ``wait for`` by
yielding 0-argument *condition* callables: the process parks the thread and
resumes it, with the condition's return value, once the condition evaluates
truthy.  This is a direct transcription of the pseudo-code, e.g.::

    def _write(self, tag, oid, value):            # client C_i
        ...
        quorum = yield self.condition_quorum(tag, "ack", self.n - self.t)
        self.output(tag, "ack", oid, value)

Local per-thread variables are generator locals; instance attributes are
the paper's per-instance global variables.
"""

from __future__ import annotations

from types import GeneratorType
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.common.errors import SimulationError
from repro.common.ids import PartyId
from repro.net.inbox import Inbox
from repro.net.message import Message, content_wire_size

Condition = Callable[[], Any]
Handler = Callable[[Message], Any]


class _Thread:
    """A parked protocol thread: a generator plus its wait condition."""

    __slots__ = ("generator", "condition")

    def __init__(self, generator: Generator, condition: Condition):
        self.generator = generator
        self.condition = condition


class Process:
    """Base class for all parties (servers, clients, Byzantine variants).

    Subclasses register per-message-type handlers with :meth:`on` and use
    :meth:`send` / :meth:`send_to_servers` / :meth:`output`.  The simulator
    wires itself in via :meth:`bind`.
    """

    def __init__(self, pid: PartyId):
        self.pid = pid
        self.inbox = Inbox()
        self.simulator = None  # set by Simulator.add_process
        self._handlers: Dict[str, List[Handler]] = {}
        self._threads: List[_Thread] = []
        self._pumping = False
        #: causal depth of the delivery currently being processed (0 when
        #: activated directly, e.g. by a client invocation).
        self.activation_depth = 0
        #: ``msg_id`` of the delivery currently being processed (``None``
        #: when activated directly); stamped onto outgoing messages and
        #: output actions as their happens-before cause.
        self.activation_msg_id: Optional[int] = None

    # -- simulator wiring -------------------------------------------------

    def bind(self, simulator) -> None:
        """Attach this party to a simulator (done by ``add_process``)."""
        self.simulator = simulator

    def _require_simulator(self):
        if self.simulator is None:
            raise SimulationError(
                f"{self.pid} is not attached to a simulator")
        return self.simulator

    # -- sending ----------------------------------------------------------

    def send(self, recipient: PartyId, tag: str, mtype: str,
             *payload: Any, wire_size: Optional[int] = None) -> None:
        """Send ``(tag, mtype, payload)`` to one party over the secure
        channel (sender identity is bound by the channel).

        ``wire_size`` is for senders that already know the message's
        size (see :meth:`Simulator.enqueue
        <repro.net.simulator.Simulator.enqueue>`)."""
        self._require_simulator().enqueue(
            sender=self.pid, recipient=recipient, tag=tag, mtype=mtype,
            payload=payload, wire_size=wire_size)

    def send_to_servers(self, tag: str, mtype: str, *payload: Any) -> None:
        """Send the same message to every server ``P_1 .. P_n``.

        All ``n`` messages share one payload tuple and a wire size
        computed once, so the per-message cost is one enqueue and
        nothing downstream sizes a copy again.
        """
        simulator = self._require_simulator()
        pid = self.pid
        size = content_wire_size(tag, mtype, payload)
        for server in simulator.server_pids:
            simulator.enqueue(sender=pid, recipient=server, tag=tag,
                              mtype=mtype, payload=payload, wire_size=size)

    # -- handlers and threads ----------------------------------------------

    def on(self, mtype: str, handler: Handler) -> None:
        """Register an ``upon receiving (_, mtype, ...)`` handler.

        Plain callables run to completion; generator functions become
        threads that may enter wait states.
        """
        self._handlers.setdefault(mtype, []).append(handler)

    def start_thread(self, generator: Generator) -> None:
        """Start a protocol thread, running it until its first wait state."""
        self._advance(generator, None)
        self._pump()

    def _advance(self, generator: Generator, value: Any) -> None:
        """Resume ``generator`` with ``value``; park it again if it yields."""
        try:
            condition = generator.send(value)
        except StopIteration:
            return
        while True:
            if not callable(condition):
                raise SimulationError(
                    f"{self.pid}: threads must yield callables, "
                    f"got {condition!r}")
            result = condition()
            if not result:
                self._threads.append(_Thread(generator, condition))
                return
            try:
                condition = generator.send(result)
            except StopIteration:
                return

    # -- activation ---------------------------------------------------------

    def receive(self, message: Message) -> None:
        """Deliver a message: buffer it, fire handlers, pump threads."""
        self.inbox.add(message)
        self.activation_depth = message.depth
        self.activation_msg_id = message.msg_id
        try:
            handlers = self._handlers.get(message.mtype)
            if handlers is not None:
                for handler in handlers:
                    result = handler(message)
                    if type(result) is GeneratorType:
                        self._advance(result, None)
            self._pump()
        finally:
            self.activation_depth = 0
            self.activation_msg_id = None

    def _pump(self) -> None:
        """Resume parked threads until no condition is satisfied.

        Re-entrant calls (a resumed thread starting another thread, which
        calls back into the pump) are absorbed by the guard: the outermost
        pump keeps looping until quiescence, so nothing is missed and the
        parked-thread list is never mutated under a stale snapshot.
        """
        if self._pumping or not self._threads:
            return
        self._pumping = True
        try:
            progress = True
            while progress:
                progress = False
                for thread in list(self._threads):
                    if thread not in self._threads:
                        continue  # resumed by a nested _advance already
                    result = thread.condition()
                    if result:
                        self._threads.remove(thread)
                        progress = True
                        self._advance(thread.generator, result)
        finally:
            self._pumping = False

    # -- local events ---------------------------------------------------------

    def output(self, tag: str, action: str, *payload: Any) -> None:
        """Generate an output action ``(tag, out, action, payload)``."""
        self._require_simulator().record_output(self.pid, tag, action,
                                                tuple(payload))

    def record_input(self, tag: str, action: str, *payload: Any) -> None:
        """Record an input action ``(tag, in, action, payload)``."""
        self._require_simulator().record_input(self.pid, tag, action,
                                               tuple(payload))

    def note_verification_failure(self, tag: str, mtype: str,
                                  suspect: "PartyId") -> None:
        """Report a failed cryptographic check on traffic from ``suspect``
        to an attached tracer.

        Measurement-only: no event is logged and the clock does not
        tick, so instrumented protocols keep byte-identical schedules.
        A well-formed message whose commitment/signature verification
        fails is the strongest per-server Byzantine signal the health
        plane consumes — honest servers never produce one.
        """
        observer = getattr(self.simulator, "obs", None)
        if observer is None:
            return
        hook = getattr(observer, "on_verify_fail", None)
        if hook is not None:
            hook(self.pid, suspect, tag, mtype)

    # -- wait-state condition builders ------------------------------------------

    def condition_quorum(self, tag: str, mtype: str, count: int,
                         where: Optional[Callable[[Message], bool]] = None
                         ) -> Condition:
        """Condition: ``count`` messages from distinct senders; returns the
        earliest matching message of each sender.

        When a tracer is attached to the simulator (:mod:`repro.obs`),
        the first satisfaction is reported as a quorum release carrying
        the arrival that tipped the threshold — the ``(n - t)``-th
        message the wait state was actually blocked on.
        """
        released = False

        def check():
            nonlocal released
            matching = self.inbox.first_per_sender(tag, mtype, where)
            if len(matching) >= count:
                if not released:
                    released = True
                    self._notify_quorum_release(tag, mtype, count, matching)
                return matching
            return None

        return check

    def _notify_quorum_release(self, tag: str, mtype: str, count: int,
                               matching: List[Message]) -> None:
        """Report a satisfied quorum condition to an attached tracer."""
        simulator = self.simulator
        observer = getattr(simulator, "obs", None)
        if observer is None:
            return
        observer.on_quorum(
            time=simulator.time, party=self.pid, tag=tag, mtype=mtype,
            threshold=count,
            quorum_msg_ids=tuple(m.msg_id for m in matching),
            releasing_msg_id=self.activation_msg_id)

    def condition_message(self, tag: str, mtype: str,
                          where: Optional[Callable[[Message], bool]] = None
                          ) -> Condition:
        """Condition: at least one matching message; returns the first."""

        def check():
            matching = self.inbox.messages(tag, mtype, where)
            return matching[0] if matching else None

        return check

    # -- introspection ----------------------------------------------------------

    @property
    def parked_threads(self) -> int:
        """Number of threads currently in a wait state."""
        return len(self._threads)

    def storage_bytes(self) -> int:
        """Size of this party's protocol global variables (storage
        complexity).  Overridden by servers; clients report zero because
        the paper does not count client memory."""
        return 0

    def __str__(self) -> str:
        return str(self.pid)
