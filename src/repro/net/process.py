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

What a delivery costs depends only on what it can change.  A message
whose type has an ``on()`` handler is consumed by the handler and never
buffered; everything else goes to the :class:`~repro.net.inbox.Inbox`
(which states the retention rule).  A wait state built by
:meth:`Process.condition_quorum` / :meth:`Process.condition_message`, or
wrapped in :class:`WaitState`, names the ``(tag, mtype, oid)`` buckets it
reads, so an activation re-checks only the parked threads the arriving
message can satisfy; a bare callable names nothing and is re-checked on
every activation.
"""

from __future__ import annotations

from types import GeneratorType
from typing import Any, Callable, Dict, Generator, List, Optional, Set, Tuple

from repro.common.errors import SimulationError
from repro.common.ids import PartyId
from repro.net.inbox import Inbox, WaitKey
from repro.net.message import Message, content_wire_size

Condition = Callable[[], Any]
Handler = Callable[[Message], Any]


class WaitState:
    """A wait-state condition that names the inbox buckets it reads.

    ``keys`` are ``(tag, mtype, oid)`` triples (``oid`` ``None`` = the
    whole ``(tag, mtype)`` key).  The condition must be a function of
    those buckets and its own closure only: the process re-evaluates it
    when a message joins one of them, and at no other time.
    """

    __slots__ = ("check", "keys")

    def __init__(self, check: Condition, *keys: WaitKey):
        self.check = check
        self.keys = keys

    def __call__(self) -> Any:
        return self.check()


class _Thread:
    """A parked protocol thread: a generator, its wait condition, and
    the buckets the condition declared (``None``: declared nothing)."""

    __slots__ = ("generator", "condition", "keys")

    def __init__(self, generator: Generator, condition: Condition):
        self.generator = generator
        self.condition = condition
        self.keys: Optional[Tuple[WaitKey, ...]] = \
            getattr(condition, "keys", None)


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
        #: handled message types that are buffered as well (``retain``)
        self._retained: Set[str] = set()
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

    def on(self, mtype: str, handler: Handler,
           retain: bool = False) -> None:
        """Register an ``upon receiving (_, mtype, ...)`` handler.

        Plain callables run to completion; generator functions become
        threads that may enter wait states.  The handler consumes the
        message: it is not buffered, so no wait state can read it —
        unless ``retain`` says this protocol's wait states count
        messages of this type too (parking on a consumed type raises).
        """
        self._handlers.setdefault(mtype, []).append(handler)
        if retain:
            self._retained.add(mtype)

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
                self._park(_Thread(generator, condition))
                return
            try:
                condition = generator.send(result)
            except StopIteration:
                return

    def _park(self, thread: _Thread) -> None:
        for _, mtype, _ in thread.keys or ():
            if mtype in self._handlers and mtype not in self._retained:
                raise SimulationError(
                    f"{self.pid}: wait state on {mtype!r}, which its "
                    f"handler consumes; register it with retain=True")
        self._threads.append(thread)

    # -- activation ---------------------------------------------------------

    def receive(self, message: Message) -> None:
        """Deliver a message: fire its handlers or buffer it, then pump
        the threads it can wake."""
        mtype = message.mtype
        handlers = self._handlers.get(mtype)
        arrived = None
        if handlers is None or mtype in self._retained:
            arrived = self.inbox.add(message)
        self.activation_depth = message.depth
        self.activation_msg_id = message.msg_id
        try:
            if handlers is not None:
                for handler in handlers:
                    result = handler(message)
                    if type(result) is GeneratorType:
                        self._advance(result, None)
            self._pump(arrived)
        finally:
            self.activation_depth = 0
            self.activation_msg_id = None

    def _pump(self, arrived: Optional[WaitKey] = None) -> None:
        """Resume parked threads until no condition is satisfied.

        ``arrived`` is the bucket the activating message joined (``None``
        when nothing was buffered): threads that declared their buckets
        are re-checked only if it is one of them, in parking order like
        everything else, so resumption order is what checking every
        thread would give.

        Re-entrant calls (a resumed thread starting another thread, which
        calls back into the pump) are absorbed by the guard: the outermost
        pump keeps looping until quiescence, so nothing is missed and the
        parked-thread list is never mutated under a stale snapshot.
        """
        if self._pumping or not self._threads:
            return
        whole_key = None if arrived is None else arrived[:2] + (None,)
        self._pumping = True
        try:
            progress = True
            while progress:
                progress = False
                for thread in list(self._threads):
                    if thread not in self._threads:
                        continue  # resumed by a nested _advance already
                    keys = thread.keys
                    if keys is not None and arrived not in keys \
                            and whole_key not in keys:
                        continue  # nothing it reads has changed
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
        to the simulator's observers.

        Measurement-only: no event is logged and the clock does not
        tick, so instrumented protocols keep byte-identical schedules.
        A well-formed message whose commitment/signature verification
        fails is the strongest per-server Byzantine signal the health
        plane consumes — honest servers never produce one.
        """
        if self.simulator is not None:
            self.simulator.notify_verify_fail(self.pid, suspect, tag, mtype)

    # -- wait-state condition builders ------------------------------------------

    def condition_quorum(self, tag: str, mtype: str, count: int,
                         where: Optional[Callable[[Message], bool]] = None,
                         oid: Optional[str] = None) -> Condition:
        """Condition: ``count`` messages from distinct senders; returns the
        earliest matching message of each sender.  ``oid`` restricts the
        wait to one operation's bucket (see :class:`WaitState`).

        The first satisfaction is reported to the simulator's
        observers (:mod:`repro.obs`) as a quorum release carrying
        the arrival that tipped the threshold — the ``(n - t)``-th
        message the wait state was actually blocked on.
        """
        released = False

        def check():
            nonlocal released
            matching = self.inbox.first_per_sender(tag, mtype, where, oid)
            if len(matching) >= count:
                if not released:
                    released = True
                    if self.simulator is not None:
                        self.simulator.notify_quorum(
                            self.pid, tag, mtype, count, matching,
                            self.activation_msg_id)
                return matching
            return None

        return WaitState(check, (tag, mtype, oid))

    def condition_message(self, tag: str, mtype: str,
                          where: Optional[Callable[[Message], bool]] = None,
                          oid: Optional[str] = None) -> Condition:
        """Condition: at least one matching message; returns the first."""

        def check():
            matching = self.inbox.messages(tag, mtype, where, oid)
            return matching[0] if matching else None

        return WaitState(check, (tag, mtype, oid))

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
