"""Asynchronous binary Byzantine agreement (randomized, ``n > 3t``).

The Mostéfaoui–Raynal–style signature-free protocol driven by the
threshold common coin: rounds of binary-value broadcast (``BVAL`` with
``t + 1`` relay and ``2t + 1`` acceptance), an ``AUX`` exchange that
establishes a set ``V`` of candidate values backed by ``n - t`` servers,
then the coin — a singleton ``V = {v}`` decides when ``v`` equals the
coin, otherwise the coin seeds the next round's estimate.  Expected O(1)
rounds; FLP is circumvented by randomization.

Termination uses the standard ``FINISH`` gadget: deciders announce their
value but keep participating; ``t + 1`` matching announcements let
stragglers adopt the decision, and ``2t + 1`` halt the instance — so a
decided server never strands the others mid-round.

Safety sketch: two different values cannot both gather ``2t + 1`` BVAL
support *and* ``n − t`` AUX backing in a deciding round with the same
coin value; once some honest server decides ``v`` in round ``r``, every
honest estimate entering round ``r + 1`` is ``v``, after which only
``v`` can ever be decided.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Set

from repro.agreement.coin import CommonCoin
from repro.common.ids import PartyId
from repro.common.serialization import encode
from repro.config import SystemConfig
from repro.net.message import Message
from repro.net.process import Process

MSG_BVAL = "aba-bval"
MSG_AUX = "aba-aux"
MSG_FINISH = "aba-finish"

#: decided(instance_id, value) — fired exactly once per instance.
DecideCallback = Callable[[Any, int], None]

_HALT = "halt"


@dataclass
class _Round:
    bval_sent: Set[int] = field(default_factory=set)
    bval_senders: Dict[int, Set[PartyId]] = field(default_factory=dict)
    bin_values: Set[int] = field(default_factory=set)
    aux_sent: bool = False
    aux_values: Dict[PartyId, int] = field(default_factory=dict)


@dataclass
class _Instance:
    input: Optional[int] = None
    started: bool = False
    decided: Optional[int] = None
    finish_sent: bool = False
    halted: bool = False
    reported: bool = False
    finish_senders: Dict[int, Set[PartyId]] = field(default_factory=dict)
    rounds: Dict[int, _Round] = field(default_factory=dict)

    def round(self, r: int) -> _Round:
        if r not in self.rounds:
            self.rounds[r] = _Round()
        return self.rounds[r]


class BinaryAgreement:
    """Server-side component running any number of agreement instances.

    Call :meth:`provide_input` with the instance identifier (any
    serializable value) and this server's proposal bit; ``decided`` fires
    once per instance with the agreed bit.  Validity: the decision is some
    honest server's input.
    """

    def __init__(self, process: Process, config: SystemConfig,
                 decided: DecideCallback):
        self._process = process
        self._config = config
        self._decided_cb = decided
        self.coin = CommonCoin(process, config, lambda name, bit: None)
        self._instances: Dict[bytes, _Instance] = {}
        self._ids: Dict[bytes, Any] = {}
        process.on(MSG_BVAL, self._on_bval)
        process.on(MSG_AUX, self._on_aux)
        process.on(MSG_FINISH, self._on_finish)

    # -- public API -------------------------------------------------------

    def provide_input(self, instance_id: Any, value: int) -> None:
        """Propose ``value`` (0/1) for ``instance_id``; idempotent."""
        instance = self._instance(instance_id)
        if instance.input is None and value in (0, 1):
            instance.input = value
            self._maybe_start(instance_id, instance)

    # -- plumbing -----------------------------------------------------------

    def _instance(self, instance_id: Any) -> _Instance:
        key = encode(instance_id)
        if key not in self._instances:
            self._instances[key] = _Instance()
            self._ids[key] = instance_id
        return self._instances[key]

    def _maybe_start(self, instance_id: Any, instance: _Instance) -> None:
        if instance.started or instance.input is None or instance.halted:
            return
        instance.started = True
        self._process.start_thread(self._run(instance_id, instance))

    def _broadcast(self, mtype: str, instance_id: Any, *rest: Any) -> None:
        self._process.send_to_servers("aba", mtype, instance_id, *rest)

    # -- handlers -------------------------------------------------------------

    def _parse(self, message: Message, arity: int):
        if not message.sender.is_server or len(message.payload) != arity:
            return None
        return message.payload

    def _on_bval(self, message: Message) -> None:
        payload = self._parse(message, 3)
        if payload is None:
            return
        instance_id, r, value = payload
        if value not in (0, 1) or not isinstance(r, int) or r < 1:
            return
        instance = self._instance(instance_id)
        if instance.halted:
            return
        round_state = instance.round(r)
        senders = round_state.bval_senders.setdefault(value, set())
        senders.add(message.sender)
        config = self._config
        if len(senders) >= config.t + 1 and \
                value not in round_state.bval_sent:
            # Relay: a value t+1 servers vouch for came from some honest
            # server, so it is safe (and necessary) to amplify.
            round_state.bval_sent.add(value)
            self._broadcast(MSG_BVAL, instance_id, r, value)
        if len(senders) >= 2 * config.t + 1:
            round_state.bin_values.add(value)
        # bin_values growth may unblock the instance thread (pumped by
        # the process after this handler returns).

    def _on_aux(self, message: Message) -> None:
        payload = self._parse(message, 3)
        if payload is None:
            return
        instance_id, r, value = payload
        if value not in (0, 1) or not isinstance(r, int) or r < 1:
            return
        instance = self._instance(instance_id)
        if instance.halted:
            return
        instance.round(r).aux_values.setdefault(message.sender, value)

    def _on_finish(self, message: Message) -> None:
        payload = self._parse(message, 2)
        if payload is None:
            return
        instance_id, value = payload
        if value not in (0, 1):
            return
        instance = self._instance(instance_id)
        if instance.halted:
            return
        senders = instance.finish_senders.setdefault(value, set())
        senders.add(message.sender)
        config = self._config
        if len(senders) >= config.t + 1 and not instance.finish_sent:
            # Adopt: at least one honest server decided this value.
            instance.finish_sent = True
            instance.decided = value if instance.decided is None \
                else instance.decided
            self._broadcast(MSG_FINISH, instance_id, value)
        if len(senders) >= 2 * config.t + 1:
            instance.halted = True
            self._report(instance_id, instance, value)

    def _report(self, instance_id: Any, instance: _Instance,
                value: int) -> None:
        if instance.reported:
            return
        instance.reported = True
        instance.decided = value
        self._decided_cb(instance_id, value)

    # -- the per-instance protocol thread --------------------------------------

    def _run(self, instance_id: Any, instance: _Instance):
        config = self._config
        estimate = instance.input
        r = 0
        while not instance.halted:
            r += 1
            round_state = instance.round(r)
            if estimate not in round_state.bval_sent:
                round_state.bval_sent.add(estimate)
                self._broadcast(MSG_BVAL, instance_id, r, estimate)

            outcome = yield self._until(
                instance, lambda: bool(round_state.bin_values))
            if outcome == _HALT:
                return
            if not round_state.aux_sent:
                round_state.aux_sent = True
                self._broadcast(MSG_AUX, instance_id, r,
                                min(round_state.bin_values))

            def aux_coverage():
                """n - t AUX values, every one of them in bin_values."""
                covered = [value for value
                           in round_state.aux_values.values()
                           if value in round_state.bin_values]
                if len(covered) >= config.quorum:
                    return set(covered)
                return None

            candidates = yield self._until(instance, aux_coverage)
            if candidates == _HALT:
                return

            coin_name = ("aba", instance_id, r)
            self.coin.flip(coin_name)
            coin = yield self._until(
                instance,
                lambda: (self.coin.value(coin_name) is not None
                         and (self.coin.value(coin_name),)))
            if coin == _HALT:
                return
            coin_bit = coin[0]

            if len(candidates) == 1:
                (value,) = candidates
                if value == coin_bit and instance.decided is None:
                    instance.decided = value
                    if not instance.finish_sent:
                        instance.finish_sent = True
                        self._broadcast(MSG_FINISH, instance_id, value)
                estimate = value
            else:
                estimate = coin_bit
            # Deciders keep looping (est = decided value) so undecided
            # servers can finish their rounds; FINISH halts everyone.

    @staticmethod
    def _until(instance: _Instance, condition: Callable[[], Any]):
        """A wait condition that also wakes on instance halt."""

        def check():
            if instance.halted:
                return _HALT
            return condition()

        return check
