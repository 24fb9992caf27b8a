"""Protocol Disperse — asynchronous verifiable information dispersal.

The register protocols store values with the (slightly modified) dispersal
protocol of the AVID-RBC scheme of Cachin and Tessaro (Section 2.3 and
Appendix A of the paper).  A client *disperses* a value ``F``; each honest
server ``P_j`` *completes* the dispersal with ``[D, i, F_j]`` where ``D``
commits to the encoded blocks, ``i`` identifies the dispersing client, and
``F_j`` is ``P_j``'s own erasure-code block.  Guarantees (except with
negligible probability):

* all honest servers complete with the *same* commitment ``D``;
* there exists a value ``F'`` whose encoding matches ``D`` exactly, and
  every completing server's block equals the corresponding block of
  ``F'`` — so a Byzantine client can never store inconsistent data
  (*verifiability*, checked at write time rather than read time);
* if the client is honest, ``F' = F`` and every honest server eventually
  completes; if *any* honest server completes, all honest servers
  eventually complete (*agreement*), whatever the client does.

Protocol shape (echo/ready a la Bracha, with blocks riding along only
where they are missing):

1. The client encodes ``F``, commits to the blocks, and sends
   ``(send, D, F_j, w_j)`` to each ``P_j``.
2. On a valid ``send``, ``P_j`` sends ``(echo, D, i, F_j, w_j)`` to every
   other server (one echo per instance, binding ``P_j`` to one
   commitment).  Its echo to itself is ``(echo, H(D), i)``: it counts
   with the block ``P_j`` stored on ``send``.
3. On ``n - t`` valid echoes for the same ``(D, i)``, a server decodes a
   candidate value from ``k`` blocks, re-encodes it, and checks the fresh
   commitment equals ``D`` (the *verifiability* check).  Only then does it
   send ``ready``.  On ``t + 1`` readys it sends ``ready`` without the
   check (Bracha amplification — some honest server has checked).
4. A ``ready`` carries neither ``D`` nor a block its recipient provably
   holds.  A server whose valid echo the sender has recorded echoed only
   after a valid ``send``, so its copy is ``(ready, H(D), i)``.  Every
   other copy names ``D`` and, from a server that holds the full
   re-encoded vector, is *personalized*: the copy sent to ``P_i`` carries
   ``P_i``'s block and witness.  This lets servers that never received a
   valid ``send`` (a Byzantine client may withhold them) obtain their
   block, which makes the agreement property hold for every ``k <= n - t``.
5. On ``2t + 1`` readys for ``(D, i)`` and possession of a valid own
   block, the server completes.

A server keys its sessions by ``(H(D), i)``.  A message naming ``D`` may
open a session; one naming ``H(D)`` only finds one, and is dropped if the
session is unknown.  With Merkle commitments ``H(D)`` is the root ``D``
itself, so there only the blocks move bytes.

With ``k <= n - t`` and blocks of ``|F| / k`` bytes, the dispersal's
communication is ``O(n |F|)`` plus ``O(n^3 |H|)`` with hash vectors or
``O(n^2 log n |H|)`` with Merkle commitments, matching Section 2.3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Set, Tuple

from repro.common.ids import PartyId
from repro.common.serialization import encode
from repro.config import SystemConfig
from repro.net.message import Message, content_wire_size
from repro.net.process import Process

MSG_SEND = "avid-send"
MSG_ECHO = "avid-echo"
MSG_READY = "avid-ready"

#: every wire message type of Protocol Disperse, for observability
#: tooling (per-mtype instruments, phase classification)
MESSAGE_TYPES = (MSG_SEND, MSG_ECHO, MSG_READY)

#: deliver(tag, commitment, client, block, witness)
CompleteCallback = Callable[[str, Any, PartyId, bytes, Any], None]


def disperse(process: Process, tag: str, value: bytes,
             config: SystemConfig) -> None:
    """Client side of Protocol Disperse: encode, commit, send the blocks.

    Invoked at a client through the input action ``(ID, in, disperse, F)``;
    each server receives only its own block (plus the commitment), which is
    where the ``|F| / k`` per-server storage saving comes from.
    """
    blocks = config.coder.encode(value)
    commitment, witnesses = config.commitment_scheme.commit(blocks)
    for index, server in enumerate(process.simulator.server_pids, start=1):
        process.send(server, tag, MSG_SEND, commitment, blocks[index - 1],
                     witnesses[index - 1])


@dataclass
class _KeyState:
    """Per-(commitment, client) state within one dispersal instance."""

    commitment: Any = None
    digest: bytes = b""
    client: Optional[PartyId] = None
    echo_blocks: Dict[int, Tuple[bytes, Any]] = field(default_factory=dict)
    ready_senders: Set[PartyId] = field(default_factory=set)
    consistent: Optional[bool] = None
    all_blocks: Optional[list] = None
    all_witnesses: Optional[list] = None
    own_block: Optional[Tuple[bytes, Any]] = None


@dataclass
class _Instance:
    """Per-tag server-side dispersal state.

    Sessions are scoped by *origin* (the dispersing party, bound by the
    channel): ``echoed``/``ready_sent``/``completed`` record the origins
    this server has echoed for, sent ready for, and completed — so a
    Byzantine party racing a bogus ``send`` onto an honest client's tag
    opens its own session instead of blocking the honest one.
    """

    echoed: Set[PartyId] = field(default_factory=set)
    ready_sent: Set[PartyId] = field(default_factory=set)
    completed: Set[PartyId] = field(default_factory=set)
    keys: Dict[Tuple[bytes, PartyId], _KeyState] = field(
        default_factory=dict)


class AvidServer:
    """Server-side component of Protocol Disperse.

    Attach one per server process; ``complete`` is called as
    ``complete(tag, commitment, client, block, witness)`` when the server
    completes a dispersal (the paper's output action
    ``(ID, out, stored, D, i, F_j)``).
    """

    def __init__(self, process: Process, config: SystemConfig,
                 complete: CompleteCallback):
        self._process = process
        self._config = config
        self._complete = complete
        self._instances: Dict[str, _Instance] = {}
        # Quorum thresholds are fixed for the lifetime of the run; caching
        # them as plain ints keeps the per-delivery progress checks cheap.
        self._quorum = config.quorum
        self._ready_amplify = config.ready_amplify
        self._deliver_quorum = config.deliver_quorum
        process.on(MSG_SEND, self._on_send)
        process.on(MSG_ECHO, self._on_echo)
        process.on(MSG_READY, self._on_ready)

    # -- helpers ------------------------------------------------------------

    @property
    def _my_index(self) -> int:
        return self._process.pid.index

    def _instance(self, tag: str) -> _Instance:
        if tag not in self._instances:
            self._instances[tag] = _Instance()
        return self._instances[tag]

    def _key_state(self, instance: _Instance, commitment: Any,
                   client: PartyId) -> _KeyState:
        """The session a message naming ``D`` belongs to, opened if new."""
        digest = self._config.commitment_scheme.digest(commitment)
        key = (digest, client)
        state = instance.keys.get(key)
        if state is None:
            state = instance.keys[key] = _KeyState(
                commitment=commitment, digest=digest, client=client)
        return state

    # -- handlers --------------------------------------------------------------

    def _on_send(self, message: Message) -> None:
        """First valid ``send`` from this origin: echo our block to all.

        Server origins are rejected: only clients disperse in the
        register protocols, so a Byzantine server cannot even open a
        session, let alone hijack one.
        """
        origin = message.sender
        if origin.is_server or len(message.payload) != 3:
            return
        instance = self._instance(message.tag)
        if origin in instance.echoed or origin in instance.completed:
            return
        commitment, block, witness = message.payload
        scheme = self._config.commitment_scheme
        if not scheme.verify(commitment, self._my_index, block, witness):
            return
        instance.echoed.add(origin)
        state = self._key_state(instance, commitment, origin)
        if state.own_block is None:
            state.own_block = (block, witness)
        # Our own echo comes back through the network like everyone
        # else's, but names H(D): we hold D and the block already.  The
        # copies go out in server order, as a broadcast's would.
        process = self._process
        tag = message.tag
        size = content_wire_size(tag, MSG_ECHO,
                                 (commitment, origin, block, witness))
        for server in process.simulator.server_pids:
            if server == process.pid:
                process.send(server, tag, MSG_ECHO, state.digest, origin,
                             None, None)
            else:
                process.send(server, tag, MSG_ECHO, commitment, origin,
                             block, witness, wire_size=size)

    def _on_echo(self, message: Message) -> None:
        """Record a valid echo — it carries the echoer's own block, except
        our own, which names ``H(D)`` and stands for the block we stored
        on ``send``."""
        if not message.sender.is_server or len(message.payload) != 4:
            return
        name, client, block, witness = message.payload
        if not isinstance(client, PartyId) or client.is_server:
            return
        instance = self._instance(message.tag)
        if client in instance.completed:
            return
        sender_index = message.sender.index
        if block is None:
            if message.sender != self._process.pid or \
                    not isinstance(name, bytes):
                return
            state = instance.keys.get((name, client))
            if state is None or state.own_block is None:
                return
            echoed = state.own_block
        else:
            scheme = self._config.commitment_scheme
            if not scheme.verify(name, sender_index, block, witness):
                return
            state = self._key_state(instance, name, client)
            echoed = (block, witness)
        if sender_index not in state.echo_blocks:
            state.echo_blocks[sender_index] = echoed
        self._progress(message.tag, instance, state)

    def _on_ready(self, message: Message) -> None:
        """Record a ready; harvest our own block if it is personalized.

        A ready that names ``H(D)`` counts only toward a session this
        server has opened."""
        if not message.sender.is_server or len(message.payload) != 4:
            return
        name, client, my_block, my_witness = message.payload
        if not isinstance(client, PartyId) or client.is_server:
            return
        instance = self._instance(message.tag)
        if client in instance.completed:
            return
        scheme = self._config.commitment_scheme
        if scheme.is_commitment(name):
            # Ready amplification must buffer the (commitment, client)
            # key before this server can verify anything: its own block
            # may only arrive with a later personalized ready.  The
            # buffered state is bounded per key and every block in it is
            # commitment-verified before use, so unverified commitments
            # can waste one _KeyState slot but never reach a decode.
            # lint: disable=taint-unverified-sink
            state = self._key_state(instance, name, client)
        elif isinstance(name, bytes):
            state = instance.keys.get((name, client))
            if state is None:
                return
        else:
            return
        state.ready_senders.add(message.sender)
        if state.own_block is None and my_block is not None:
            if scheme.verify(state.commitment, self._my_index, my_block,
                             my_witness):
                state.own_block = (my_block, my_witness)
        self._progress(message.tag, instance, state)

    # -- state machine -------------------------------------------------------------

    def _progress(self, tag: str, instance: _Instance,
                  state: _KeyState) -> None:
        origin = state.client
        if origin not in instance.ready_sent:
            if (len(state.echo_blocks) >= self._quorum
                    and self._check_consistency(state)):
                self._send_ready(tag, instance, state)
            elif len(state.ready_senders) >= self._ready_amplify:
                # Amplification: at least one honest server has verified
                # consistency; try to reconstruct so our ready can carry
                # personalized blocks, but do not require it.
                self._check_consistency(state)
                self._send_ready(tag, instance, state)
        if (origin not in instance.completed
                and len(state.ready_senders) >= self._deliver_quorum):
            if state.own_block is None:
                self._check_consistency(state)
            if state.own_block is not None:
                instance.completed.add(origin)
                block, witness = state.own_block
                commitment = state.commitment
                # Drop this session's buffers; flags persist, so late
                # traffic for the completed session is ignored.
                instance.keys = {
                    key: key_state
                    for key, key_state in instance.keys.items()
                    if key_state.client != origin
                }
                self._complete(tag, commitment, origin, block, witness)

    def _check_consistency(self, state: _KeyState) -> bool:
        """The verifiability check: decode, re-encode, re-commit, compare.

        Caches its verdict.  On success the full re-encoded block vector is
        retained for personalizing readys and for our own block.
        """
        if state.consistent is not None:
            return state.consistent
        coder = self._config.coder
        if len(state.echo_blocks) < coder.k:
            return False
        try:
            candidate = coder.decode(
                (index, block)
                for index, (block, _) in state.echo_blocks.items())
            blocks = coder.encode(candidate)
            commitment, witnesses = \
                self._config.commitment_scheme.commit(blocks)
        except Exception:
            state.consistent = False
            return False
        if encode(commitment) != encode(state.commitment):
            # The client committed to something that is not the encoding
            # of any value: refuse to ever send ready for it.
            state.consistent = False
            return False
        state.consistent = True
        state.all_blocks = blocks
        state.all_witnesses = witnesses
        if state.own_block is None:
            state.own_block = (blocks[self._my_index - 1],
                               witnesses[self._my_index - 1])
        return True

    def _send_ready(self, tag: str, instance: _Instance,
                    state: _KeyState) -> None:
        """Send ready to every server, carrying nothing it holds: a
        server whose valid echo we recorded has ``D`` and its block."""
        instance.ready_sent.add(state.client)
        for server in self._process.simulator.server_pids:
            index = server.index
            if index in state.echo_blocks:
                self._process.send(server, tag, MSG_READY, state.digest,
                                   state.client, None, None)
                continue
            if state.all_blocks is not None:
                block = state.all_blocks[index - 1]
                witness = state.all_witnesses[index - 1]
            else:
                block, witness = None, None
            self._process.send(server, tag, MSG_READY, state.commitment,
                               state.client, block, witness)

    # -- introspection ----------------------------------------------------------

    def completed(self, tag: str) -> bool:
        """Whether this server completed any dispersal session under
        ``tag``."""
        instance = self._instances.get(tag)
        return bool(instance and instance.completed)

    def storage_bytes(self) -> int:
        """Transient state of in-flight dispersals (echo block buffers)."""
        total = 0
        for instance in self._instances.values():
            for state in instance.keys.values():
                for block, _ in state.echo_blocks.values():
                    total += len(block)
                if state.all_blocks is not None:
                    total += sum(len(block) for block in state.all_blocks)
        return total
