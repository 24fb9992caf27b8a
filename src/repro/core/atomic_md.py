"""Protocol AtomicMd — metadata/data separation with one-round-trip reads.

A fast-path variant of Protocol Atomic in the spirit of MDStore
(*Erasure-Coded Byzantine Storage with Separate Metadata*) and
PoWerStore (*Proofs of Writing for Efficient and Robust Storage*): a
write pushes each server only its own erasure-coded block,
point-to-point, and commits with a constant-size proof of writing in
place of a reliable broadcast; a read is Protocol Atomic's single round
trip, each reply carrying the version's metadata and the replying
server's own block.  The cross-checksum ``D`` is ``n`` hashes, so the
protocol states it as few times as it can — once per server on the
write path (beside the block, in ``md-store``), once per ``md-meta`` on
the read path, once per register at rest — and names it by its hash
``H(D)`` everywhere else.

Write (client ``C_i``, value ``F``, operation identifier ``oid``) —
PoWerStore's two-phase write, ``6n`` messages:
  1. query all servers for their timestamps (``md-get-ts``), take the
     maximum ``ts`` among ``n - t`` replies (metadata plane);
  2. *store*: encode ``F`` into blocks, commit to the cross-checksum
     ``D``, and send each server *only its own* block ``[D, F_j, w_j]``
     plus the **lock** ``H(ts, N)`` over a proof-of-writing nonce ``N``
     that only the writer knows (``md-store`` — data plane, ``O(n)``
     block messages instead of AVID's ``O(n^2)`` echo traffic); a server
     acks a block that verifies against ``D`` with ``md-stored``;
  3. *commit*: after ``n - t`` store-acks, send ``md-commit (ts, H(D),
     N)`` to all servers — revealing ``N`` is the proof that the store
     phase completed;
  4. wait for ``n - t`` ``md-ack`` messages.

Server ``P_j`` joins a commit with a verified ``md-store`` of the same
operation when the commit's ``H(D)`` names the cross-checksum the block
verified against (the digest is computed once, when the block verifies)
*and* its ``(ts, N)`` opens the store's lock; it then adopts ``[D, F_j,
w_j, ts + 1, N]`` if that exceeds the stored TIMESTAMP, forwards the
version with its own block (``md-meta``) to registered listeners, acks
the writer, and outputs ``write-accepted``.  A writer whose halves
disagree never takes effect; a commit sent by a server is ignored; a
commit for an operation already accepted is dropped.  Clients are
crash-only and every honest client sends one ``D`` and one lock to all
servers, so two honest servers that adopt one TIMESTAMP adopt one ``D``
(collision resistance) — the binding Protocol Atomic buys with a
reliable broadcast, here without one.

At rest a server keeps one version per register: the adopted ``D``,
TIMESTAMP and proof ``N``, with its own block and witness.  No older
version is kept, because no reader ever asks for one: every block a
read decodes arrived inside the ``md-meta`` that vouched for it.

Read (client ``C_i``, operation identifier ``oid``) — ``3n`` messages:
  1. send ``md-read`` to all servers; each answers, and forwards every
     newer version it later accepts, with ``md-meta (D, TIMESTAMP, N,
     F_j, w_j)``;
  2. group the replies by ``(D, TIMESTAMP, N)``; once a group has
     ``n - t`` members, verify its members' blocks against that ``D``
     at each sender's index, in arrival order, until ``k`` verify (a
     block that fails is reported; a reply without a block counts
     toward agreement only).  Among several such groups the largest
     TIMESTAMP goes first;
  3. decode the ``k`` blocks, send ``md-read-complete``, return.
  **Write-back.**  A writer that crashes between its commits can leave
  honest servers split between the committed version and an older one
  with no ``n - t`` agreeing on either.  Once ``n - t`` servers have
  answered without agreement, the reader relays, once each, the commit
  of every reported version that is some server's newest and above the
  lowest such version, to the servers that have not reported it.  Any
  client may relay a commit: a server accepts it only for a store it
  holds whose lock the relayed ``(ts, N)`` opens, and ``N`` exists
  outside the writer only once the writer has committed — so one
  report suffices, and a Byzantine server can neither forge a commit
  nor shift its TIMESTAMP.  The newest version any honest server adopted
  is some honest server's newest report; every honest server holds its
  store (the writer sent all ``n`` before committing), so the relay
  makes every honest server accept it and forward it to the reader's
  listener.

Guarantees, each argued where it lives:

* **Atomicity and wait-free reads** at ``n > 3t`` with ``k <= n - 2t``
  (:func:`validate_md_config`): a completed write was accepted by
  ``n - t`` servers, so any ``n - t`` agreeing metadata quorum
  intersects it in an honest server (Lemma 3); only a committed version
  is ever adopted by an honest server (the lock), so a quorum-agreed
  TIMESTAMP names a real write (Lemma 6).  An agreeing group holds at
  least ``n - 2t >= k`` honest blocks, so a read decodes as soon as a
  group agrees — there is no second round whose target could crash —
  and a group agrees by the write-back above plus Protocol Atomic's
  listener argument.
* **Leases**: :meth:`AtomicMdClient.invoke_validate` takes the maximum
  TIMESTAMP over ``n - t`` replies — at least that of every write that
  completed before the round, because a completed write holds ``n - t``
  acks.
* **No laundering**: repair (:mod:`repro.repair.protocol`) re-disperses
  only a version ``n - t`` servers agree on, under its original
  TIMESTAMP and proof, after re-deriving its cross-checksum.

Fault model: Byzantine servers, **crash-only clients** — the model of
MDStore and PoWerStore.  Dropping AVID means a Byzantine *writer* could
disperse inconsistently-encoded blocks (the Section 5 "poisonous write"
vector), or hand different servers different locks; AtomicMd trades
that protection for an ``O(n)`` write and is therefore registered
alongside, not in place of, Protocol Atomic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.common.errors import ConfigurationError
from repro.common.ids import PartyId
from repro.common.serialization import encode
from repro.config import SystemConfig
from repro.core.listeners import ListenerSet
from repro.core.register import (
    KIND_VALIDATE,
    OperationHandle,
    RegisterClientBase,
    RegisterServerBase,
)
from repro.core.timestamps import INITIAL_TIMESTAMP, Timestamp
from repro.crypto.hashing import DIGEST_SIZE, hash_bytes, hash_many
from repro.net.message import Message
from repro.net.process import (Groups, WaitState, agreeing_groups,
                               once_per_message)

MSG_GET_TS = "md-get-ts"
MSG_TS = "md-ts"
MSG_STORE = "md-store"
MSG_STORED = "md-stored"
MSG_COMMIT = "md-commit"
MSG_ACK = "md-ack"
MSG_READ = "md-read"
MSG_META = "md-meta"
MSG_READ_COMPLETE = "md-read-complete"
MSG_VALIDATE = "md-validate"
MSG_VALID = "md-valid"
MSG_REPAIR = "md-repair"
MSG_REPAIR_ACK = "md-repair-ack"

#: every wire message type of AtomicMd, for observability tooling
#: (per-mtype instruments, phase classification, plane attribution)
MESSAGE_TYPES = (MSG_GET_TS, MSG_TS, MSG_STORE, MSG_STORED, MSG_COMMIT,
                 MSG_ACK, MSG_READ, MSG_META, MSG_READ_COMPLETE,
                 MSG_VALIDATE, MSG_VALID, MSG_REPAIR, MSG_REPAIR_ACK)

#: message types that carry erasure-coded blocks (the data plane); the
#: remaining AtomicMd traffic is timestamps, digests and cross-checksums.
#: An ``md-meta`` carries its sender's block, and ``md-repair``
#: re-disperses a reconstructed block to one server, like the write
#: path's ``md-store``.
DATA_PLANE_TYPES = (MSG_STORE, MSG_META, MSG_REPAIR)

#: proof of writing of the initial value, which no writer committed
NO_PROOF = b""


def validate_md_config(config: SystemConfig) -> SystemConfig:
    """Check the AtomicMd resilience requirement ``k <= n - 2t``.

    An agreeing metadata quorum has ``n - t`` members of which up to
    ``t`` are Byzantine, so only ``n - 2t`` of its blocks are guaranteed
    to verify; a coder needing more than that could stall reads.
    Deployment-shape validation, not a quorum wait.
    """
    honest_in_quorum = config.quorum - config.t
    if config.k > honest_in_quorum:
        raise ConfigurationError(
            f"atomic_md requires k <= n - 2t for read liveness, got "
            f"k={config.k} with n={config.n} t={config.t}; "
            f"use SystemConfig(n, t, k={config.t + 1})")
    return config


def proof_lock(ts: int, proof: bytes) -> bytes:
    """The lock an ``md-store`` carries: ``H(ts, N)``.

    A commit opens it by revealing ``(ts, N)``; binding ``ts`` into the
    lock means whoever relays a commit can neither invent one (``N`` is
    unknown until the writer commits) nor move it to another TIMESTAMP.
    """
    return hash_bytes(encode((ts, proof)))


def _is_digest(value: Any) -> bool:
    return isinstance(value, bytes) and len(value) == DIGEST_SIZE


@dataclass
class _MdRegisterState:
    """Global variables of one AtomicMd register at one server.

    The adopted version is ``commitment``, ``timestamp``, ``proof``,
    ``block`` and ``witness``: the one version a server keeps.
    """

    #: cross-checksum of the adopted version — the only ``D`` at rest
    commitment: Any
    timestamp: Timestamp
    #: this server's own block of the adopted version, and its witness
    block: bytes
    witness: Any
    listeners: ListenerSet
    #: proof of writing ``N`` of the adopted version, restated in every
    #: ``md-meta`` so a reader can relay its commit
    proof: bytes = NO_PROOF
    #: well-formed ``md-commit`` payloads ``(ts, H(D), N)`` not yet
    #: joined, by oid (insertion-ordered sets)
    pending_meta: Dict[str, Dict[Tuple[int, bytes, bytes], None]] = \
        field(default_factory=dict)
    #: verified ``md-store`` halves by oid and writer:
    #: ``(H(D), lock, D, block, witness)``
    pending_store: Dict[str, Dict[PartyId,
                                  Tuple[bytes, bytes, Any, bytes, Any]]] \
        = field(default_factory=dict)
    accepted: Set[str] = field(default_factory=set)


class AtomicMdServer(RegisterServerBase):
    """Server ``P_j`` of Protocol AtomicMd.

    Like :class:`~repro.core.atomic.AtomicServer`, one server process
    simulates any number of registers keyed by tag.  The differences are
    the data plane (blocks arrive point-to-point via ``md-store``), the
    two-phase write (``md-commit`` in place of a reliable broadcast),
    and the read reply, which states ``D`` beside this server's block
    alone.
    """

    def __init__(self, pid: PartyId, config: SystemConfig,
                 initial_value: bytes = b"",
                 max_listeners: Optional[int] = None):
        super().__init__(pid, validate_md_config(config), initial_value)
        self._max_listeners = max_listeners
        self.on(MSG_GET_TS, self._on_get_ts)
        self.on(MSG_STORE, self._on_store)
        self.on(MSG_COMMIT, self._on_commit)
        self.on(MSG_READ, self._on_read)
        self.on(MSG_READ_COMPLETE, self._on_read_complete)
        self.on(MSG_VALIDATE, self._on_validate)
        self.on(MSG_REPAIR, self._on_repair)

    def _new_register(self) -> _MdRegisterState:
        commitment, block, witness = self._initial_block()
        return _MdRegisterState(
            commitment=commitment, timestamp=INITIAL_TIMESTAMP,
            block=block, witness=witness, listeners=self._new_listeners())

    # -- metadata plane: timestamps and revalidation -----------------------

    def _send_ts(self, client: PartyId, tag: str, oid: str,
                 *reply: Any) -> None:
        self.send(client, tag, MSG_TS, oid, *reply)

    def _on_validate(self, message: Message) -> None:
        """Answer a metadata-only revalidation probe with the *full*
        current TIMESTAMP.

        Unlike ``md-ts`` (which carries only the integer ``ts`` for the
        writer's increment) the reply includes the writer-id tiebreak:
        two concurrent writes can share the integer while naming
        different values, so a cache revalidated on the bare integer
        could confirm the wrong one.  Stateless and side-effect free —
        no listener registration, nothing adopted, no block.
        """
        oid = self._request_oid(message)
        if oid is not None:
            self.send(message.sender, message.tag, MSG_VALID, oid,
                      self._valid_reply(self.register_state(message.tag)))

    def _valid_reply(self, state: _MdRegisterState) -> Timestamp:
        """The TIMESTAMP a revalidation probe is answered with (the one
        step a Byzantine metadata plane replaces)."""
        return state.timestamp

    # -- read path: one reply per version, block inline ---------------------

    def _version(self, state: _MdRegisterState) -> Tuple[Any, ...]:
        """``(D, TIMESTAMP, N, block, witness)`` — also all a register
        keeps at rest, each byte counted once."""
        return (state.commitment, state.timestamp, state.proof, state.block,
                state.witness)

    def _send_version(self, reader: PartyId, tag: str, oid: str,
                      commitment: Any, timestamp: Timestamp, proof: bytes,
                      block: bytes, witness: Any) -> None:
        """Send one version's metadata with this server's own block and
        witness of it — the read reply and every listener forward (the
        one step a Byzantine data plane replaces)."""
        self.send(reader, tag, MSG_META, oid, commitment, timestamp, proof,
                  block, witness)

    # -- data plane: block ingest -------------------------------------------

    def _on_store(self, message: Message) -> None:
        """Ingest this server's own block of a write, verified against
        the carried cross-checksum before touching join state, and ack
        it to the writer."""
        if len(message.payload) != 5 or message.sender.is_server:
            return  # only clients write; servers never push blocks
        oid, commitment, block, witness, lock = message.payload
        if not isinstance(oid, str) or not isinstance(block, bytes) \
                or not _is_digest(lock):
            return
        known = self._registers.get(message.tag)
        if known is not None and oid in known.accepted:
            return  # a late copy of a store this server already joined
        if not self.config.commitment_scheme.verify(
                commitment, self.pid.index, block, witness):
            self.note_verification_failure(message.tag, MSG_STORE,
                                           message.sender)
            return
        state = self.register_state(message.tag)
        senders = state.pending_store.setdefault(oid, {})
        if message.sender in senders:
            return
        senders[message.sender] = (
            self.config.commitment_scheme.digest(commitment), lock,
            commitment, block, witness)
        self.send(message.sender, message.tag, MSG_STORED, oid)
        self._try_join(message.tag, oid)

    def _on_repair(self, message: Message) -> None:
        """Ingest a re-dispersed block from the repair plane.

        A repair client reconstructed the register's value from ``k``
        blocks that verified against a quorum-agreed cross-checksum,
        re-encoded it, and is re-storing this server's own block under
        the version's *original* TIMESTAMP and proof of writing — so
        repair never advances logical time, it only restores redundancy.
        The block must verify against the carried cross-checksum before
        anything is touched, exactly like ``md-store``; like the write
        path, the sender is trusted to *name* the version honestly
        because clients are crash-only in this model (a Byzantine
        repairer could install a forged commitment — see
        docs/ROBUSTNESS.md for why repair authority stays with the
        trusted operator plane).

        The version is adopted if newer than the stored one (a
        replacement server starts amnesiac at the initial TIMESTAMP, so
        adoption is the common case) and forwarded to listeners, as with
        any accepted write.
        """
        if len(message.payload) != 6 or message.sender.is_server:
            return  # repair is client-plane traffic, like md-store
        oid, timestamp, commitment, block, witness, proof = message.payload
        if not isinstance(oid, str) or not isinstance(block, bytes) \
                or not isinstance(timestamp, Timestamp) \
                or not (proof == NO_PROOF or _is_digest(proof)):
            return
        if not self.config.commitment_scheme.verify(
                commitment, self.pid.index, block, witness):
            self.note_verification_failure(message.tag, MSG_REPAIR,
                                           message.sender)
            return
        state = self.register_state(message.tag)
        if state.timestamp < timestamp:
            version = (commitment, timestamp, proof, block, witness)
            (state.commitment, state.timestamp, state.proof, state.block,
             state.witness) = version
            self._forward(message.tag, state, timestamp, version)
        self.send(message.sender, message.tag, MSG_REPAIR_ACK, oid,
                  timestamp)
        self.output(message.tag, "repair-accepted", oid, timestamp)

    # -- write path: join the verified block with its commit ---------------

    def _on_commit(self, message: Message) -> None:
        """Buffer a well-formed commit from a client (the writer, or a
        reader writing back) and try to join it with its store.

        The payload shape is checked before any state is written; a
        commit from a server, or for an operation this server already
        accepted, is dropped without touching join state.
        """
        if len(message.payload) != 4 or message.sender.is_server:
            return
        oid, ts, digest, proof = message.payload
        if not isinstance(oid, str) or type(ts) is not int or ts < 0 \
                or not _is_digest(digest) or not _is_digest(proof):
            return
        state = self.register_state(message.tag)
        if oid in state.accepted:
            return
        state.pending_meta.setdefault(oid, {})[(ts, digest, proof)] = None
        self._try_join(message.tag, oid)

    def _try_join(self, register_tag: str, oid: str) -> None:
        """Fire the write once a buffered commit names the digest of a
        verified store's cross-checksum and opens that store's lock (a
        writer whose halves disagree never takes effect)."""
        state = self.register_state(register_tag)
        if oid in state.accepted:
            return
        stores = state.pending_store.get(oid)
        commits = state.pending_meta.get(oid)
        if not stores or not commits:
            return
        for ts, digest, proof in commits:
            lock = proof_lock(ts, proof)
            for writer, stored in stores.items():
                if stored[0] != digest or stored[1] != lock:
                    continue  # halves disagree, or not this write's proof
                state.accepted.add(oid)
                self._accept_write(register_tag, oid, writer,
                                   Timestamp(ts + 1, oid), proof, state)
                return

    def _accept_write(self, register_tag: str, oid: str, writer: PartyId,
                      timestamp: Timestamp, proof: bytes,
                      state: _MdRegisterState) -> None:
        """Adopt the version if newer, forward it with this server's
        block to listeners, ack, take effect."""
        _, _, commitment, block, witness = state.pending_store.pop(oid)[writer]
        state.pending_meta.pop(oid, None)
        version = (commitment, timestamp, proof, block, witness)
        if state.timestamp < timestamp:
            (state.commitment, state.timestamp, state.proof, state.block,
             state.witness) = version
        self._forward(register_tag, state, timestamp, version)
        self.send(writer, register_tag, MSG_ACK, oid)
        self.output(register_tag, "write-accepted", oid, timestamp)

class AtomicMdClient(RegisterClientBase):
    """Client ``C_i`` of Protocol AtomicMd.

    Writes run one timestamp round, ``n`` point-to-point block pushes
    and one commit round; reads run one round trip whose replies carry
    the servers' blocks.  Requires ``k <= n - 2t`` (see
    :func:`validate_md_config`).
    """

    def __init__(self, pid: PartyId, config: SystemConfig):
        super().__init__(pid, validate_md_config(config))
        # Stands in for the writer's fresh randomness: derived from a
        # per-client key so runs replay, and read by no server code.
        self._proof_key = hash_many((b"md-proof", str(config.seed).encode(),
                                     str(pid).encode()))

    def _proof_of_writing(self, tag: str, oid: str) -> bytes:
        """The nonce ``N`` of one write, revealed only by its commit."""
        return hash_many((self._proof_key, tag.encode(), oid.encode()))

    # -- write --------------------------------------------------------------

    def _write_thread(self, handle: OperationHandle):
        tag, oid = handle.tag, handle.oid
        replies = yield from self._ts_round(tag, oid, MSG_GET_TS, MSG_TS)
        ts = max(message.payload[1] for message in replies)
        blocks = self.config.coder.encode(handle.value)
        commitment, witnesses = \
            self.config.commitment_scheme.commit(blocks)
        proof = self._proof_of_writing(tag, oid)
        lock = proof_lock(ts, proof)
        # Store phase: each server gets only its own block — O(n) block
        # messages in place of AVID's O(n^2) echo traffic.
        for server in self.simulator.server_pids:
            index = server.index
            self.send(server, tag, MSG_STORE, oid, commitment,
                      blocks[index - 1], witnesses[index - 1], lock)
        yield self.condition_quorum(
            tag, MSG_STORED, self.config.quorum, oid=oid,
            where=lambda m: m.sender.is_server and len(m.payload) == 1)
        # Commit phase: n - t servers hold a verified block, so revealing
        # N proves the version is stored; servers hold D from md-store
        # and the commit names it by its hash.
        self.send_to_servers(
            tag, MSG_COMMIT, oid, ts,
            self.config.commitment_scheme.digest(commitment), proof)
        yield self.condition_quorum(
            tag, MSG_ACK, self.config.quorum, oid=oid,
            where=lambda m: m.sender.is_server and len(m.payload) == 1)
        self._finish_write(handle)
        # Expose the TIMESTAMP the acked write took effect with (the
        # servers adopt exactly ``Timestamp(ts + 1, oid)``) so session
        # caches can seed from acked writes, mirroring ``_finish_read``.
        handle.timestamp = Timestamp(ts + 1, oid)

    # -- metadata-only revalidation -----------------------------------------

    def invoke_validate(self, tag: str, oid: str) -> OperationHandle:
        """Start a metadata-only revalidation round; the handle's
        ``timestamp`` holds the freshest quorum TIMESTAMP once done.

        The round queries all servers and takes the maximum full
        TIMESTAMP among ``n - t`` replies.  Any such quorum intersects
        the ``n - t`` servers that acked every completed write in at
        least ``n - 2t >= t + 1`` servers — one honest — so the maximum
        is at least the TIMESTAMP of every write that completed before
        the round began.  A cached pair whose TIMESTAMP equals that
        maximum is therefore still current, and serving it linearizes
        the read inside the revalidation round.  No blocks move; this
        is not a register operation of Definition 1 and never enters
        histories.
        """
        handle = self._new_handle(KIND_VALIDATE, tag, oid)
        self.record_input(tag, "validate", oid)
        handle.invoke_time = self.simulator.time
        self.start_thread(self._validate_thread(handle))
        return handle

    def _validate_thread(self, handle: OperationHandle):
        tag, oid = handle.tag, handle.oid
        self.send_to_servers(tag, MSG_VALIDATE, oid)
        replies = yield self.condition_quorum(
            tag, MSG_VALID, self.config.quorum, oid=oid,
            where=lambda m: (m.sender.is_server
                             and len(m.payload) == 2
                             and isinstance(m.payload[1], Timestamp)))
        timestamp = max(message.payload[1] for message in replies)
        self.output(tag, "validate", oid)
        self._complete(handle, timestamp=timestamp)

    # -- read ---------------------------------------------------------------

    def _read_thread(self, handle: OperationHandle):
        tag, oid = handle.tag, handle.oid
        self.send_to_servers(tag, MSG_READ, oid)
        timestamp, _, _, pairs = yield self._read_condition(tag, oid)
        self.send_to_servers(tag, MSG_READ_COMPLETE, oid)
        value = self.config.coder.decode(pairs)
        self._finish_read(handle, value, timestamp)

    def _read_condition(self, tag: str, oid: str):
        """Condition: ``n - t`` servers agree on one ``(D, TIMESTAMP,
        N)`` *and* ``k`` of their inline blocks verify against that
        ``D``; returns ``(TIMESTAMP, D, N, [(index, block)] * k)``.

        An agreeing group's blocks are verified in arrival order, each
        ``md-meta`` at most once, until ``k`` verify: a corrupted block
        is reported once however often the condition is re-evaluated,
        and a reply without a block is an omission, not a failure.  An
        agreeing group holds at least ``n - 2t >= k`` honest blocks, so
        the first group to agree decodes; when several agree the
        largest TIMESTAMP goes first.  While no group agrees it writes
        back commits (see the module docstring).
        """
        scheme = self.config.commitment_scheme
        quorum = self.config.quorum
        k = self.config.k
        #: per evaluated ``md-meta``: whether its block verified
        block_memo: Dict[int, bool] = {}
        #: group keys whose commit was already written back
        relayed: Set[bytes] = set()

        def meta_valid(message: Message) -> bool:
            payload = message.payload
            return (message.sender.is_server
                    and len(payload) == 6
                    and isinstance(payload[2], Timestamp)
                    and isinstance(payload[3], bytes))

        @once_per_message
        def version(message: Message) -> bytes:
            """The encoding of its ``(D, TIMESTAMP, N)``."""
            return encode(message.payload[1:4])

        def block_valid(message: Message) -> bool:
            cached = block_memo.get(message.msg_id)
            if cached is None:
                _, commitment, _, _, block, witness = message.payload
                cached = scheme.verify(commitment, message.sender.index,
                                       block, witness)
                if not cached and isinstance(block, bytes):
                    # A block failing the cross-checksum its own group
                    # agreed on can only come from a Byzantine server.
                    self.note_verification_failure(tag, MSG_META,
                                                   message.sender)
                block_memo[message.msg_id] = cached
            return cached

        def write_back(groups: Groups) -> None:
            """Relay the commit of every version that is some server's
            newest report and above the lowest such one, once each, to
            the servers that have not reported it."""
            newest: Dict[PartyId, Tuple[Timestamp, bytes]] = {}
            for key, group in groups.items():
                for sender, message in group.items():
                    timestamp = message.payload[2]
                    if sender not in newest or newest[sender][0] < timestamp:
                        newest[sender] = (timestamp, key)
            if len(newest) < quorum:
                return  # n - t servers have not answered yet
            floor = min(timestamp for timestamp, _ in newest.values())
            for timestamp, key in newest.values():
                if timestamp <= floor or timestamp.ts < 1 or key in relayed:
                    continue
                relayed.add(key)
                group = groups[key]
                _, commitment, _, proof = \
                    next(iter(group.values())).payload[:4]
                for server in self.simulator.server_pids:
                    if server not in group:
                        self.send(server, tag, MSG_COMMIT, timestamp.oid,
                                  timestamp.ts - 1, scheme.digest(commitment),
                                  proof)

        def check():
            groups = agreeing_groups(self.inbox.messages(
                tag, MSG_META, where=meta_valid, oid=oid), version)
            agreed = [group for group in groups.values()
                      if len(group) >= quorum]
            if not agreed:
                write_back(groups)
                return None
            agreed.sort(key=lambda group: next(iter(group.values()))
                        .payload[2], reverse=True)
            for group in agreed:
                verified: List[Message] = []
                for message in group.values():
                    if block_valid(message):
                        verified.append(message)
                        if len(verified) == k:
                            _, commitment, timestamp, proof = \
                                message.payload[:4]
                            return (timestamp, commitment, proof,
                                    [(member.sender.index, member.payload[4])
                                     for member in verified])
            return None

        return WaitState(check, (tag, MSG_META, oid))
