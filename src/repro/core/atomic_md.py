"""Protocol AtomicMd — metadata/data separation with k-server reads.

A fast-path variant of Protocol Atomic in the spirit of MDStore
(*Erasure-Coded Byzantine Storage with Separate Metadata*) and
PoWerStore (*Proofs of Writing for Efficient and Robust Storage*): the
**metadata plane** (timestamps and cross-checksums) runs at full
``n - t`` quorums, while the **data plane** (erasure-coded blocks) is
pushed point-to-point on writes and fetched from only ``k`` servers on
reads, with verified-against-metadata escalation to further servers
when a block fails verification or a queried server reports a miss.
"Metadata" does not mean small: the cross-checksum ``D`` is ``n``
hashes, so at 64-byte values and n = 7 an ``md-meta`` is 378 bytes on
the wire against a 115-byte ``md-block``.  The protocol therefore
states ``D`` as few times as it can — once per server on the write path
(beside the block, in ``md-store``), once per ``md-meta`` on the read
path, once per register at rest — and names it by its hash ``H(D)``
everywhere else.

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
ts + 1, oid]`` if that exceeds the stored TIMESTAMP, forwards **metadata
only** (``md-meta``) to registered listeners, acks the writer, and
outputs ``write-accepted``.  A writer whose halves disagree never takes
effect; a commit sent by a server is ignored; a commit for an operation
already accepted is dropped.  Clients are crash-only and every honest
client sends one ``D`` and one lock to all servers, so two honest
servers that adopt one TIMESTAMP adopt one ``D`` (collision
resistance) — the binding Protocol Atomic buys with a reliable
broadcast, here without one.

Accepted versions are retained in a bounded per-register history —
TIMESTAMP → block and witness — so readers can fetch blocks for a
timestamp that was current when the metadata quorum formed.  ``D`` and
``N`` are kept once per register, for the adopted version: that is the
only one ``md-meta`` replies ever state, and a reader verifies any block
it fetches against the ``D`` its metadata quorum agreed on, never
against the serving server's copy.

Read (client ``C_i``, operation identifier ``oid``):
  1. send ``md-read`` to all servers; collect ``md-meta (D, TIMESTAMP,
     N)`` replies until ``n - t`` distinct servers agree on one
     (metadata plane — no blocks on the wire);
  2. request blocks (``md-get-block``) from ``k`` of the agreeing
     servers (data plane); verify each ``md-block`` against ``D``;
  3. **escalate**: a block that fails verification, or an ``md-block-miss``
     (the server evicted that version), triggers a request to the next
     agreeing server — including servers that joined the agreeing group
     after the quorum formed;
  4. on ``k`` verified blocks: decode, send ``md-read-complete``,
     return.
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
  TIMESTAMP names a real write (Lemma 6); wait-freedom is the
  write-back above plus Protocol Atomic's listener argument.
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
from typing import Any, Dict, Optional, Set, Tuple

from repro.common.errors import ConfigurationError
from repro.common.ids import PartyId
from repro.common.serialization import encode, encoded_size
from repro.config import SystemConfig
from repro.core.listeners import ListenerSet
from repro.core.register import (
    KIND_VALIDATE,
    OperationHandle,
    RegisterClientBase,
)
from repro.core.timestamps import INITIAL_TIMESTAMP, Timestamp
from repro.crypto.hashing import DIGEST_SIZE, hash_bytes, hash_many
from repro.net.message import Message
from repro.net.process import Process, WaitState

MSG_GET_TS = "md-get-ts"
MSG_TS = "md-ts"
MSG_STORE = "md-store"
MSG_STORED = "md-stored"
MSG_COMMIT = "md-commit"
MSG_ACK = "md-ack"
MSG_READ = "md-read"
MSG_META = "md-meta"
MSG_GET_BLOCK = "md-get-block"
MSG_BLOCK = "md-block"
MSG_BLOCK_MISS = "md-block-miss"
MSG_READ_COMPLETE = "md-read-complete"
MSG_VALIDATE = "md-validate"
MSG_VALID = "md-valid"
MSG_REPAIR = "md-repair"
MSG_REPAIR_ACK = "md-repair-ack"

#: every wire message type of AtomicMd, for observability tooling
#: (per-mtype instruments, phase classification, plane attribution)
MESSAGE_TYPES = (MSG_GET_TS, MSG_TS, MSG_STORE, MSG_STORED, MSG_COMMIT,
                 MSG_ACK, MSG_READ, MSG_META, MSG_GET_BLOCK, MSG_BLOCK,
                 MSG_BLOCK_MISS, MSG_READ_COMPLETE, MSG_VALIDATE,
                 MSG_VALID, MSG_REPAIR, MSG_REPAIR_ACK)

#: message types that carry erasure-coded blocks (the data plane); the
#: remaining AtomicMd traffic is timestamps, digests and cross-checksums.
#: ``md-repair`` re-disperses a reconstructed block to one server, so
#: it rides the data plane like the write path's ``md-store``.
DATA_PLANE_TYPES = (MSG_STORE, MSG_BLOCK, MSG_REPAIR)

#: accepted versions retained per register for late block fetches.
DEFAULT_HISTORY_LIMIT = 16

#: proof of writing of the initial value, which no writer committed
NO_PROOF = b""


def validate_md_config(config: SystemConfig) -> SystemConfig:
    """Check the AtomicMd resilience requirement ``k <= n - 2t``.

    An agreeing metadata quorum has ``n - t`` members of which up to
    ``t`` are Byzantine, so only ``n - 2t`` block fetches are guaranteed
    to be served honestly; a coder needing more than that could stall
    reads.  Deployment-shape validation, not a quorum wait.
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

    The adopted version is ``commitment``, ``timestamp``, ``proof`` and
    ``history[timestamp]``; its block and witness live nowhere else.
    """

    #: cross-checksum of the adopted version — the only ``D`` at rest
    commitment: Any
    timestamp: Timestamp
    #: proof of writing ``N`` of the adopted version, restated in every
    #: ``md-meta`` so a reader can relay its commit
    proof: bytes = NO_PROOF
    listeners: ListenerSet = field(default_factory=ListenerSet)
    #: ``(block, witness)`` of accepted versions by TIMESTAMP (insertion
    #: == acceptance order), bounded by the server's ``history_limit``;
    #: always contains the currently adopted version.
    history: Dict[Timestamp, Tuple[bytes, Any]] = \
        field(default_factory=dict)
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


class AtomicMdServer(Process):
    """Server ``P_j`` of Protocol AtomicMd.

    Like :class:`~repro.core.atomic.AtomicServer`, one server process
    simulates any number of registers keyed by tag.  The differences are
    the data plane (blocks arrive point-to-point via ``md-store`` and
    are served on demand via ``md-get-block``), the two-phase write
    (``md-commit`` in place of a reliable broadcast), and listener
    forwarding, which carries metadata only.
    """

    def __init__(self, pid: PartyId, config: SystemConfig,
                 initial_value: bytes = b"",
                 max_listeners: Optional[int] = None,
                 history_limit: int = DEFAULT_HISTORY_LIMIT):
        super().__init__(pid)
        self.config = validate_md_config(config)
        self._initial_value = initial_value
        self._initial_state: Optional[Tuple[Any, bytes, Any]] = None
        self._max_listeners = max_listeners
        self.history_limit = max(1, history_limit)
        self._registers: Dict[str, _MdRegisterState] = {}
        self.on(MSG_GET_TS, self._on_get_ts)
        self.on(MSG_STORE, self._on_store)
        self.on(MSG_COMMIT, self._on_commit)
        self.on(MSG_READ, self._on_read)
        self.on(MSG_GET_BLOCK, self._on_get_block)
        self.on(MSG_READ_COMPLETE, self._on_read_complete)
        self.on(MSG_VALIDATE, self._on_validate)
        self.on(MSG_REPAIR, self._on_repair)

    # -- register state -----------------------------------------------------

    def register_state(self, tag: str) -> _MdRegisterState:
        """The register's global variables (created lazily)."""
        if tag not in self._registers:
            if self._initial_state is None:
                blocks = self.config.coder.encode(self._initial_value)
                commitment, witnesses = \
                    self.config.commitment_scheme.commit(blocks)
                index = self.pid.index
                self._initial_state = (commitment, blocks[index - 1],
                                       witnesses[index - 1])
            commitment, block, witness = self._initial_state
            state = _MdRegisterState(
                commitment=commitment, timestamp=INITIAL_TIMESTAMP,
                listeners=ListenerSet(capacity=self._max_listeners))
            state.history[INITIAL_TIMESTAMP] = (block, witness)
            self._registers[tag] = state
        return self._registers[tag]

    # -- metadata plane: timestamps and read metadata ----------------------

    def _on_get_ts(self, message: Message) -> None:
        if len(message.payload) != 1:
            return
        (oid,) = message.payload
        if not isinstance(oid, str):
            return  # byzantine oid: never echo unverified objects back
        state = self.register_state(message.tag)
        self.send(message.sender, message.tag, MSG_TS, oid,
                  state.timestamp.ts)

    def _on_read(self, message: Message) -> None:
        if len(message.payload) != 1:
            return
        (oid,) = message.payload
        if not isinstance(oid, str):
            return
        state = self.register_state(message.tag)
        if state.listeners.knows(oid):
            return  # duplicate read or already completed: stay silent
        state.listeners.add(oid, state.timestamp, message.sender)
        self.send(message.sender, message.tag, MSG_META, oid,
                  state.commitment, state.timestamp, state.proof)

    def _on_validate(self, message: Message) -> None:
        """Answer a metadata-only revalidation probe with the *full*
        current TIMESTAMP.

        Unlike ``md-ts`` (which carries only the integer ``ts`` for the
        writer's increment) the reply includes the writer-id tiebreak:
        two concurrent writes can share the integer while naming
        different values, so a cache revalidated on the bare integer
        could confirm the wrong one.  Stateless and side-effect free —
        no listener registration, nothing adopted.
        """
        if len(message.payload) != 1:
            return
        (oid,) = message.payload
        if not isinstance(oid, str):
            return
        state = self.register_state(message.tag)
        self.send(message.sender, message.tag, MSG_VALID, oid,
                  state.timestamp)

    def _on_read_complete(self, message: Message) -> None:
        if len(message.payload) != 1:
            return
        (oid,) = message.payload
        if not isinstance(oid, str):
            return
        self.register_state(message.tag).listeners.retire(oid)

    # -- data plane: block ingest and on-demand serving --------------------

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

    def _on_get_block(self, message: Message) -> None:
        """Serve the stored block of one accepted version, or report a
        miss (the version was evicted from the bounded history) so the
        reader escalates to another agreeing server."""
        if len(message.payload) != 2:
            return
        oid, timestamp = message.payload
        if not isinstance(oid, str) or not isinstance(timestamp, Timestamp):
            return
        entry = self.register_state(message.tag).history.get(timestamp)
        if entry is None:
            self.send(message.sender, message.tag, MSG_BLOCK_MISS, oid,
                      timestamp)
            return
        self._serve_block(message.sender, message.tag, oid, timestamp,
                          *entry)

    def _serve_block(self, reader: PartyId, tag: str, oid: str,
                     timestamp: Timestamp, block: bytes,
                     witness: Any) -> None:
        """Answer an ``md-get-block`` for a retained version (the one
        step a Byzantine data plane replaces)."""
        self.send(reader, tag, MSG_BLOCK, oid, timestamp, block, witness)

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

        The version is retained in the history and adopted if newer
        than the stored one (a replacement server starts amnesiac at
        the initial TIMESTAMP, so adoption is the common case);
        listeners hear metadata only, as with any accepted write.
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
        self._remember(state, timestamp, block, witness)
        if state.timestamp < timestamp:
            state.commitment = commitment
            state.timestamp = timestamp
            state.proof = proof
            for listener_oid, listener in state.listeners.below(timestamp):
                self.send(listener, message.tag, MSG_META, listener_oid,
                          commitment, timestamp, proof)
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
        """Adopt the version if newer, record it in the history, notify
        listeners with metadata only, ack, take effect."""
        _, _, commitment, block, witness = state.pending_store[oid][writer]
        state.pending_store.pop(oid, None)
        state.pending_meta.pop(oid, None)
        self._remember(state, timestamp, block, witness)
        if state.timestamp < timestamp:
            state.commitment = commitment
            state.timestamp = timestamp
            state.proof = proof
        for listener_oid, listener in state.listeners.below(timestamp):
            self.send(listener, register_tag, MSG_META, listener_oid,
                      commitment, timestamp, proof)
        self.send(writer, register_tag, MSG_ACK, oid)
        self.output(register_tag, "write-accepted", oid, timestamp)

    def _remember(self, state: _MdRegisterState, timestamp: Timestamp,
                  block: bytes, witness: Any) -> None:
        """Retain an accepted version; evict the oldest-accepted entry
        beyond the bound, never the currently adopted one."""
        state.history[timestamp] = (block, witness)
        while len(state.history) > self.history_limit:
            for old in state.history:
                if old != state.timestamp and old != timestamp:
                    del state.history[old]
                    break
            else:
                return  # nothing evictable (limit of 1)

    # -- measurements -------------------------------------------------------

    def register_storage_bytes(self, tag: str) -> int:
        """Storage complexity of one register: the adopted version's
        cross-checksum, TIMESTAMP and proof, every retained version's
        ``(TIMESTAMP, block, witness)``, and the listener set — each
        byte at rest counted once."""
        state = self.register_state(tag)
        total = encoded_size((state.commitment, state.timestamp,
                              state.proof))
        for timestamp, entry in state.history.items():
            total += encoded_size((timestamp, *entry))
        total += state.listeners.storage_bytes()
        return total

    def storage_bytes(self) -> int:
        """All register state."""
        return sum(self.register_storage_bytes(tag)
                   for tag in self._registers)


class AtomicMdClient(RegisterClientBase):
    """Client ``C_i`` of Protocol AtomicMd.

    Writes run one timestamp round, ``n`` point-to-point block pushes
    and one commit round; reads run one metadata quorum plus ``k``
    block fetches with escalation.  Requires ``k <= n - 2t`` (see
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
        self.send_to_servers(tag, MSG_GET_TS, oid)
        replies = yield self.condition_quorum(
            tag, MSG_TS, self.config.quorum, oid=oid,
            where=lambda m: (m.sender.is_server
                             and len(m.payload) == 2
                             and isinstance(m.payload[1], int)
                             and m.payload[1] >= 0))
        ts = max(message.payload[1] for message in replies)
        blocks = self.config.coder.encode(handle.value)
        commitment, witnesses = \
            self.config.commitment_scheme.commit(blocks)
        proof = self._proof_of_writing(tag, oid)
        lock = proof_lock(ts, proof)
        # Store phase: each server gets only its own block — O(n) block
        # messages in place of AVID's O(n^2) echo traffic.
        for server in self._require_simulator().server_pids:
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
        value = self.config.coder.decode(pairs[: self.config.k])
        self._finish_read(handle, value, timestamp)

    def _read_condition(self, tag: str, oid: str):
        """Condition: a metadata quorum agrees on one ``(D, TIMESTAMP,
        N)`` *and* ``k`` verified blocks for it have arrived; returns
        ``(TIMESTAMP, D, N, [(index, block), ...])``.

        The closure drives the data plane itself: once a quorum group
        forms it requests blocks from ``k`` of the agreeing servers, and
        each failed verification or ``md-block-miss`` escalates to the
        next agreeing server (requests are memoized per server, so
        re-evaluation is idempotent).  If a group stalls with its whole
        pool exhausted, the group with the next-largest TIMESTAMP that
        reaches quorum takes over — returning any quorum-agreed version
        preserves atomicity exactly as in Protocol Atomic.  While no
        group agrees it writes back commits (see the module docstring).
        """
        scheme = self.config.commitment_scheme
        quorum = self.config.quorum
        k = self.config.k
        meta_memo: Dict[int, bool] = {}
        #: per valid ``md-meta``: the encoding of its (D, TIMESTAMP, N)
        group_memo: Dict[int, bytes] = {}
        block_memo: Dict[Tuple[int, bytes], bool] = {}
        #: per target key: servers already asked for this version's block
        queried: Dict[bytes, Set[PartyId]] = {}
        #: group keys whose commit was already written back
        relayed: Set[bytes] = set()

        def meta_valid(message: Message) -> bool:
            cached = meta_memo.get(message.msg_id)
            if cached is None:
                payload = message.payload
                cached = (message.sender.is_server
                          and len(payload) == 4
                          and isinstance(payload[2], Timestamp)
                          and isinstance(payload[3], bytes))
                meta_memo[message.msg_id] = cached
            return cached

        def block_valid(message: Message, key: bytes, commitment: Any,
                        timestamp: Timestamp) -> bool:
            cached = block_memo.get((message.msg_id, key))
            if cached is None:
                payload = message.payload
                well_formed = (message.sender.is_server
                               and len(payload) == 4
                               and payload[1] == timestamp
                               and isinstance(payload[2], bytes))
                cached = well_formed and scheme.verify(
                    commitment, message.sender.index, payload[2],
                    payload[3])
                if well_formed and not cached:
                    # A shape-correct block failing the cross-checksum
                    # can only come from a Byzantine server; memoized so
                    # the report fires once per (message, target).
                    self.note_verification_failure(tag, MSG_BLOCK,
                                                   message.sender)
                block_memo[(message.msg_id, key)] = cached
            return cached

        def write_back(groups: Dict[bytes, Dict[PartyId, Message]]) -> None:
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
                _, commitment, _, proof = next(iter(group.values())).payload
                for server in self._require_simulator().server_pids:
                    if server not in group:
                        self.send(server, tag, MSG_COMMIT, timestamp.oid,
                                  timestamp.ts - 1, scheme.digest(commitment),
                                  proof)

        def check():
            candidates = self.inbox.messages(tag, MSG_META,
                                             where=meta_valid, oid=oid)
            groups: Dict[bytes, Dict[PartyId, Message]] = {}
            for message in candidates:
                key = group_memo.get(message.msg_id)
                if key is None:
                    key = group_memo[message.msg_id] = encode(
                        message.payload[1:])
                groups.setdefault(key, {}).setdefault(message.sender,
                                                      message)
            agreed = [(key, group) for key, group in groups.items()
                      if len(group) >= quorum]
            if not agreed:
                write_back(groups)
                return None
            # Largest TIMESTAMP first: under churn the freshest agreed
            # version has the best block availability.
            agreed.sort(key=lambda item: next(
                iter(item[1].values())).payload[2], reverse=True)
            # This read's replies only: an earlier read of the register
            # has its own buckets, so its blocks cannot be mistaken for
            # failed answers to this one's requests.
            fetches = self.inbox.messages(tag, MSG_BLOCK, oid=oid)
            misses = self.inbox.messages(tag, MSG_BLOCK_MISS, oid=oid)
            for key, group in agreed:
                first = next(iter(group.values()))
                _, commitment, timestamp, proof = first.payload
                verified: Dict[PartyId, Message] = {}
                for message in fetches:
                    if message.sender not in verified and block_valid(
                            message, key, commitment, timestamp):
                        verified[message.sender] = message
                if len(verified) >= k:
                    pairs = [(message.sender.index, message.payload[2])
                             for message in verified.values()]
                    return (timestamp, commitment, proof, pairs)
                # Escalation: keep exactly enough outstanding requests
                # to cover the shortfall, drawing from agreeing servers
                # (the pool grows as listener forwards arrive).
                asked = queried.setdefault(key, set())
                failed = {message.sender for message in misses
                          if len(message.payload) == 2
                          and message.payload[1] == timestamp}
                failed.update(
                    message.sender for message in fetches
                    if message.sender in asked
                    and message.sender not in verified
                    and not block_valid(message, key, commitment,
                                        timestamp))
                outstanding = len(asked - failed) - len(verified)
                needed = k - len(verified)
                for server in group:
                    if outstanding >= needed:
                        break
                    if server in asked:
                        continue
                    asked.add(server)
                    outstanding += 1
                    self.send(server, tag, MSG_GET_BLOCK, oid, timestamp)
            return None

        return WaitState(check, (tag, MSG_META, oid), (tag, MSG_BLOCK, oid),
                         (tag, MSG_BLOCK_MISS, oid))
