"""Protocol AtomicMd — metadata/data separation with k-server reads.

A fast-path variant of Protocol Atomic in the spirit of MDStore
(*Erasure-Coded Byzantine Storage with Separate Metadata*) and
PoWerStore's metadata-only rounds: the **metadata plane** (timestamps
and cross-checksums) runs at full ``n - t`` quorums, while the **data
plane** (erasure-coded blocks) is pushed point-to-point on writes and
fetched from only ``k`` servers on reads, with verified-against-metadata
escalation to further servers when a block fails verification or a
queried server reports a miss.  "Metadata" does not mean small: the
cross-checksum ``D`` is ``n`` hashes, so at 64-byte values and n = 7 an
``md-meta`` is 362 bytes on the wire against a 115-byte ``md-block``.
The protocol therefore states ``D`` as few times as it can — once per
server on the write path (beside the block, in ``md-store``), once per
``md-meta`` on the read path, once per register at rest — and lets the
``O(n^2)`` broadcast traffic name it by its hash.

Write (client ``C_i``, value ``F``, operation identifier ``oid``):
  1. query all servers for their timestamps (``md-get-ts``), take the
     maximum ``ts`` among ``n - t`` replies (metadata plane);
  2. encode ``F`` into blocks, commit to the cross-checksum ``D``, and
     send each server *only its own* block ``[D, F_j, w_j]``
     (``md-store`` — data plane, ``O(n)`` block messages instead of
     AVID's ``O(n^2)`` echo traffic);
  3. r-broadcast the pair ``(ts, H(D))`` (tag ``ID|rbc.oid`` — metadata
     plane; ``H(D)`` is the commitment scheme's ``digest``), binding
     every honest server to one timestamp *and* one cross-checksum for
     this write in ``n + 2n^2`` constant-size messages;
  4. wait for ``n - t`` ``md-ack`` messages.

Server ``P_j`` joins the r-delivered ``(ts, h)`` with the ``md-store``
of the same writer whose block *verified against* a ``D`` with
``H(D) = h`` (the digest is computed once, when the block verifies),
then adopts ``[D, F_j, ts + 1, oid]`` if it exceeds the stored
TIMESTAMP, forwards **metadata only** (``md-meta``) to registered
listeners, acks, and outputs ``write-accepted``.  A writer whose halves
disagree never takes effect.  The binding argument is Protocol Atomic's
with one more hop: by Bracha agreement all honest servers r-deliver the
same ``(ts, h)``, each accepts only a block that verified against a
``D`` hashing to ``h``, and by collision resistance that is one ``D`` —
the binding that broadcasting the vector itself would give.

Accepted versions are retained in a bounded per-register history —
TIMESTAMP → block and witness — so readers can fetch blocks for a
timestamp that was current when the metadata quorum formed.  ``D`` is
kept once per register, for the adopted version: that is the only one
``md-meta`` replies ever state, and a reader verifies any block it
fetches against the ``D`` its metadata quorum agreed on, never against
the serving server's copy.

Read (client ``C_i``, operation identifier ``oid``):
  1. send ``md-read`` to all servers; collect ``md-meta`` replies until
     ``n - t`` distinct servers agree on one ``(D, TIMESTAMP)`` pair
     (metadata plane — no blocks on the wire);
  2. request blocks (``md-get-block``) from ``k`` of the agreeing
     servers (data plane); verify each ``md-block`` against ``D``;
  3. **escalate**: a block that fails verification, or an ``md-block-miss``
     (the server evicted that version), triggers a request to the next
     agreeing server — including servers that joined the agreeing group
     after the quorum formed;
  4. on ``k`` verified blocks: decode, send ``md-read-complete``,
     return.

Fault model: Byzantine servers, **crash-only clients** — the model of
MDStore and PoWerStore.  Dropping AVID means a Byzantine *writer* could
disperse inconsistently-encoded blocks (the Section 5 "poisonous write"
vector); AtomicMd trades that protection for an ``O(n)`` data plane and
is therefore registered alongside, not in place of, Protocol Atomic.

Resilience: ``n > 3t`` as everywhere, plus ``k <= n - 2t`` so that any
agreeing metadata quorum contains at least ``k`` honest servers to serve
blocks — the canonical choice is ``k = t + 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.broadcast.reliable import ReliableBroadcastServer, r_broadcast
from repro.common.errors import ConfigurationError
from repro.common.ids import PartyId
from repro.common.serialization import encode, encoded_size
from repro.config import SystemConfig
from repro.core.atomic import parse_subtag, rbc_tag
from repro.core.listeners import ListenerSet
from repro.core.register import (
    KIND_VALIDATE,
    OperationHandle,
    RegisterClientBase,
)
from repro.core.timestamps import INITIAL_TIMESTAMP, Timestamp
from repro.crypto.hashing import DIGEST_SIZE
from repro.net.message import Message
from repro.net.process import Process, WaitState

MSG_GET_TS = "md-get-ts"
MSG_TS = "md-ts"
MSG_STORE = "md-store"
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
MESSAGE_TYPES = (MSG_GET_TS, MSG_TS, MSG_STORE, MSG_ACK, MSG_READ,
                 MSG_META, MSG_GET_BLOCK, MSG_BLOCK, MSG_BLOCK_MISS,
                 MSG_READ_COMPLETE, MSG_VALIDATE, MSG_VALID,
                 MSG_REPAIR, MSG_REPAIR_ACK)

#: message types that carry erasure-coded blocks (the data plane); the
#: remaining AtomicMd traffic is timestamps and cross-checksums only.
#: ``md-repair`` re-disperses a reconstructed block to one server, so
#: it rides the data plane like the write path's ``md-store``.
DATA_PLANE_TYPES = (MSG_STORE, MSG_BLOCK, MSG_REPAIR)

#: accepted versions retained per register for late block fetches.
DEFAULT_HISTORY_LIMIT = 16


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


@dataclass
class _MdRegisterState:
    """Global variables of one AtomicMd register at one server.

    The adopted version is ``commitment``, ``timestamp`` and
    ``history[timestamp]``; its block and witness live nowhere else.
    """

    #: cross-checksum of the adopted version — the only ``D`` at rest
    commitment: Any
    timestamp: Timestamp
    listeners: ListenerSet = field(default_factory=ListenerSet)
    #: ``(block, witness)`` of accepted versions by TIMESTAMP (insertion
    #: == acceptance order), bounded by the server's ``history_limit``;
    #: always contains the currently adopted version.
    history: Dict[Timestamp, Tuple[bytes, Any]] = \
        field(default_factory=dict)
    # Join state for in-flight writes, per origin (see Protocol Atomic:
    # a write fires only when one party owns both halves).
    pending_meta: Dict[str, Dict[PartyId, Any]] = field(default_factory=dict)
    #: verified ``md-store`` halves: ``(H(D), D, block, witness)``
    pending_store: Dict[str, Dict[PartyId, Tuple[bytes, Any, bytes, Any]]] \
        = field(default_factory=dict)
    accepted: Set[str] = field(default_factory=set)


class AtomicMdServer(Process):
    """Server ``P_j`` of Protocol AtomicMd.

    Like :class:`~repro.core.atomic.AtomicServer`, one server process
    simulates any number of registers keyed by tag.  The differences are
    the data plane (blocks arrive point-to-point via ``md-store`` and
    are served on demand via ``md-get-block``) and listener forwarding,
    which carries metadata only.
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
        self.rbc = ReliableBroadcastServer(self, config, self._on_r_deliver)
        self.on(MSG_GET_TS, self._on_get_ts)
        self.on(MSG_STORE, self._on_store)
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
                  state.commitment, state.timestamp)

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
        the carried cross-checksum before touching join state."""
        if len(message.payload) != 4 or message.sender.is_server:
            return  # only clients write; servers never push blocks
        oid, commitment, block, witness = message.payload
        if not isinstance(oid, str) or not isinstance(block, bytes):
            return
        if not self.config.commitment_scheme.verify(
                commitment, self.pid.index, block, witness):
            self.note_verification_failure(message.tag, MSG_STORE,
                                           message.sender)
            return
        state = self.register_state(message.tag)
        senders = state.pending_store.setdefault(oid, {})
        if message.sender not in senders:
            senders[message.sender] = (
                self.config.commitment_scheme.digest(commitment),
                commitment, block, witness)
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
        the version's *original* TIMESTAMP — so repair never advances
        logical time, it only restores redundancy.  The block must
        verify against the carried cross-checksum before anything is
        touched, exactly like ``md-store``; like the write path, the
        sender is trusted to *name* the version honestly because
        clients are crash-only in this model (a Byzantine repairer
        could install a forged commitment — see docs/ROBUSTNESS.md for
        why repair authority stays with the trusted operator plane).

        The version is retained in the history and adopted if newer
        than the stored one (a replacement server starts amnesiac at
        the initial TIMESTAMP, so adoption is the common case);
        listeners hear metadata only, as with any accepted write.
        """
        if len(message.payload) != 5 or message.sender.is_server:
            return  # repair is client-plane traffic, like md-store
        oid, timestamp, commitment, block, witness = message.payload
        if not isinstance(oid, str) or not isinstance(block, bytes) \
                or not isinstance(timestamp, Timestamp):
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
            for listener_oid, listener in state.listeners.below(timestamp):
                self.send(listener, message.tag, MSG_META, listener_oid,
                          commitment, timestamp)
        self.send(message.sender, message.tag, MSG_REPAIR_ACK, oid,
                  timestamp)
        self.output(message.tag, "repair-accepted", oid, timestamp)

    # -- write path: join the verified block with the broadcast metadata ---

    def _on_r_deliver(self, tag: str, origin: PartyId, value: Any) -> None:
        parsed = parse_subtag(tag)
        if parsed is None or parsed[1] != "rbc":
            return
        register_tag, _, oid = parsed
        state = self.register_state(register_tag)
        state.pending_meta.setdefault(oid, {})[origin] = value
        self._try_join(register_tag, oid)

    def _try_join(self, register_tag: str, oid: str) -> None:
        """Fire the write once some party owns both halves *and* the
        broadcast digest names the cross-checksum its block verified
        against (a writer whose halves disagree never takes effect)."""
        state = self.register_state(register_tag)
        if oid in state.accepted:
            return
        for writer, meta in state.pending_meta.get(oid, {}).items():
            stored = state.pending_store.get(oid, {}).get(writer)
            if stored is None:
                continue
            if not isinstance(meta, tuple) or len(meta) != 2:
                continue  # Byzantine writer broadcast garbage
            ts, digest = meta
            if not isinstance(ts, int) or ts < 0:
                continue
            if not isinstance(digest, bytes) or len(digest) != DIGEST_SIZE:
                continue
            if digest != stored[0]:
                continue  # halves disagree: never accept
            state.accepted.add(oid)
            self._accept_write(register_tag, oid, writer,
                               Timestamp(ts + 1, oid), state)
            return

    def _accept_write(self, register_tag: str, oid: str, writer: PartyId,
                      timestamp: Timestamp, state: _MdRegisterState) -> None:
        """Adopt the version if newer, record it in the history, notify
        listeners with metadata only, ack, take effect."""
        _, commitment, block, witness = state.pending_store[oid][writer]
        state.pending_store.pop(oid, None)
        state.pending_meta.pop(oid, None)
        self._remember(state, timestamp, block, witness)
        if state.timestamp < timestamp:
            state.commitment = commitment
            state.timestamp = timestamp
        for listener_oid, listener in state.listeners.below(timestamp):
            self.send(listener, register_tag, MSG_META, listener_oid,
                      commitment, timestamp)
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
        cross-checksum and TIMESTAMP, every retained version's
        ``(TIMESTAMP, block, witness)``, and the listener set — each
        byte at rest counted once."""
        state = self.register_state(tag)
        total = encoded_size((state.commitment, state.timestamp))
        for timestamp, entry in state.history.items():
            total += encoded_size((timestamp, *entry))
        total += state.listeners.storage_bytes()
        return total

    def storage_bytes(self) -> int:
        """All register state plus transient substrate buffers."""
        total = sum(self.register_storage_bytes(tag)
                    for tag in self._registers)
        total += self.rbc.storage_bytes()
        return total


class AtomicMdClient(RegisterClientBase):
    """Client ``C_i`` of Protocol AtomicMd.

    Writes run one metadata round plus ``n`` point-to-point block
    pushes; reads run one metadata quorum plus ``k`` block fetches with
    escalation.  Requires ``k <= n - 2t`` (see
    :func:`validate_md_config`).
    """

    def __init__(self, pid: PartyId, config: SystemConfig):
        super().__init__(pid, validate_md_config(config))

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
        # Data plane: each server gets only its own block — O(n) block
        # messages in place of AVID's O(n^2) echo traffic.
        for server in self._require_simulator().server_pids:
            index = server.index
            self.send(server, tag, MSG_STORE, oid, commitment,
                      blocks[index - 1], witnesses[index - 1])
        # Metadata plane: bind every honest server to one (ts, H(D))
        # pair — they hold D itself from the md-store above.
        r_broadcast(self, rbc_tag(tag, oid),
                    (ts, self.config.commitment_scheme.digest(commitment)))
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
        the metadata quorum of every completed write in at least
        ``n - 2t >= t + 1`` servers — one honest — so the maximum is at
        least the TIMESTAMP of every write that completed before the
        round began.  A cached pair whose TIMESTAMP equals that maximum
        is therefore still current, and serving it linearizes the read
        inside the revalidation round.  No blocks move; this is not a
        register operation of Definition 1 and never enters histories.
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
        timestamp, _, pairs = yield self._read_condition(tag, oid)
        self.send_to_servers(tag, MSG_READ_COMPLETE, oid)
        value = self.config.coder.decode(pairs[: self.config.k])
        self._finish_read(handle, value, timestamp)

    def _read_condition(self, tag: str, oid: str):
        """Condition: a metadata quorum agrees on one ``(D, TIMESTAMP)``
        pair *and* ``k`` verified blocks for it have arrived.

        The closure drives the data plane itself: once a quorum group
        forms it requests blocks from ``k`` of the agreeing servers, and
        each failed verification or ``md-block-miss`` escalates to the
        next agreeing server (requests are memoized per server, so
        re-evaluation is idempotent).  If a group stalls with its whole
        pool exhausted, the group with the next-largest TIMESTAMP that
        reaches quorum takes over — returning any quorum-agreed pair
        preserves atomicity exactly as in Protocol Atomic.
        """
        scheme = self.config.commitment_scheme
        quorum = self.config.quorum
        k = self.config.k
        meta_memo: Dict[int, bool] = {}
        #: per valid ``md-meta``: the encoding of its (D, TIMESTAMP) pair
        group_memo: Dict[int, bytes] = {}
        block_memo: Dict[Tuple[int, bytes], bool] = {}
        #: per target key: servers already asked for this version's block
        queried: Dict[bytes, Set[PartyId]] = {}

        def meta_valid(message: Message) -> bool:
            cached = meta_memo.get(message.msg_id)
            if cached is None:
                payload = message.payload
                cached = (message.sender.is_server
                          and len(payload) == 3
                          and isinstance(payload[2], Timestamp))
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

        def check():
            candidates = self.inbox.messages(tag, MSG_META,
                                             where=meta_valid, oid=oid)
            groups: Dict[bytes, Dict[PartyId, Message]] = {}
            for message in candidates:
                key = group_memo.get(message.msg_id)
                if key is None:
                    key = group_memo[message.msg_id] = encode(
                        (message.payload[1], message.payload[2]))
                groups.setdefault(key, {}).setdefault(message.sender,
                                                      message)
            agreed = [(key, group) for key, group in groups.items()
                      if len(group) >= quorum]
            if not agreed:
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
                commitment = first.payload[1]
                timestamp = first.payload[2]
                verified: Dict[PartyId, Message] = {}
                for message in fetches:
                    if message.sender not in verified and block_valid(
                            message, key, commitment, timestamp):
                        verified[message.sender] = message
                if len(verified) >= k:
                    pairs = [(message.sender.index, message.payload[2])
                             for message in verified.values()]
                    return (timestamp, commitment, pairs)
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
