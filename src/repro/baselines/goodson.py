"""Baseline: Goodson et al. erasure-coded storage with read-time repair.

A faithful-in-structure reimplementation of the PASIS-style R/W protocol
("Efficient Byzantine-tolerant erasure-coded storage", reference [15] of
the paper): erasure-coded fragments with a *cross-checksum* (hash vector),
**no server-to-server communication**, versioned servers, and validation
deferred to read time.

* Resilience ``n > 4t`` with fragment threshold ``k = t + 1`` (a version
  decodable from Byzantine servers alone must be impossible, and complete
  writes must stay visible through any two ``n - t`` quorums).
* **Writes are cheap**: one round of ``store`` messages, ``O(n)``
  messages.  Nothing validates what a writer stores.
* **Reads pay for it**: the reader fetches the latest versions, then walks
  candidates from the highest timestamp down; for each candidate it
  fetches that version's fragments, checks them against the
  cross-checksum, decodes, re-encodes, and re-computes the checksum.  A
  candidate that is *incomplete* (too few fragments) or *poisonous*
  (checksum inconsistent — a Byzantine writer stored garbage) is **rolled
  back** and the next candidate is tried, one extra round trip each.  A
  validated candidate seen at fewer than ``n - t`` servers is written back
  (repair) before returning, which preserves atomicity.

This is exactly the behaviour the paper criticizes: "retrieving data can
be very inefficient in the case of several faulty write operations, and
consistency depends on a correct client" — quantified in experiment F6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.common.errors import ConfigurationError
from repro.common.ids import PartyId
from repro.common.serialization import encode, encoded_size
from repro.config import SystemConfig
from repro.core.register import OperationHandle, RegisterClientBase
from repro.core.timestamps import INITIAL_TIMESTAMP, Timestamp
from repro.crypto.hashing import hash_bytes
from repro.erasure.coder import ErasureCoder
from repro.net.message import Message
from repro.net.process import Process

MSG_GET_TS = "get-ts"
MSG_TS = "ts"
MSG_STORE = "store"
MSG_ACK = "ack"
MSG_READ_LATEST = "read-latest"
MSG_LATEST = "latest"
MSG_READ_PREV = "read-prev"
MSG_PREV = "prev"


def goodson_fragment_threshold(config: SystemConfig) -> int:
    """``k = t + 1``: the largest threshold at which complete writes stay
    readable across quorums and Byzantine servers alone cannot forge a
    decodable version."""
    return config.t + 1


def _require_n_gt_4t(config: SystemConfig) -> None:
    if config.n <= 4 * config.t:
        raise ConfigurationError(
            f"Goodson et al. requires n > 4t, got n={config.n} "
            f"t={config.t}")


def _cross_checksum(fragments) -> tuple:
    return tuple(hash_bytes(fragment) for fragment in fragments)


@dataclass
class _VersionedState:
    """Per-register version history at one server (grows with writes —
    the storage cost of deferring validation)."""

    versions: Dict[Timestamp, Tuple[bytes, tuple]] = field(
        default_factory=dict)
    accepted: Set[str] = field(default_factory=set)

    def latest(self) -> Timestamp:
        return max(self.versions)


class GoodsonServer(Process):
    """Versioning fragment server: stores whatever writers send."""

    def __init__(self, pid: PartyId, config: SystemConfig,
                 initial_value: bytes = b""):
        _require_n_gt_4t(config)
        super().__init__(pid)
        self.config = config
        self._coder = ErasureCoder(config.n, goodson_fragment_threshold(config))
        self._initial_value = initial_value
        self._registers: Dict[str, _VersionedState] = {}
        self.on(MSG_GET_TS, self._on_get_ts)
        self.on(MSG_STORE, self._on_store)
        self.on(MSG_READ_LATEST, self._on_read_latest)
        self.on(MSG_READ_PREV, self._on_read_prev)

    def register_state(self, tag: str) -> _VersionedState:
        """The register's version history (created lazily with the
        initial version)."""
        if tag not in self._registers:
            fragments = self._coder.encode(self._initial_value)
            state = _VersionedState()
            state.versions[INITIAL_TIMESTAMP] = (
                fragments[self.pid.index - 1], _cross_checksum(fragments))
            self._registers[tag] = state
        return self._registers[tag]

    # -- handlers -------------------------------------------------------------

    def _on_get_ts(self, message: Message) -> None:
        if len(message.payload) != 1:
            return
        (oid,) = message.payload
        state = self.register_state(message.tag)
        self.send(message.sender, message.tag, MSG_TS, oid,
                  state.latest().ts)

    def _on_store(self, message: Message) -> None:
        if len(message.payload) != 4:
            return
        oid, timestamp, fragment, checksum = message.payload
        if not (isinstance(oid, str) and isinstance(timestamp, Timestamp)
                and isinstance(fragment, bytes)
                and isinstance(checksum, tuple)
                and len(checksum) == self.config.n):
            return
        state = self.register_state(message.tag)
        # First store of a version wins; no validation happens here — that
        # is the design point of the protocol.
        state.versions.setdefault(timestamp, (fragment, checksum))
        self.send(message.sender, message.tag, MSG_ACK, oid)
        if oid not in state.accepted:
            state.accepted.add(oid)
            self.output(message.tag, "write-accepted", oid, timestamp)

    def _on_read_latest(self, message: Message) -> None:
        if len(message.payload) != 2:
            return
        oid, round_no = message.payload
        state = self.register_state(message.tag)
        latest = state.latest()
        fragment, checksum = state.versions[latest]
        self.send(message.sender, message.tag, MSG_LATEST, oid, round_no,
                  latest, fragment, checksum)

    def _on_read_prev(self, message: Message) -> None:
        """Reply with this server's greatest version strictly below the
        requested bound (the rollback step of the read protocol)."""
        if len(message.payload) != 3:
            return
        oid, round_no, bound = message.payload
        if not isinstance(bound, Timestamp):
            return
        state = self.register_state(message.tag)
        older = [timestamp for timestamp in state.versions
                 if timestamp < bound]
        # INITIAL_TIMESTAMP is always stored, so `older` can only be empty
        # for a bound at or below the initial version.
        best = max(older) if older else INITIAL_TIMESTAMP
        fragment, checksum = state.versions[best]
        self.send(message.sender, message.tag, MSG_PREV, oid, round_no,
                  best, fragment, checksum)

    # -- measurements -----------------------------------------------------------

    def register_storage_bytes(self, tag: str) -> int:
        """All retained versions — storage grows with the write history."""
        state = self.register_state(tag)
        return sum(encoded_size((timestamp, fragment, checksum))
                   for timestamp, (fragment, checksum)
                   in state.versions.items())

    def storage_bytes(self) -> int:
        """Total storage across all registers (all retained versions)."""
        return sum(self.register_storage_bytes(tag)
                   for tag in self._registers)

    def version_count(self, tag: str) -> int:
        """Number of versions retained for one register (grows with the
        write history — the storage cost of read-time validation)."""
        return len(self.register_state(tag).versions)


class GoodsonClient(RegisterClientBase):
    """Client performing validation, rollback, and repair at read time."""

    def __init__(self, pid: PartyId, config: SystemConfig):
        _require_n_gt_4t(config)
        super().__init__(pid, config)
        self._coder = ErasureCoder(config.n, goodson_fragment_threshold(config))
        self._round_counter = 0
        #: rollback rounds performed by each read, for experiment F6
        self.rollback_counts: Dict[str, int] = {}

    # -- write ------------------------------------------------------------------

    def _write_thread(self, handle: OperationHandle):
        tag, oid = handle.tag, handle.oid
        self.send_to_servers(tag, MSG_GET_TS, oid)
        replies = yield self.condition_quorum(
            tag, MSG_TS, self.config.quorum, oid=oid,
            where=lambda m: (m.sender.is_server and len(m.payload) == 2
                             and isinstance(m.payload[1], int)
                             and m.payload[1] >= 0))
        ts = max(message.payload[1] for message in replies)
        timestamp = Timestamp(ts + 1, oid)
        yield from self._store_round(tag, oid, timestamp, handle.value)
        self._finish_write(handle)

    def _store_round(self, tag: str, oid: str, timestamp: Timestamp,
                     value: bytes):
        """One unvalidated fragment fan-out plus the ack quorum."""
        fragments = self._coder.encode(value)
        checksum = _cross_checksum(fragments)
        for index, server in enumerate(self.simulator.server_pids, start=1):
            self.send(server, tag, MSG_STORE, oid, timestamp,
                      fragments[index - 1], checksum)
        yield self.condition_quorum(
            tag, MSG_ACK, self.config.quorum, oid=oid,
            where=lambda m: m.sender.is_server and len(m.payload) == 1)

    # -- read ---------------------------------------------------------------------

    def _read_thread(self, handle: OperationHandle):
        tag, oid = handle.tag, handle.oid
        self._round_counter += 1
        round_no = self._round_counter
        self.rollback_counts[oid] = 0
        self.send_to_servers(tag, MSG_READ_LATEST, oid, round_no)
        replies = yield self.condition_quorum(
            tag, MSG_LATEST, self.config.quorum, oid=oid,
            where=lambda m: self._valid_reply(m, round_no))

        rollbacks = 0
        while True:
            candidate = max(message.payload[2] for message in replies)
            matching = [message for message in replies
                        if message.payload[2] == candidate]
            outcome = self._validate(candidate, matching)
            if outcome is not None:
                value, holders = outcome
                if len(holders) < self.config.quorum:
                    # Repair: write the validated version back before
                    # returning, so later reads cannot miss it.
                    repair_oid = f"{oid}.repair"
                    yield from self._store_round(tag, repair_oid,
                                                 candidate, value)
                    self.inbox.retire(tag, repair_oid)
                self._finish_read(handle, value, candidate)
                return
            if candidate <= INITIAL_TIMESTAMP:
                # The initial version failed validation, which requires
                # more than t corrupted servers; stall rather than loop.
                return
            # Incomplete or poisonous: roll back — ask every server for
            # its greatest version below the failed candidate.  One extra
            # round trip per rollback: the read cost the paper highlights.
            rollbacks += 1
            self.rollback_counts[oid] = rollbacks
            self._round_counter += 1
            round_no = self._round_counter
            self.send_to_servers(tag, MSG_READ_PREV, oid, round_no,
                                 candidate)
            replies = yield self.condition_quorum(
                tag, MSG_PREV, self.config.quorum, oid=oid,
                where=lambda m, r=round_no: self._valid_reply(m, r))

    @staticmethod
    def _valid_reply(message: Message, round_no: int) -> bool:
        payload = message.payload
        return (message.sender.is_server and len(payload) == 5
                and payload[1] == round_no
                and isinstance(payload[2], Timestamp))

    def _validate(self, candidate: Timestamp, replies) -> Optional[tuple]:
        """Classify a candidate: returns ``(value, holders)`` if complete
        and consistent, else ``None`` (roll back)."""
        by_checksum: Dict[bytes, Dict[int, bytes]] = {}
        holders_by_checksum: Dict[bytes, Set[PartyId]] = {}
        checksum_by_key: Dict[bytes, tuple] = {}
        for message in replies:
            fragment, checksum = message.payload[3], message.payload[4]
            if not (isinstance(fragment, bytes)
                    and isinstance(checksum, tuple)
                    and len(checksum) == self.config.n):
                continue
            index = message.sender.index
            if checksum[index - 1] != hash_bytes(fragment):
                continue  # fragment does not match its cross-checksum slot
            key = encode(checksum)
            checksum_by_key[key] = checksum
            by_checksum.setdefault(key, {})[index] = fragment
            holders_by_checksum.setdefault(key, set()).add(message.sender)
        threshold = self._coder.k
        for key, fragments in by_checksum.items():
            if len(fragments) < threshold:
                continue  # incomplete
            try:
                value = self._coder.decode(fragments.items())
                re_encoded = self._coder.encode(value)
            except Exception:
                continue
            if _cross_checksum(re_encoded) != checksum_by_key[key]:
                continue  # poisonous write: checksum inconsistent
            return value, holders_by_checksum[key]
        return None
