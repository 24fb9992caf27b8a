"""Client sessions: operation queues, coalescing, admission, retry, caching.

A :class:`KvSession` is the application-facing handle of the kv plane.
Operations are *submitted* (queued) instantly and *admitted* (invoked on
the shard's inner protocol client) by :meth:`KvSession.pump`, subject to
a per-shard in-flight bound.  The gap between the two is where the
plane's scaling behaviour lives:

* **Backpressure** — the queue is bounded; a full queue raises
  :class:`repro.common.errors.BackpressureError` instead of growing
  without bound, so load generators feel the service's actual capacity.
* **Coalescing** — while a write to key ``K`` is still queued, further
  writes to ``K`` fold into it (last value wins) without consuming queue
  slots.  Every folded submission gets its own handle and completes with
  the batch; its value simply never hits the wire.  An intervening
  operation on ``K`` ends the window.  This is sound for per-key
  linearizability: a superseded value is a write that linearizes
  immediately before the one that replaced it, and no read can return
  it.
* **Retry** — when the network quiesces with operations still pending
  (chaos drops, crash windows), :meth:`retry_pending` re-invokes each
  stalled operation under a fresh operation id with the same value.
  Handles complete when *any* attempt completes; the per-key history
  still contains exactly one operation per handle.
* **Cached reads and leases** — with ``cache_size > 0`` the session
  keeps a bounded per-key ``(value, TIMESTAMP)`` cache seeded from its
  completed reads, acked writes, and successful revalidations.  A
  ``get`` that hits the cache runs a **metadata-only revalidation
  round** (``invoke_validate`` on protocols with a metadata plane,
  e.g. ``atomic_md``) instead of a two-phase read, falling back to a
  full read on protocols without one or when the quorum reports a
  newer TIMESTAMP.  With ``lease_ticks > 0`` a freshly anchored entry
  is served *locally* within the window — zero wire traffic — and any
  write this session submits to the key invalidates it eagerly.  See
  :mod:`repro.kv.session_cache` for the linearizability argument.
* **Read sharing** — with the cache enabled, a ``get`` of a key whose
  read or write is still *queued* (not yet admitted) joins that
  operation instead of queueing its own: one wire operation settles
  every joined handle (a read joined to a write returns the written
  value).  This is sound because the inner operation is invoked at
  admission, after every joined handle's submission, so each handle's
  interval contains the inner operation's — the same widening argument
  session handles already rely on.  A write to the key in between
  bumps its epoch and ends the read-op sharing window, so joined reads
  never skip a session-observed write.

Session operation ids embed the session index (``c<i>.o<seq>`` plus
``.a<k>`` per retry attempt and ``.full`` for a revalidation-mismatch
fallback read) so server-side per-``oid`` listener state never collides
across sessions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from repro.analysis.linearizability import KIND_READ, KIND_WRITE
from repro.common.errors import BackpressureError
from repro.core.register import KIND_VALIDATE, OperationHandle
from repro.kv.directory import KvDirectory
from repro.kv.mux import KvClientHost
from repro.kv.session_cache import CachedRead, SessionCache

#: Operations a session queues awaiting admission before a submission
#: that needs a slot raises :class:`BackpressureError`.
MAX_QUEUE = 32


@dataclass
class KvOpHandle:
    """Caller-visible handle for one submitted kv operation.

    ``invoke_time``/``complete_time`` bracket the operation's full
    session lifetime: submission to the *winning inner attempt's*
    completion tick, which safely contains the inner protocol
    operation's own interval — the linearizability checker only ever
    *widens* real-time constraints this way, never invents them.  A
    lease-served read instead reports its cache anchor's interval (the
    operation it is an interval clone of; see
    :mod:`repro.kv.session_cache`).  ``attempts`` counts protocol
    invocations made so far — live while the operation is pending, not
    just stamped at completion — and stays ``0`` for lease-served reads,
    which never touch the wire.  ``served`` records how a read was
    satisfied: ``"lease"`` (locally), ``"revalidate"`` (metadata-only
    round confirmed the cache), or ``None`` (full protocol read).
    """

    kind: str
    key: str
    shard: int
    session: int
    value: Optional[bytes] = None
    invoke_time: int = 0
    complete_time: Optional[int] = None
    result: Optional[bytes] = None
    attempts: int = 0
    coalesced: bool = False
    served: Optional[str] = None

    @property
    def done(self) -> bool:
        """True once the operation has completed."""
        return self.complete_time is not None


@dataclass
class _QueuedOp:
    """One queue slot: an operation awaiting admission.

    ``cached`` snapshots the cache entry a read may revalidate against
    (``None`` for writes, uncached reads, and after a fallback);
    ``epoch`` snapshots the key's write epoch at submission so a
    completion observed after a later write to the same key never
    re-seeds the cache with a superseded value.
    """

    kind: str
    key: str
    shard: int
    value: Optional[bytes]
    handles: List[KvOpHandle]
    cached: Optional[CachedRead] = None
    epoch: int = 0


@dataclass
class _InFlight:
    """One admitted operation and its (possibly retried) attempts.

    ``attempts_made`` counts every protocol invocation including
    fallback reads whose superseded validate attempts were dropped from
    ``attempts`` — the retry budget and handle accounting run on it.
    """

    op: _QueuedOp
    oid: str
    tag: str
    attempts: List[OperationHandle] = field(default_factory=list)
    attempts_made: int = 1


class KvSession:
    """A client session multiplexing operations across shards.

    Drive pattern: submit with :meth:`put`/:meth:`get`, then alternate
    :meth:`pump` with simulator steps until :attr:`idle`; call
    :meth:`retry_pending` when the network quiesces with operations
    still outstanding.  :func:`repro.kv.cluster.drive` packages the
    loop.  ``cache_size``/``lease_ticks`` configure session-cached
    reads (both default off, keeping uncached schedules byte-identical).
    """

    def __init__(self, host: KvClientHost, directory: KvDirectory,
                 index: int, max_attempts: int = 4, cache_size: int = 0,
                 lease_ticks: int = 0) -> None:
        self.host = host
        self.directory = directory
        self.index = index
        self.max_attempts = max_attempts
        self.cache = SessionCache(cache_size, lease_ticks)
        #: every handle ever issued, in submission order (history source).
        self.handles: List[KvOpHandle] = []
        self._queue: Deque[_QueuedOp] = deque()
        #: the admitted operation of each shard (at most one).
        self._inflight: Dict[int, _InFlight] = {}
        self._coalescible: Dict[str, _QueuedOp] = {}
        #: still-queued read per key that later gets may join (cache on).
        self._shareable: Dict[str, _QueuedOp] = {}
        self._key_epoch: Dict[str, int] = {}
        self._seq = 0
        #: directory generation awaiting adoption (reconfiguration
        #: drain: no admissions until in-flight ops on the old epoch
        #: complete), and the generation currently admitted under.
        self._pending_directory: Optional[KvDirectory] = None
        self.epoch = directory.epoch
        #: whether a queued submission, an announcement or a retry
        #: since the last pump may have given it work, and the host
        #: activation count that pump saw.
        self._touched = False
        self._pumped_at = host.activations

    # -- submission --------------------------------------------------------

    def put(self, key: str, value: bytes) -> KvOpHandle:
        """Queue a write of ``value`` to ``key``.

        Coalesces into a still-queued write to the same key when one
        exists (never consuming a queue slot); otherwise takes a slot,
        raising :class:`BackpressureError` when the queue is full.
        Eagerly invalidates any cached read of ``key`` — a session
        never lease-serves a value it has since overwritten.
        """
        shard = self.directory.shard_of_key(key)
        handle = KvOpHandle(kind=KIND_WRITE, key=key, shard=shard,
                            session=self.index, value=value,
                            invoke_time=self._now())
        epoch = self._key_epoch.get(key, 0) + 1
        self._key_epoch[key] = epoch
        if self.cache.invalidate(key):
            self._count("invalidate")
        anchor = self._coalescible.get(key)
        if anchor is not None:
            # Mark the superseded write (joined reads may trail it).
            for earlier in reversed(anchor.handles):
                if earlier.kind == KIND_WRITE:
                    earlier.coalesced = True
                    break
            anchor.value = value
            anchor.epoch = epoch
            anchor.handles.append(handle)
            self.handles.append(handle)
            return handle
        self._admission_check()
        op = _QueuedOp(kind=KIND_WRITE, key=key, shard=shard, value=value,
                       handles=[handle], epoch=epoch)
        self._enqueue(op)
        self._coalescible[key] = op
        self.handles.append(handle)
        return handle

    def get(self, key: str) -> KvOpHandle:
        """Queue a read of ``key`` (ends any coalescing window on it).

        A cached key inside an active lease window is served locally —
        the handle completes immediately with the anchor's value and
        interval, consuming no queue slot and no wire traffic.  A key
        whose read is still queued joins that operation (read sharing).
        Otherwise a cached key queues a metadata-only revalidation and
        an uncached key queues a full protocol read.
        """
        shard = self.directory.shard_of_key(key)
        entry = self.cache.lookup(key)
        now = self._now()
        if entry is not None and self.cache.lease_active(entry, now):
            self._coalescible.pop(key, None)
            handle = KvOpHandle(kind=KIND_READ, key=key, shard=shard,
                                session=self.index,
                                invoke_time=entry.anchor_invoke,
                                complete_time=entry.anchor_complete,
                                result=entry.value, served="lease")
            self.cache.stats["lease_hits"] += 1
            self._count("lease")
            self.handles.append(handle)
            return handle
        epoch = self._key_epoch.get(key, 0)
        host_op = self._coalescible.get(key) if self.cache.enabled \
            else None
        if host_op is None or host_op.epoch != epoch:
            host_op = self._shareable.get(key)
        if host_op is not None and host_op.epoch == epoch:
            if self._coalescible.get(key) is not host_op:
                self._coalescible.pop(key, None)
            handle = KvOpHandle(kind=KIND_READ, key=key, shard=shard,
                                session=self.index, invoke_time=now,
                                coalesced=True)
            host_op.handles.append(handle)
            self.cache.stats["shared_reads"] += 1
            self._count("shared")
            self.handles.append(handle)
            return handle
        self._admission_check()
        handle = KvOpHandle(kind=KIND_READ, key=key, shard=shard,
                            session=self.index, invoke_time=now)
        if self.cache.enabled and entry is None:
            self.cache.stats["misses"] += 1
            self._count("miss")
        op = _QueuedOp(kind=KIND_READ, key=key, shard=shard, value=None,
                       handles=[handle], cached=entry, epoch=epoch)
        self._enqueue(op)
        self._coalescible.pop(key, None)
        if self.cache.enabled:
            self._shareable[key] = op
        self.handles.append(handle)
        return handle

    def _admission_check(self) -> None:
        if len(self._queue) >= MAX_QUEUE:
            raise BackpressureError(
                f"session {self.index}: queue full "
                f"({MAX_QUEUE} operations awaiting admission)")

    def _enqueue(self, op: _QueuedOp) -> None:
        """Take a queue slot: the one way a submission gives the next
        pump work (coalesced, joined and lease-served ones do not)."""
        self._queue.append(op)
        self._touched = True

    def _now(self) -> int:
        simulator = self.host.simulator
        if simulator is None:
            simulator = self.host._require_simulator()
        return simulator.time

    def _count(self, label: str) -> None:
        """Report one cache decision to the simulator's observers."""
        simulator = self.host.simulator
        if simulator is None:
            simulator = self.host._require_simulator()
        simulator.count(f"kv.cache[{label}]")

    # -- progress ----------------------------------------------------------

    def pump(self) -> int:
        """Complete finished operations, admit queued ones; flush sends.

        Returns the number of state changes (completions, fallback
        reads, admissions, epoch swaps) — the drive loop's progress
        signal.  Each pump leaves nothing it could still do, so a call
        is a no-op unless something happened since the last one: a
        submission that took a queue slot, a reconfiguration
        announcement, a retry round, or an activation of the host (the
        only place an inner operation completes).
        """
        activations = self.host.activations
        if not self._touched and activations == self._pumped_at:
            return 0
        self._touched = False
        self._pumped_at = activations
        changed = self._reap()
        changed += self._try_epoch_swap()
        changed += self._admit()
        if changed:
            self.host.kv_flush()
        return changed

    # -- reconfiguration ---------------------------------------------------

    def begin_reconfiguration(self, directory: KvDirectory) -> None:
        """Announce a new directory generation to this session.

        Admission stops immediately; operations already in flight drain
        under the old epoch (their quorums formed against the old fleet
        and stay valid — the replaced member simply never answers).
        Once the session is quiescent the swap commits: the directory
        and epoch advance, the read cache flushes, and queued
        operations admit against the new generation.  See
        docs/ROBUSTNESS.md for why this drain keeps reads spanning the
        transition atomic.
        """
        if directory.epoch <= self.epoch:
            return  # stale or duplicate announcement: already there
        self._touched = True
        self._pending_directory = directory
        self._try_epoch_swap()

    def _try_epoch_swap(self) -> int:
        """Commit a pending generation once in-flight ops have drained."""
        if self._pending_directory is None or self._inflight:
            return 0
        directory = self._pending_directory
        self._pending_directory = None
        self.directory = directory
        self.epoch = directory.epoch
        # Everything cached was anchored under the old generation; a
        # queued read's revalidation snapshot would probe the new fleet
        # against an old-era TIMESTAMP, so drop those too.
        self.cache.clear()
        for op in self._queue:
            op.cached = None
        return 1

    def _reap(self) -> int:
        changed = 0
        for shard, entry in list(self._inflight.items()):
            done = [attempt for attempt in entry.attempts if attempt.done]
            if not done:
                continue
            if entry.op.cached is not None:
                winner = done[0]
                if winner.timestamp != entry.op.cached.timestamp:
                    # The quorum maximum names a newer write: the cached
                    # pair is superseded.  Fall back to a full read
                    # under a fresh oid; the entry stays in flight until
                    # that read completes.
                    self._fallback_full_read(entry)
                    changed += 1
                    continue
                value = entry.op.cached.value
                served = "revalidate"
            else:
                winner = self._pick_winner(entry.op.kind, done)
                # Reads joined to a write return the written value.
                value = (winner.result if entry.op.kind == KIND_READ
                         else entry.op.value)
                served = None
            self._complete_entry(entry, winner, value, served)
            changed += 1
            del self._inflight[shard]
        return changed

    @staticmethod
    def _pick_winner(kind: str,
                     done: List[OperationHandle]) -> OperationHandle:
        """The completed attempt that settles the operation.

        For reads, the attempt with the highest TIMESTAMP wins (ties
        keep the earliest attempt) so the session cache is seeded with
        the freshest pair when retries race; attempts without a
        TIMESTAMP never displace one that has it.  Writes take the
        first completion — every acked attempt wrote the same value.
        """
        winner = done[0]
        if kind != KIND_READ:
            return winner
        for attempt in done[1:]:
            if attempt.timestamp is not None and (
                    winner.timestamp is None
                    or winner.timestamp < attempt.timestamp):
                winner = attempt
        return winner

    def _complete_entry(self, entry: _InFlight, winner: OperationHandle,
                        value: Optional[bytes],
                        served: Optional[str]) -> None:
        """Stamp every handle from the winning attempt and seed the
        cache from the completed anchor."""
        op = entry.op
        complete_time = winner.complete_time
        for handle in op.handles:
            handle.complete_time = complete_time
            handle.attempts = entry.attempts_made
            handle.served = served
            if handle.kind == KIND_READ:
                handle.result = value
        if not self.cache.enabled:
            return
        # The last handle carries the value that actually hit the wire
        # (coalescing folds earlier values into it).
        anchor = op.handles[-1]
        if served == "revalidate":
            # Re-anchor the (possibly orphaned) snapshot: if the entry
            # was invalidated or evicted meanwhile, the mutation is
            # invisible to future lookups — exactly right.
            self.cache.renew(op.cached, anchor.invoke_time,
                             complete_time)
            self._count("revalidate-hit")
            return
        if winner.timestamp is None:
            return  # protocol exposes no TIMESTAMP: nothing to seed
        if op.epoch != self._key_epoch.get(op.key, 0):
            return  # a later write to the key was submitted: superseded
        seed_value = op.value if op.kind == KIND_WRITE else value
        self.cache.seed(op.key, seed_value, winner.timestamp,
                        anchor.invoke_time, complete_time)
        self._count("seed")

    def _fallback_full_read(self, entry: _InFlight) -> None:
        """Revalidation mismatch: drop the validate attempts and issue
        a full read under a fresh oid (the stale cache entry must not
        be served and is invalidated)."""
        self.cache.stats["revalidate_fallbacks"] += 1
        self._count("fallback")
        if self.cache.lookup(entry.op.key) is entry.op.cached:
            self.cache.invalidate(entry.op.key)
            self._count("invalidate")
        entry.op.cached = None
        client = self.host.inner_client(entry.op.shard)
        attempt = client.invoke_read(entry.tag, f"{entry.oid}.full")
        entry.attempts = [a for a in entry.attempts
                          if a.kind != KIND_VALIDATE]
        entry.attempts.append(attempt)
        entry.attempts_made += 1
        for handle in entry.op.handles:
            handle.attempts = entry.attempts_made

    def _admit(self) -> int:
        # Generation admission: a new batch is admitted only once the
        # previous one has fully completed.  Ops admitted together move
        # through their protocol rounds in lock-step, so their messages
        # share wire envelopes round after round — in the logical-tick
        # simulator (one delivery = one tick) this batch density, not
        # concurrency itself, is what converts shard count into
        # throughput.  Admitting into a half-done generation would
        # stagger the convoy and dissolve the batches.  A generation
        # admits one operation per shard; the rest wait for the next.
        if self._pending_directory is not None:
            return 0  # reconfiguration drain: nothing admits until the
            # old generation's in-flight operations have completed
        if not self._queue or self._inflight:
            return 0
        admitted = 0
        kept: Deque[_QueuedOp] = deque()
        while self._queue:
            op = self._queue.popleft()
            if op.kind == KIND_READ and self._serve_from_lease(op):
                admitted += 1
            elif op.shard not in self._inflight:
                self._invoke(op)
                admitted += 1
            else:
                kept.append(op)
        self._queue = kept
        return admitted

    def _serve_from_lease(self, op: _QueuedOp) -> bool:
        """Serve a queued read locally when its key regained an active
        lease while the read waited for admission.

        Typical after a write: reads queued behind the in-flight write
        are admitted once it completes and seeds the cache, and inherit
        the ack's anchor interval instead of hitting the wire — the
        same interval-clone argument as the submission-time lease path
        (the handle *reports* the anchor's interval, so when the claim
        is made does not matter).
        """
        if not self.cache.enabled:
            return False
        entry = self.cache.lookup(op.key)
        if entry is None or not self.cache.lease_active(entry,
                                                        self._now()):
            return False
        for handle in op.handles:
            handle.invoke_time = entry.anchor_invoke
            handle.complete_time = entry.anchor_complete
            handle.result = entry.value
            handle.served = "lease"
            self.cache.stats["lease_hits"] += 1
            self._count("lease")
        if self._shareable.get(op.key) is op:
            del self._shareable[op.key]
        return True

    def _invoke(self, op: _QueuedOp) -> None:
        client = self.host.inner_client(op.shard)
        self._seq += 1
        oid = f"c{self.index}.o{self._seq}"
        tag = self.directory.register_tag(op.key)
        if op.kind == KIND_WRITE:
            attempt = client.invoke_write(tag, oid, op.value)
        elif op.cached is not None and hasattr(client, "invoke_validate"):
            self.cache.stats["revalidations"] += 1
            self._count("revalidate")
            attempt = client.invoke_validate(tag, oid)
        else:
            op.cached = None  # no metadata plane: plain full read
            attempt = client.invoke_read(tag, oid)
        entry = _InFlight(op=op, oid=oid, tag=tag, attempts=[attempt])
        for handle in op.handles:
            handle.attempts = entry.attempts_made
        self._inflight[op.shard] = entry
        if self._coalescible.get(op.key) is op:
            del self._coalescible[op.key]  # in flight: window closed
        if self._shareable.get(op.key) is op:
            del self._shareable[op.key]  # admitted: joins would race
            # the inner read's linearization point, so the window ends.

    def retry_pending(self) -> int:
        """Re-invoke every stalled operation with remaining attempts.

        Called when the network has quiesced with operations pending
        (e.g. a chaos plan dropped part of a write round).  Cached
        reads retry their revalidation round; fallback reads retry as
        reads.  Returns the number of re-invocations; zero means the
        retry budget is spent.
        """
        self._touched = True
        retried = 0
        for shard, entry in self._inflight.items():
            if any(attempt.done for attempt in entry.attempts):
                continue
            if entry.attempts_made >= self.max_attempts:
                continue
            client = self.host.inner_client(shard)
            oid = f"{entry.oid}.a{entry.attempts_made}"
            if entry.op.kind == KIND_WRITE:
                attempt = client.invoke_write(entry.tag, oid,
                                              entry.op.value)
            elif entry.op.cached is not None:
                self.cache.stats["revalidations"] += 1
                self._count("revalidate")
                attempt = client.invoke_validate(entry.tag, oid)
            else:
                attempt = client.invoke_read(entry.tag, oid)
            entry.attempts.append(attempt)
            entry.attempts_made += 1
            for handle in entry.op.handles:
                handle.attempts = entry.attempts_made
            retried += 1
        if retried:
            self.host.kv_flush()
        return retried

    # -- introspection -----------------------------------------------------

    @property
    def idle(self) -> bool:
        """True when nothing is queued or in flight."""
        return not self._queue and not self._inflight

    @property
    def inflight(self) -> int:
        """Operations admitted but not yet completed."""
        return len(self._inflight)
