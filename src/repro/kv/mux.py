"""Shard multiplexing: hosts, the per-shard bus, and envelope routing.

One fleet party hosts many *inner* protocol processes — one per shard it
serves.  The inner processes are the unmodified register protocols from
``repro.core``; they believe they talk to a plain simulator.  What they
actually talk to is a :class:`ShardBus`: a duck-typed facade that

* allocates real, globally-unique ``msg_id``s for every inner send (the
  protocols memoize message validity by id),
* reports the fleet simulator's logical clock,
* presents the *shard-local* server roster,
* forwards inner actions and reports to the fleet simulator in *fleet*
  identities, and
* buffers outgoing inner messages on the host instead of enqueuing them.

The host (:class:`KvServer` / :class:`KvClientHost`) flushes its buffer
once per activation as one ``kv-batch`` envelope per fleet destination,
so a single simulator delivery — one logical tick — carries every inner
message the activation produced.  Entries carry no addresses:
unwrapping derives each entry's recipient (the inner process this host
runs for the entry's shard) and its shard-local sender (the envelope's
channel-authenticated fleet sender, mapped through the shard's
placement — a fleet server becomes its local ``P_j``, a client stays
itself).  Every shard spans the whole fleet, so every fleet server is
some ``P_j`` of every shard.

Byzantine *hosts* are out of scope for this layer (chaos plans exercise
crashes, drops, delays, and partitions); a corrupted host could forge
inner ids, which the validity memos in the inner protocols assume away.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Type

from repro.common.ids import PartyId, server_id
from repro.core.atomic import AtomicClient, AtomicServer
from repro.core.register import RegisterClientBase
from repro.kv.directory import KvDirectory, ShardSpec
from repro.kv.envelope import (
    INT_HEADER_SIZE,
    KV_TAG,
    MSG_KV_BATCH,
    NONE_SIZE,
    KvEntry,
    batch_wire_size,
    entry_base_size,
)
from repro.net.message import Message, content_wire_size
from repro.net.process import Process


class ShardBus:
    """Duck-typed simulator facade binding one inner process to a host.

    Implements exactly the surface :class:`repro.net.process.Process`
    and the register protocols consume: ``enqueue``, ``server_pids``,
    ``time``, ``record_input``/``record_output`` and
    ``notify_quorum``/``notify_verify_fail``.
    """

    __slots__ = ("host", "spec", "inner", "_server_pids", "_fleet_pids",
                 "_local_pids", "_entry_base_size")

    def __init__(self, host: "_KvMuxProcess", spec: ShardSpec) -> None:
        self.host = host
        self.spec = spec
        self.inner: Optional[Process] = None
        # These are read on every inner send and delivery, so they are
        # built once: identities are validated, hashed dataclasses.  The
        # reverse table is keyed by fleet index, so mapping a delivery's
        # sender compares ints, never identities.
        self._server_pids = tuple(server_id(local)
                                  for local in range(1, spec.config.n + 1))
        self._fleet_pids = {
            local_pid: server_id(spec.fleet_server_index(local_pid.index))
            for local_pid in self._server_pids}
        self._local_pids = {
            fleet_pid.index: local_pid
            for local_pid, fleet_pid in self._fleet_pids.items()}
        self._entry_base_size = entry_base_size(spec.shard_id)

    def attach(self, inner: Process) -> Process:
        """Bind ``inner`` to this bus and return it."""
        self.inner = inner
        inner.bind(self)
        return inner

    # -- simulator surface consumed by inner protocols ---------------------

    @property
    def time(self) -> int:
        """The fleet simulator's logical clock."""
        simulator = self.host.simulator
        if simulator is None:
            simulator = self.host._require_simulator()
        return simulator.time

    @property
    def server_pids(self) -> Sequence[PartyId]:
        """The shard-local server roster ``P_1 .. P_n`` (shared,
        immutable: inner protocols only iterate it)."""
        return self._server_pids

    def fleet_pid(self, local_pid: PartyId) -> PartyId:
        """Map a shard-local identity to the hosting fleet party."""
        if local_pid.is_server:
            return self._fleet_pids[local_pid]
        return local_pid

    def local_pid(self, fleet_pid: PartyId) -> PartyId:
        """Map a fleet party to its shard-local identity."""
        if fleet_pid.is_server:
            return self._local_pids[fleet_pid.index]
        return fleet_pid

    def enqueue(self, sender: PartyId, recipient: PartyId, tag: str,
                mtype: str, payload: Tuple[Any, ...],
                wire_size: Optional[int] = None) -> None:
        """Buffer an inner send on the host for the next envelope flush.

        One ``KvEntry`` per send — a fresh fleet ``msg_id``, the sending
        inner process's causal stamps — sized by arithmetic into its
        destination's buffer slot.  When an ``on_send`` observer
        listens, the host also notes ``(entry, fleet recipient, content
        size, tick)``; :meth:`_KvMuxProcess.kv_flush` reports the notes
        in one :meth:`~repro.net.simulator.Simulator.report_send_batch`
        from the host, so traces of batched and unbatched runs have the
        same shape in *fleet* identities and per-server health signals
        are scored against the fleet roster.  No ``Message`` is built
        for observers.

        ``wire_size`` is the inner content's size when the sender knows
        it (broadcasts); it sizes the entry for the envelope's byte
        count and is the size observers record.
        """
        host = self.host
        simulator = host.simulator
        if simulator is None:
            simulator = host._require_simulator()
        inner = self.inner
        depth = inner.activation_depth + 1
        cause_id = inner.activation_msg_id
        msg_id = simulator.fresh_msg_id()
        if payload.__class__ is not tuple:
            payload = tuple(payload)
        if wire_size is None:
            wire_size = content_wire_size(tag, mtype, payload)
        # the entry's encoded size, by ``entry_base_size``'s arithmetic
        size = (self._entry_base_size + wire_size
                + (msg_id.bit_length() + 8) // 8
                + (depth.bit_length() + 8) // 8
                + (NONE_SIZE if cause_id is None else
                   INT_HEADER_SIZE + (cause_id.bit_length() + 8) // 8))
        entry = KvEntry(self.spec.shard_id, tag, mtype, payload, msg_id,
                        depth, cause_id)
        fleet_recipient = (self._fleet_pids[recipient]
                           if recipient.is_server else recipient)
        slot = host._kv_outbound.get(fleet_recipient)
        if slot is None:
            slot = host._kv_outbound[fleet_recipient] = [[], 0]
        slot[0].append(entry)
        slot[1] += size
        if host._send_hooks:
            # the tick now: output actions move the clock before the flush
            host._kv_sent.append((entry, fleet_recipient, wire_size,
                                  simulator.time))

    def record_output(self, party: PartyId, tag: str, action: str,
                      payload: Tuple[Any, ...]) -> None:
        """Forward an inner output action to the fleet event log."""
        host = self.host
        simulator = host.simulator
        if simulator is None:
            simulator = host._require_simulator()
        simulator.record_output(host.pid, tag, action, payload)

    def record_input(self, party: PartyId, tag: str, action: str,
                     payload: Tuple[Any, ...]) -> None:
        """Forward an inner input action to the fleet event log."""
        host = self.host
        simulator = host.simulator
        if simulator is None:
            simulator = host._require_simulator()
        simulator.record_input(host.pid, tag, action, payload)

    def notify_quorum(self, party: PartyId, tag: str, mtype: str,
                      threshold: int, quorum: Sequence[Message],
                      releasing_msg_id: Optional[int]) -> None:
        """Forward a quorum release.  ``party`` deliberately stays
        shard-local: it only labels span annotations (committed outputs
        that must stay byte-identical) and matches clients, whose
        identities are fleet-wide anyway."""
        simulator = self.host.simulator
        if simulator is None:
            simulator = self.host._require_simulator()
        simulator.notify_quorum(party, tag, mtype, threshold, quorum,
                                releasing_msg_id)

    def notify_verify_fail(self, party: PartyId, suspect: PartyId,
                           tag: str, mtype: str) -> None:
        """Forward a failed check as the host seeing it from the fleet
        server hosting ``suspect``: per-server signals are scored
        against the fleet roster."""
        host = self.host
        simulator = host.simulator
        if simulator is None:
            simulator = host._require_simulator()
        simulator.notify_verify_fail(host.pid, self.fleet_pid(suspect),
                                     tag, mtype)


_Route = Tuple[Process, PartyId]


class _KvMuxProcess(Process):
    """Base for fleet parties that host per-shard inner processes.

    Subclasses implement :meth:`_kv_inner_for` to resolve (and lazily
    instantiate) the inner process an entry addresses.
    """

    def __init__(self, pid: PartyId, directory: KvDirectory) -> None:
        super().__init__(pid)
        self.directory = directory
        #: destination -> [buffered entries, their encoded sizes summed],
        #: filled by :meth:`ShardBus.enqueue`
        self._kv_outbound: Dict[PartyId, List[Any]] = {}
        #: ``(entry, fleet recipient, content size, tick)`` per buffered
        #: entry, in send order, while an observer listens
        self._kv_sent: List[Tuple[KvEntry, PartyId, int, int]] = []
        #: fleet sender -> shard -> (inner process, shard-local sender):
        #: each resolution an entry was delivered on, made once
        self._kv_routes: Dict[PartyId, Dict[int, _Route]] = {}
        self.on(MSG_KV_BATCH, self._on_kv_batch)

    def bind(self, simulator) -> None:
        """Attach to ``simulator`` and hold its live ``on_send`` and
        ``on_deliver`` hook lists: the mux notes inner traffic only
        when one is non-empty, and tests that per message."""
        super().bind(simulator)
        self._send_hooks = simulator.observer_hooks("on_send")
        self._deliver_hooks = simulator.observer_hooks("on_deliver")

    # -- outbound: flush ----------------------------------------------------

    def kv_flush(self) -> None:
        """Send every buffered inner message, one envelope per destination.

        Envelope causal stamps come from this host's current activation
        (zero outside one), exactly like any direct ``Process.send``.
        The envelope's wire size is composed from its entries' sizes, so
        the metrics plane never has to walk or serialize the batch.
        Observers hear of the entries first, in one report, and then of
        each envelope as the simulator admits it.
        """
        if not self._kv_outbound:
            return
        outbound, self._kv_outbound = self._kv_outbound, {}
        if self._kv_sent:
            sent, self._kv_sent = self._kv_sent, []
            self.simulator.report_send_batch(self.pid, sent)
        for recipient, (entries, size) in outbound.items():
            self.send(recipient, KV_TAG, MSG_KV_BATCH, tuple(entries),
                      wire_size=batch_wire_size(size))

    def receive(self, message: Message) -> None:
        """Deliver an envelope, then flush the inner sends it caused.

        A ``kv-batch`` goes straight to :meth:`_on_kv_batch` under this
        delivery's activation stamps, which the flush needs so envelope
        depth chains stay causal.  A host parks no thread and handles no
        other type, so ``Process.receive`` only buffers anything else.
        """
        if message.mtype != MSG_KV_BATCH:
            super().receive(message)
            return
        self.activation_depth = message.depth
        self.activation_msg_id = message.msg_id
        try:
            self._on_kv_batch(message)
            if self._kv_outbound:
                self.kv_flush()
        finally:
            self.activation_depth = 0
            self.activation_msg_id = None

    # -- inbound: unwrap + dispatch ----------------------------------------

    def _on_kv_batch(self, message: Message) -> None:
        payload = message.payload
        if len(payload) != 1 or not isinstance(payload[0], tuple):
            return
        fleet_sender = message.sender
        # (entry, inbox depth, tick) per inner delivery, for observers
        delivered = [] if self._deliver_hooks else None
        routes = self._kv_routes.get(fleet_sender)
        if routes is None:
            routes = self._kv_routes[fleet_sender] = {}
        # ``inner`` and the local ``sender`` are looked up once per run of
        # same-shard entries; a drop ends the run.  Only a route that
        # resolved is kept, so a dropped entry leaves nothing behind.
        shard = None
        for entry in payload[0]:
            if not (entry.__class__ is KvEntry and entry.well_formed()):
                shard = None
                continue
            if entry.shard != shard:
                shard = None
                route = routes.get(entry.shard)
                if route is None:
                    resolved = self._kv_inner_for(entry.shard)
                    if resolved is None:
                        continue
                    inner, bus = resolved
                    route = routes[entry.shard] = (
                        inner, bus.local_pid(fleet_sender))
                inner, sender = route
                shard, recipient = entry.shard, inner.pid
            if delivered is not None:
                # the tick now: an inner output moves the clock
                delivered.append((entry, inner.inbox.depth,
                                  self.simulator.time))
            inner.receive(Message(entry.tag, entry.mtype, sender, recipient,
                                  entry.payload, entry.msg_id, entry.depth,
                                  entry.cause_id))
        if delivered:
            self.simulator.report_deliver_batch(fleet_sender, self.pid,
                                                delivered)

    def _kv_inner_for(self, shard_id: int
                      ) -> Optional[Tuple[Process, ShardBus]]:
        """Resolve the inner (process, bus) an entry of ``shard_id``
        addresses, or ``None`` to drop it."""
        raise NotImplementedError


class KvServer(_KvMuxProcess):
    """A fleet server hosting lazily-created per-shard register servers.

    Shard state materialises on first contact: a fleet of 4 servers can
    advertise hundreds of shards while only paying for the ones traffic
    actually reaches.  ``server_cls`` is the inner class of every
    shard.  Every register starts from the empty value, so a
    replacement host starts where the original did.
    """

    def __init__(self, pid: PartyId, directory: KvDirectory,
                 server_cls: Type[AtomicServer] = AtomicServer) -> None:
        super().__init__(pid, directory)
        self._server_cls = server_cls
        self._inner_servers: Dict[int, Tuple[Process, ShardBus]] = {}

    def inner_server(self, shard_id: int) -> Optional[Process]:
        """The inner server for ``shard_id`` if it has materialised."""
        resolved = self._inner_servers.get(shard_id)
        return None if resolved is None else resolved[0]

    def _kv_inner_for(self, shard_id: int
                      ) -> Optional[Tuple[Process, ShardBus]]:
        resolved = self._inner_servers.get(shard_id)
        if resolved is None:
            if not 0 <= shard_id < self.directory.num_shards:
                return None
            spec = self.directory.shard(shard_id)
            bus = ShardBus(self, spec)
            inner = self._server_cls(
                server_id(spec.local_server_index(self.pid.index)),
                spec.config)
            bus.attach(inner)
            resolved = (inner, bus)
            self._inner_servers[shard_id] = resolved
        return resolved

    def storage_bytes(self) -> int:
        """Total stored bytes across all materialised shards."""
        total = 0
        for inner, _bus in self._inner_servers.values():
            total += inner.storage_bytes()
        return total


class KvClientHost(_KvMuxProcess):
    """A fleet client hosting one inner protocol client per shard.

    Inner clients keep the fleet client's identity (client ids are
    shard-global), so acks and read values route straight back.
    ``client_cls`` is the inner class of every shard.
    """

    def __init__(self, pid: PartyId, directory: KvDirectory,
                 client_cls: Type[AtomicClient] = AtomicClient) -> None:
        super().__init__(pid, directory)
        self._client_cls = client_cls
        self._inner_clients: Dict[int, Tuple[RegisterClientBase,
                                             ShardBus]] = {}
        #: deliveries processed so far: an inner operation can complete
        #: only inside one, so a session that has seen this count has
        #: nothing new to reap.
        self.activations = 0

    def receive(self, message: Message) -> None:
        self.activations += 1
        super().receive(message)

    def inner_client(self, shard_id: int) -> RegisterClientBase:
        """The (lazily created) inner client for ``shard_id``."""
        resolved = self._inner_clients.get(shard_id)
        if resolved is None:
            spec = self.directory.shard(shard_id)
            bus = ShardBus(self, spec)
            inner = self._client_cls(self.pid, spec.config)
            bus.attach(inner)
            resolved = (inner, bus)
            self._inner_clients[shard_id] = resolved
        return resolved[0]

    def _kv_inner_for(self, shard_id: int
                      ) -> Optional[Tuple[Process, ShardBus]]:
        # Replies can only address shards this client has invoked on.
        return self._inner_clients.get(shard_id)
