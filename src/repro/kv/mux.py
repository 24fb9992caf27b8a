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
itself), and drops an entry whose fleet sender is a server outside the
shard's placement before any shard state materialises for it.

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


def _shard_classes(spec: ShardSpec) -> Optional[Tuple[type, type]]:
    """The (server, client) classes a shard's ``protocol`` override
    names, or ``None`` when the shard follows the cluster default.

    Resolved lazily through :func:`repro.cluster.protocol_classes`
    (imported here, not at module scope: the cluster facade is a higher
    layer).
    """
    if spec.protocol is None:
        return None
    from repro.cluster import protocol_classes
    return protocol_classes(spec.protocol)


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
        return self.host._require_simulator().time

    @property
    def server_pids(self) -> Sequence[PartyId]:
        """The shard-local server roster ``P_1 .. P_shard_n`` (shared,
        immutable: inner protocols only iterate it)."""
        return self._server_pids

    def fleet_pid(self, local_pid: PartyId) -> PartyId:
        """Map a shard-local identity to the hosting fleet party."""
        if local_pid.is_server:
            return self._fleet_pids[local_pid]
        return local_pid

    def local_pid(self, fleet_pid: PartyId) -> Optional[PartyId]:
        """Map a fleet party to its shard-local identity, or ``None``
        for a fleet server outside this shard's placement."""
        if fleet_pid.is_server:
            return self._local_pids.get(fleet_pid.index)
        return fleet_pid

    def enqueue(self, sender: PartyId, recipient: PartyId, tag: str,
                mtype: str, payload: Tuple[Any, ...],
                wire_size: Optional[int] = None) -> None:
        """Buffer an inner send on the host for the next envelope flush.

        One ``KvEntry`` per send — a fresh fleet ``msg_id``, the sending
        inner process's causal stamps — sized by arithmetic into its
        destination's buffer slot.  A listening ``on_send`` observer sees
        it at once as a ``Message`` in *fleet* identities (the host, and
        the recipient's host), mirroring ``Simulator.enqueue`` so traces
        of batched and unbatched runs have the same shape and per-server
        health signals are scored against the fleet roster.

        ``wire_size`` is the inner content's size when the sender knows
        it (broadcasts); it sizes the entry for the envelope's byte
        count and is stamped on the message observers see.
        """
        host = self.host
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
        if simulator.observes("on_send"):
            simulator.report_send(
                Message(tag, mtype, host.pid, fleet_recipient, payload,
                        msg_id, depth, cause_id, wire_size))

    def record_output(self, party: PartyId, tag: str, action: str,
                      payload: Tuple[Any, ...]) -> None:
        """Forward an inner output action to the fleet event log."""
        host = self.host
        host._require_simulator().record_output(host.pid, tag, action,
                                                payload)

    def record_input(self, party: PartyId, tag: str, action: str,
                     payload: Tuple[Any, ...]) -> None:
        """Forward an inner input action to the fleet event log."""
        host = self.host
        host._require_simulator().record_input(host.pid, tag, action,
                                               payload)

    def notify_quorum(self, party: PartyId, tag: str, mtype: str,
                      threshold: int, quorum: Sequence[Message],
                      releasing_msg_id: Optional[int]) -> None:
        """Forward a quorum release.  ``party`` deliberately stays
        shard-local: it only labels span annotations (committed outputs
        that must stay byte-identical) and matches clients, whose
        identities are fleet-wide anyway."""
        self.host._require_simulator().notify_quorum(
            party, tag, mtype, threshold, quorum, releasing_msg_id)

    def notify_verify_fail(self, party: PartyId, suspect: PartyId,
                           tag: str, mtype: str) -> None:
        """Forward a failed check as the host seeing it from the fleet
        server hosting ``suspect``: per-server signals are scored
        against the fleet roster."""
        self.host._require_simulator().notify_verify_fail(
            self.host.pid, self.fleet_pid(suspect), tag, mtype)


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
        self.on(MSG_KV_BATCH, self._on_kv_batch)

    # -- outbound: flush ----------------------------------------------------

    def kv_flush(self) -> None:
        """Send every buffered inner message, one envelope per destination.

        Envelope causal stamps come from this host's current activation
        (zero outside one), exactly like any direct ``Process.send``.
        The envelope's wire size is composed from its entries' sizes, so
        the metrics plane never has to walk or serialize the batch.
        """
        if not self._kv_outbound:
            return
        outbound, self._kv_outbound = self._kv_outbound, {}
        for recipient, (entries, size) in outbound.items():
            self.send(recipient, KV_TAG, MSG_KV_BATCH, tuple(entries),
                      wire_size=batch_wire_size(size))

    def receive(self, message: Message) -> None:
        """Deliver, then flush inner sends within the same activation.

        ``Process.receive`` resets the activation stamps in a
        ``finally``; the flush needs them back so envelope depth chains
        stay causal, hence the restore-around-flush.
        """
        super().receive(message)
        if self._kv_outbound:
            self.activation_depth = message.depth
            self.activation_msg_id = message.msg_id
            try:
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
        simulator = self._require_simulator()
        observed = simulator.observes("on_deliver")
        # ``inner`` and the local ``sender`` are resolved once per run of
        # same-shard entries; a drop ends the run.
        shard = None
        for entry in payload[0]:
            if not (isinstance(entry, KvEntry) and entry.well_formed()):
                shard = None
                continue
            if entry.shard != shard:
                shard = None
                resolved = self._kv_inner_for(entry.shard, fleet_sender)
                if resolved is None:
                    continue
                inner, bus = resolved
                sender = bus.local_pid(fleet_sender)
                if sender is None:
                    continue  # a fleet server outside the shard's placement
                shard, recipient = entry.shard, inner.pid
            if observed:
                # the observers' view of the delivery, in fleet identities
                simulator.report_deliver(
                    Message(entry.tag, entry.mtype, fleet_sender, self.pid,
                            entry.payload, entry.msg_id, entry.depth,
                            entry.cause_id),
                    len(inner.inbox))
            inner.receive(Message(entry.tag, entry.mtype, sender, recipient,
                                  entry.payload, entry.msg_id, entry.depth,
                                  entry.cause_id))

    def _kv_inner_for(self, shard_id: int, fleet_sender: PartyId
                      ) -> Optional[Tuple[Process, ShardBus]]:
        """Resolve the inner (process, bus) an entry of ``shard_id`` from
        ``fleet_sender`` addresses, or ``None`` to drop it."""
        raise NotImplementedError


class KvServer(_KvMuxProcess):
    """A fleet server hosting lazily-created per-shard register servers.

    Shard state materialises on first contact: a fleet of 4 servers can
    advertise hundreds of shards while only paying for the ones traffic
    actually reaches.  ``server_cls`` is the default inner class; a
    shard whose spec names a ``protocol`` override materialises that
    protocol's server instead.
    """

    def __init__(self, pid: PartyId, directory: KvDirectory,
                 server_cls: Type[AtomicServer] = AtomicServer,
                 initial_value: bytes = b"") -> None:
        super().__init__(pid, directory)
        self._server_cls = server_cls
        self._initial_value = initial_value
        self._inner_servers: Dict[int, Tuple[Process, ShardBus]] = {}

    def inner_server(self, shard_id: int) -> Optional[Process]:
        """The inner server for ``shard_id`` if it has materialised."""
        resolved = self._inner_servers.get(shard_id)
        return None if resolved is None else resolved[0]

    @property
    def active_shards(self) -> List[int]:
        """Shard ids this host has materialised state for."""
        return list(self._inner_servers)

    def _kv_inner_for(self, shard_id: int, fleet_sender: PartyId
                      ) -> Optional[Tuple[Process, ShardBus]]:
        resolved = self._inner_servers.get(shard_id)
        if resolved is None:
            if not 0 <= shard_id < self.directory.num_shards:
                return None
            spec = self.directory.shard(shard_id)
            local = spec.local_server_index(self.pid.index)
            if local is None:
                return None  # this fleet server does not serve the shard
            bus = ShardBus(self, spec)
            if bus.local_pid(fleet_sender) is None:
                return None  # never a sender in this shard: keep nothing
            classes = _shard_classes(spec)
            server_cls = self._server_cls if classes is None else classes[0]
            inner = server_cls(server_id(local), spec.config,
                               initial_value=self._initial_value)
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
    ``client_cls`` is the default inner class; shards with a
    ``protocol`` override materialise that protocol's client.
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
            classes = _shard_classes(spec)
            client_cls = self._client_cls if classes is None else classes[1]
            inner = client_cls(self.pid, spec.config)
            bus.attach(inner)
            resolved = (inner, bus)
            self._inner_clients[shard_id] = resolved
        return resolved[0]

    def _kv_inner_for(self, shard_id: int, fleet_sender: PartyId
                      ) -> Optional[Tuple[Process, ShardBus]]:
        # Replies can only address shards this client has invoked on.
        return self._inner_clients.get(shard_id)
