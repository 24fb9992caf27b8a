"""Reconfiguration: epoch-stamped directory generations and member swap.

Replacing a fleet member is a *generation change*: the old
:class:`~repro.kv.directory.KvDirectory` is never mutated — a new one
is minted at ``epoch + 1`` with identical shard math (same placements,
same per-shard configs, so every register tag maps exactly as before)
and announced to every session via
:meth:`~repro.kv.session.KvSession.begin_reconfiguration`.  Sessions
drain their in-flight operations on the old epoch before admitting
under the new one, and flush their read caches at the swap.

**Atomicity across the transition.**  The replacement server keeps the
crashed member's *identity* but none of its state (it answers with the
initial TIMESTAMP until repaired).  Three facts keep histories atomic:

1. *Draining ops stay correct*: an operation admitted under the old
   epoch formed (or will form) its quorums against the same ``n``
   identities; the replaced member either never answers (crashed) or
   answers honestly from fresh state, which is indistinguishable from
   an honest server that simply missed earlier writes — the protocols
   already tolerate ``t`` such servers, and reconfiguration replaces
   exactly one at a time.
2. *New-epoch reads cannot miss old-epoch writes*: a write that
   completed before the swap holds a metadata quorum of ``n - t``
   servers of which at most one (the newcomer) is amnesiac; any
   new-epoch read quorum of ``n - t`` intersects it in ``n - 2t >=
   t + 1`` servers, so with crash-only faults at least one
   intersection member is a non-replaced honest server that still
   carries the write's TIMESTAMP.  With Byzantine servers the margin
   thins — that is why session caches flush at the bump (see
   docs/ROBUSTNESS.md).
3. *No operation spans two generations*: admission stops the moment a
   session learns of the pending generation and resumes only after its
   in-flight set is empty, so every operation's quorums form entirely
   within one generation — there is no message that carries an
   old-epoch quorum certificate into a new-epoch decision.
"""

from __future__ import annotations

from typing import Tuple

from repro.common.errors import ConfigurationError
from repro.common.ids import server_id
from repro.kv.cluster import KvCluster
from repro.kv.directory import KvDirectory
from repro.kv.mux import KvServer


def next_generation(directory: KvDirectory) -> KvDirectory:
    """Mint the successor generation of ``directory`` (``epoch + 1``).

    Shard math is reproduced exactly — same fleet config and erasure
    threshold — so every key maps to the same register tag on the same
    placement; only the epoch stamp advances.
    """
    return KvDirectory(directory.fleet_config, directory.num_shards,
                       shard_k=directory.shard_k,
                       epoch=directory.epoch + 1)


def replace_member(cluster: KvCluster, server_index: int
                   ) -> Tuple[KvServer, KvServer]:
    """Swap fleet server ``server_index`` for a fresh (amnesiac) host.

    Mints the next directory generation, builds the replacement under
    the same :class:`~repro.common.ids.PartyId` (identity survives;
    state does not — any inbox the crashed host buffered dies with
    it), swaps it into the simulator and the cluster roster, and
    announces the new generation to every session.  Returns
    ``(old_host, new_host)``.

    The newcomer answers from initial state until the repair plane
    re-disperses its blocks; see
    :class:`repro.repair.coordinator.RepairCoordinator`.
    """
    fleet_n = cluster.directory.fleet_config.n
    if not 1 <= server_index <= fleet_n:
        raise ConfigurationError(
            f"server index {server_index} out of range [1, {fleet_n}]")
    directory = next_generation(cluster.directory)
    pid = server_id(server_index)
    from repro.cluster import PROTOCOLS
    host = KvServer(pid, directory,
                    server_cls=PROTOCOLS[cluster.protocol][0])
    old = cluster.simulator.replace_process(host)
    cluster.servers[server_index - 1] = host
    cluster.directory = directory
    for session in cluster.sessions:
        session.begin_reconfiguration(directory)
    return old, host
