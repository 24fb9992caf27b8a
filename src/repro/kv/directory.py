"""Key-space directory: deterministic key → shard → placement mapping.

The directory is the metadata plane of the key-value layer (following
the metadata/bulk separation of MDStore): it is pure data, identical at
every party, and never exchanged over the wire.  A key hashes to one of
``num_shards`` register shards; each shard is an independent protocol
instance with the fleet's ``SystemConfig(n, t)`` placed on a rotation
of the fleet's servers, so hundreds of registers can share one simulated
fleet while every shard keeps the paper's ``n > 3t`` resilience bound.

Within a shard, parties use *shard-local* identities: servers are
``P_1 .. P_n`` in placement order, clients keep their fleet
identity.  :class:`ShardSpec` holds the bidirectional index mapping.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.common.ids import TAG_SEP
from repro.common.lru import LruCache
from repro.config import SystemConfig

#: Prefix of every per-key register tag (``kv.s<shard>.<key>``).
KV_TAG_PREFIX = "kv"
#: Keys whose shard a directory remembers (least recently used first out).
_KEY_MEMO_CAPACITY = 4096


def validate_key(key: str) -> str:
    """Check that ``key`` is usable as a register-tag component.

    Keys must be non-empty strings and may not contain the hierarchical
    tag separator (``|``), which would corrupt subtag parsing in the
    protocol substrates.
    """
    if not isinstance(key, str) or not key:
        raise ConfigurationError("kv keys must be non-empty strings")
    if TAG_SEP in key:
        raise ConfigurationError(
            f"kv key {key!r} contains the reserved tag separator {TAG_SEP!r}")
    return key


@dataclass(frozen=True, eq=False)
class ShardSpec:
    """One register shard: its id, server placement, and protocol config.

    ``placement[j - 1]`` is the fleet index of the shard-local server
    ``P_j``; ``config`` is the shard's own ``SystemConfig`` (validated
    ``n > 3t`` on construction).
    """

    shard_id: int
    placement: Tuple[int, ...]
    config: SystemConfig
    _local_by_fleet: Dict[int, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        for local_index, fleet_index in enumerate(self.placement, start=1):
            self._local_by_fleet[fleet_index] = local_index

    def fleet_server_index(self, local_index: int) -> int:
        """Map a shard-local server index (1-based) to its fleet index."""
        return self.placement[local_index - 1]

    def local_server_index(self, fleet_index: int) -> int:
        """Map a fleet server index to this shard's local index."""
        return self._local_by_fleet[fleet_index]


class KvDirectory:
    """Deterministic key → shard map over one server fleet.

    Hash partitioning uses SHA-256 (never the interpreter's ``hash``,
    which is salted per process and would break replay).  Every shard
    spans the whole fleet with the fleet's ``(n, t)``; shard ``s`` is
    placed on the fleet rotated by ``s``, which decides the fleet
    server that plays each shard-local ``P_j``.

    ``shard_k`` pins every shard's erasure threshold (metadata/data-
    separated shards need ``k <= n - 2t``, canonically ``t + 1``, which
    every protocol accepts); unset, shards take the fleet's ``k``.

    ``epoch`` stamps the directory *generation*.  Reconfiguration (see
    :mod:`repro.repair.reconfig`) never mutates a directory in place:
    replacing a fleet member mints a new directory at ``epoch + 1`` and
    sessions drain their in-flight operations on the old generation
    before admitting under the new one.  Epoch ``0`` is the birth
    generation.
    """

    def __init__(self, fleet_config: SystemConfig, num_shards: int,
                 shard_k: Optional[int] = None, epoch: int = 0) -> None:
        if num_shards < 1:
            raise ConfigurationError("num_shards must be >= 1")
        if epoch < 0:
            raise ConfigurationError(
                f"directory epoch must be >= 0, got {epoch}")
        self.epoch = epoch
        self.fleet_config = fleet_config
        self.num_shards = num_shards
        fleet_n = fleet_config.n
        self.shard_k = fleet_config.k if shard_k is None else shard_k
        shards = []
        for shard_id in range(num_shards):
            placement = tuple(((shard_id + offset) % fleet_n) + 1
                              for offset in range(fleet_n))
            config = SystemConfig(
                n=fleet_n, t=fleet_config.t, k=self.shard_k,
                commitment=fleet_config.commitment,
                threshold_backend=fleet_config.threshold_backend,
                seed=fleet_config.seed + shard_id)
            shards.append(ShardSpec(shard_id, placement, config))
        self._shards: Tuple[ShardSpec, ...] = tuple(shards)
        self._shard_of_key = LruCache(_KEY_MEMO_CAPACITY)

    def shard(self, shard_id: int) -> ShardSpec:
        """Return the :class:`ShardSpec` for ``shard_id``."""
        if not 0 <= shard_id < self.num_shards:
            raise ConfigurationError(
                f"shard_id {shard_id} out of range [0, {self.num_shards})")
        return self._shards[shard_id]

    def shard_of_key(self, key: str) -> int:
        """Deterministically map ``key`` to a shard id via SHA-256.

        Memoized per key: a key is validated and hashed when first seen
        (an invalid one raises every time and is never remembered)."""
        # only a plain str is looked up: an unhashable key must reach
        # ``validate_key``'s error, not the memo's ``TypeError``
        shard_id = self._shard_of_key.get(key) if type(key) is str \
            else None
        if shard_id is None:
            validate_key(key)
            digest = hashlib.sha256(key.encode("utf-8")).digest()
            shard_id = int.from_bytes(digest[:8], "big") % self.num_shards
            self._shard_of_key.put(key, shard_id)
        return shard_id

    def register_tag(self, key: str) -> str:
        """The register tag serving ``key`` (``kv.s<shard>.<key>``)."""
        shard_id = self.shard_of_key(key)
        return f"{KV_TAG_PREFIX}.s{shard_id}.{key}"

    @property
    def shards(self) -> Tuple[ShardSpec, ...]:
        """All shard specs, indexed by shard id."""
        return self._shards
