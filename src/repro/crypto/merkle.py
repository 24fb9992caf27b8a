"""Merkle hash trees with inclusion proofs.

The Disperse protocol's communication complexity has an ``O(n^3 |H|)`` term
when every message carries the full hash vector ``D``.  The paper notes this
"can be reduced to ``n^2 log n |H|`` by using hash trees instead of hash
vectors"; this module provides those hash trees.  A sender commits to the
blocks with a single root; each block travels with a ``log n``-size
inclusion proof instead of the whole vector.

Construction notes:

* Leaf and internal nodes use distinct domain-separation prefixes, so a
  proof for an internal node can never be passed off as a leaf (classical
  second-preimage attack on naive Merkle trees).
* Odd nodes at any level are promoted unchanged to the next level (no
  duplication), which avoids the CVE-2012-2459-style duplicate-leaf
  ambiguity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.common.errors import ReproError
from repro.common.lru import LruCache
from repro.common.serialization import register_wire_type
from repro.crypto.hashing import hash_bytes

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"

#: Built tree levels memoized by leaf-tuple content: every server of a
#: dispersal builds the tree over the same block vector, and each
#: ``proof`` call in the seed rebuilt it from scratch.  Levels are
#: immutable once built (the tree only reads them), so cached instances
#: share them.  Deterministic insertion-ordered LRU, process-wide;
#: unhashable leaves (e.g. ``bytearray``) bypass the cache.  An entry
#: keeps all ``n`` leaves, so it holds the dispersals in flight: 8 trees
#: build within 4 % of the trees an unbounded cache builds on Merkle
#: kv runs and register runs (docs/PERFORMANCE.md §2.13).
_LEVELS_CACHE = LruCache(capacity=8)


def _leaf_hash(data: bytes) -> bytes:
    return hash_bytes(_LEAF_PREFIX + data)


def _node_hash(left: bytes, right: bytes) -> bytes:
    return hash_bytes(_NODE_PREFIX + left + right)


@register_wire_type
@dataclass(frozen=True)
class MerkleProof:
    """Inclusion proof for one leaf of a Merkle tree.

    ``path`` lists sibling hashes from the leaf level up; ``directions[i]``
    is ``True`` when the proven node is the *right* child at level ``i``
    (i.e. the sibling is on the left).  Levels where the node was promoted
    without a sibling contribute no path entry.
    """

    index: int
    leaf_count: int
    path: tuple
    directions: tuple

    def __post_init__(self) -> None:
        if len(self.path) != len(self.directions):
            raise ReproError("malformed Merkle proof")


class MerkleTree:
    """A Merkle tree over a fixed sequence of byte-string leaves."""

    def __init__(self, leaves: Sequence[bytes]):
        if not leaves:
            raise ReproError("Merkle tree requires at least one leaf")
        self._leaf_count = len(leaves)
        key = tuple(leaves)
        try:
            cached = _LEVELS_CACHE.get(key)
        except TypeError:  # unhashable leaves: build without caching
            key, cached = None, None
        if cached is not None:
            self._levels: list[list[bytes]] = cached
            return
        # _levels[0] is the leaf-hash level; _levels[-1] is [root].
        self._levels = [[_leaf_hash(leaf) for leaf in leaves]]
        while len(self._levels[-1]) > 1:
            below = self._levels[-1]
            level = [
                _node_hash(below[i], below[i + 1])
                for i in range(0, len(below) - 1, 2)
            ]
            if len(below) % 2:
                level.append(below[-1])
            self._levels.append(level)
        if key is not None:
            _LEVELS_CACHE.put(key, self._levels)

    @property
    def root(self) -> bytes:
        """The tree root committing to all leaves."""
        return self._levels[-1][0]

    @property
    def leaf_count(self) -> int:
        return self._leaf_count

    def proof(self, index: int) -> MerkleProof:
        """Return the inclusion proof for the leaf at ``index`` (0-based)."""
        if not 0 <= index < self._leaf_count:
            raise IndexError(f"leaf index {index} out of range")
        path: list[bytes] = []
        directions: list[bool] = []
        position = index
        for level in self._levels[:-1]:
            sibling = position ^ 1
            if sibling < len(level):
                path.append(level[sibling])
                directions.append(bool(position & 1))
            position //= 2
        return MerkleProof(
            index=index,
            leaf_count=self._leaf_count,
            path=tuple(path),
            directions=tuple(directions),
        )


def verify_merkle_proof(root: bytes, leaf: bytes, proof: MerkleProof) -> bool:
    """Check that ``leaf`` is the ``proof.index``-th leaf under ``root``.

    Returns ``False`` (never raises) on any mismatch, so callers can treat
    failures as Byzantine input.
    """
    if not 0 <= proof.index < proof.leaf_count:
        return False
    # Recompute the per-level widths to know where promoted nodes occur.
    widths = [proof.leaf_count]
    while widths[-1] > 1:
        widths.append((widths[-1] + 1) // 2)
    node = _leaf_hash(leaf)
    position = proof.index
    cursor = 0
    for width in widths[:-1]:
        sibling = position ^ 1
        if sibling < width:
            if cursor >= len(proof.path):
                return False
            is_right = proof.directions[cursor]
            if is_right != bool(position & 1):
                return False
            sibling_hash = proof.path[cursor]
            if not isinstance(sibling_hash, bytes):
                return False
            cursor += 1
            if is_right:
                node = _node_hash(sibling_hash, node)
            else:
                node = _node_hash(node, sibling_hash)
        position //= 2
    return cursor == len(proof.path) and node == root
