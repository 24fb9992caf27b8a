"""Block commitments: hash vectors and their Merkle-tree optimization.

Protocol Disperse commits a writer to the encoded blocks ``[F_1..F_n]`` so
that every server and reader can validate an individual block.  The paper
presents the commitment as the *hash vector* ``D = [H(F_1)..H(F_n)]`` and
notes that hash trees reduce the ``n^3 |H|`` communication term to
``n^2 log n |H|``.  Both options implement the same interface here, so the
register protocols are agnostic and experiments can compare them.

A commitment must be a hashable, canonically-serializable value (it is used
to group quorum messages); a *witness* is per-block data a verifier needs
besides the block itself (empty for hash vectors, an inclusion proof for
Merkle trees).  A commitment's *digest* is its constant-size name: parties
that already hold ``D`` agree on it by agreeing on ``digest(D)``, the same
trade Section 2.3 makes when it replaces cross-checksums by hashes of them.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.common.serialization import encode
from repro.crypto.hashing import hash_bytes
from repro.crypto.merkle import MerkleProof, MerkleTree, verify_merkle_proof

Commitment = Any
Witness = Any


class CommitmentScheme:
    """Interface: commit to ``n`` blocks; verify one ``(index, block)``."""

    name = "abstract"

    def __init__(self, n: int):
        if n < 1:
            raise ConfigurationError("commitments need at least one block")
        self.n = n

    def commit(self, blocks: Sequence[bytes]) -> Tuple[Commitment, List[Witness]]:
        """Return ``(commitment, witnesses)`` with one witness per block."""
        raise NotImplementedError

    def verify(self, commitment: Commitment, index: int, block: bytes,
               witness: Witness) -> bool:
        """Check that ``block`` is the ``index``-th (1-based, as the paper
        indexes servers) committed block.  Never raises on bad input."""
        raise NotImplementedError

    def digest(self, commitment: Commitment) -> bytes:
        """The ``DIGEST_SIZE``-byte name of a commitment some block has
        *verified* against: collision resistance binds whoever accepts
        the digest to the one commitment that hashes to it."""
        raise NotImplementedError

    def is_commitment(self, value: Any) -> bool:
        """Whether ``value`` has a commitment's shape (no block checked):
        what tells a message naming ``D`` from one naming its digest."""
        raise NotImplementedError


class VectorCommitment(CommitmentScheme):
    """The paper's hash vector ``D = [H(F_1), ..., H(F_n)]``.

    The commitment is the full tuple of digests; no per-block witness is
    needed.  Size grows linearly in ``n``.
    """

    name = "vector"

    def commit(self, blocks: Sequence[bytes]) -> Tuple[Commitment, List[Witness]]:
        if len(blocks) != self.n:
            raise ConfigurationError(
                f"expected {self.n} blocks, got {len(blocks)}")
        return tuple(hash_bytes(block) for block in blocks), [None] * self.n

    def verify(self, commitment: Commitment, index: int, block: bytes,
               witness: Witness) -> bool:
        if not self.is_commitment(commitment):
            return False
        if not 1 <= index <= self.n or not isinstance(block, bytes):
            return False
        return commitment[index - 1] == hash_bytes(block)

    def digest(self, commitment: Commitment) -> bytes:
        # Hash of the canonical (length-framed) encoding of ``D``, so no
        # two vectors share a preimage across entry boundaries.
        return hash_bytes(encode(commitment))

    def is_commitment(self, value: Any) -> bool:
        return isinstance(value, tuple) and len(value) == self.n


class MerkleCommitment(CommitmentScheme):
    """Hash-tree commitment: a single root plus per-block inclusion proofs.

    This is the optimization the paper invokes for the improved
    ``O(n |F| + n^2 log n |H|)`` dispersal communication bound.
    """

    name = "merkle"

    def commit(self, blocks: Sequence[bytes]) -> Tuple[Commitment, List[Witness]]:
        if len(blocks) != self.n:
            raise ConfigurationError(
                f"expected {self.n} blocks, got {len(blocks)}")
        tree = MerkleTree(blocks)
        return tree.root, [tree.proof(i) for i in range(self.n)]

    def verify(self, commitment: Commitment, index: int, block: bytes,
               witness: Witness) -> bool:
        if not self.is_commitment(commitment) or \
                not isinstance(block, bytes):
            return False
        if not isinstance(witness, MerkleProof):
            return False
        if not 1 <= index <= self.n:
            return False
        if witness.index != index - 1 or witness.leaf_count != self.n:
            return False
        return verify_merkle_proof(commitment, block, witness)

    def digest(self, commitment: Commitment) -> bytes:
        return commitment  # the root already is a hash of everything

    def is_commitment(self, value: Any) -> bool:
        # The root is its own digest, so a name that is one is the other.
        return isinstance(value, bytes)


def make_commitment_scheme(name: str, n: int) -> CommitmentScheme:
    """Factory: ``"vector"`` (paper's Figures 1-3) or ``"merkle"``."""
    if name == "vector":
        return VectorCommitment(n)
    if name == "merkle":
        return MerkleCommitment(n)
    raise ConfigurationError(f"unknown commitment scheme {name!r}")
