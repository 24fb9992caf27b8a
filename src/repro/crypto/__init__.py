"""Cryptographic tools: hashing, Merkle trees, and threshold signatures.

These are the primitives of Section 2.2 of the paper: a collision-resistant
hash function and a non-interactive ``(n, t)``-threshold signature scheme
(Shoup's RSA-based construction, plus a fast ideal-functionality backend
for large-scale simulations).
"""

from repro.crypto.hashing import (
    DIGEST_BITS,
    DIGEST_SIZE,
    hash_bytes,
    hash_int,
    hash_many,
    hash_vector,
)
from repro.crypto.merkle import (
    MerkleProof,
    MerkleTree,
    verify_merkle_proof,
)
from repro.crypto.threshold import (
    IdealThresholdScheme,
    ShoupThresholdScheme,
    SignatureShare,
    ThresholdScheme,
    ThresholdSignature,
    make_scheme,
)

__all__ = [
    "DIGEST_BITS",
    "DIGEST_SIZE",
    "hash_bytes",
    "hash_int",
    "hash_many",
    "hash_vector",
    "MerkleProof",
    "MerkleTree",
    "verify_merkle_proof",
    "IdealThresholdScheme",
    "ShoupThresholdScheme",
    "SignatureShare",
    "ThresholdScheme",
    "ThresholdSignature",
    "make_scheme",
]
