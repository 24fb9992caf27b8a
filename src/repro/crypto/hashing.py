"""Collision-resistant hashing.

The paper models a collision-resistant hash function ``H : {0,1}* -> {0,1}^h``
and writes ``H`` for the bit size of its range (SHA-1 with ``H = 160`` in the
paper; we use SHA-256, so ``H = 256`` by default).  Protocols treat the hash
as an opaque function; the digest size is a parameter of the complexity
model (:mod:`repro.analysis.complexity`).
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

from repro.common.lru import memoize_unary

#: Digest size in bytes of the library hash function.
DIGEST_SIZE = 32

#: Digest size in bits (the paper's ``|H|``).
DIGEST_BITS = DIGEST_SIZE * 8


@memoize_unary(capacity=256)
def hash_bytes(data: bytes) -> bytes:
    """Return the collision-resistant hash of ``data`` (SHA-256).

    Memoized by content: quorum protocols re-hash the same blocks at
    every verifying server (cross-checksum checks, commitment
    verifications), and ``bytes`` objects cache their own hash, so
    repeat lookups cost one dict probe.  The memo is process-wide and
    holds 256 inputs, the smallest power of two at which every kvperf
    workload shape computes within 5 % of the hashes an unbounded memo
    computes (128 computes 7-10 % more; docs/PERFORMANCE.md §2.13).
    """
    return hashlib.sha256(data).digest()


def hash_many(parts: Iterable[bytes]) -> bytes:
    """Hash a sequence of byte strings with unambiguous framing.

    Each part is length-prefixed before hashing, so ``hash_many([a, b])``
    and ``hash_many([a + b])`` differ — concatenation cannot create
    collisions across part boundaries.
    """
    state = hashlib.sha256()
    for part in parts:
        state.update(len(part).to_bytes(8, "big"))
        state.update(part)
    return state.digest()


def hash_vector(blocks: Sequence[bytes]) -> list[bytes]:
    """Return the hash vector ``D = [H(F_1), ..., H(F_n)]`` of the blocks.

    This is the cross-checksum the Disperse protocol broadcasts so that
    readers can validate individual erasure-code blocks.
    """
    return [hash_bytes(block) for block in blocks]


def hash_int(value: int) -> bytes:
    """Hash an integer via its canonical two's-complement encoding."""
    length = (value.bit_length() + 8) // 8
    return hash_bytes(value.to_bytes(length, "big", signed=True))
