"""Property tests for the hot-path caches of the erasure/crypto kernels.

The decode-plan cache, the coder's value memos, and the hashing/Merkle
caches are pure-performance features: a cached answer must be *identical*
to the answer a cold component computes.  These tests drive the caches
with randomized (but seeded) inputs and compare cached results against
fresh, cache-cold computations.
"""

import random

import pytest

from repro.common.lru import LruCache, memoize_unary
from repro.crypto.hashing import hash_bytes, hash_vector
from repro.crypto.merkle import MerkleTree
from repro.erasure.coder import ErasureCoder
from repro.erasure.reed_solomon import ReedSolomonCode


def _random_value(rng, size):
    return bytes(rng.getrandbits(8) for _ in range(size))


# -- decode-plan cache ----------------------------------------------------


@pytest.mark.parametrize("code_cls,n,k,block_bytes", [
    (ReedSolomonCode, 7, 3, 32),
    (ReedSolomonCode, 16, 11, 64),
    (ReedSolomonCode, 300, 4, 32),
])
def test_cached_decode_plans_match_fresh_inversions(code_cls, n, k,
                                                    block_bytes):
    """For random k-subsets, a warm coder (plan-cache hits) and a cold
    coder (fresh matrix inversions) decode identically."""
    rng = random.Random(1234)
    warm = code_cls(n=n, k=k)
    for trial in range(40):
        data_blocks = [_random_value(rng, block_bytes) for _ in range(k)]
        encoded = warm.encode_blocks(data_blocks)
        subset = rng.sample(range(n), k)  # 0-based block indices
        supplied = {index: encoded[index] for index in subset}
        cold = code_cls(n=n, k=k)  # fresh plan cache every trial
        got_warm = warm.decode_blocks(supplied)
        got_cold = cold.decode_blocks(supplied)
        assert got_warm == got_cold
        assert got_warm == data_blocks


def test_repeated_decode_hits_plan_cache():
    code = ReedSolomonCode(n=8, k=4)
    blocks = code.encode_blocks([bytes([i]) * 16 for i in range(4)])
    supplied = {index: blocks[index] for index in (1, 4, 6, 7)}
    first = code.decode_blocks(supplied)
    hits_before = code._plan_cache.hits
    second = code.decode_blocks(supplied)
    assert second == first
    assert code._plan_cache.hits > hits_before


def test_plan_cache_shares_plans_across_equal_index_subsets():
    """Plans are keyed by the chosen index tuple, not by block contents."""
    code = ReedSolomonCode(n=8, k=4)
    subset = (0, 2, 5, 7)
    for fill in (0x11, 0x22, 0x33):
        blocks = code.encode_blocks([bytes([fill + i]) * 8
                                     for i in range(4)])
        supplied = {index: blocks[index] for index in subset}
        decoded = code.decode_blocks(supplied)
        assert decoded == [bytes([fill + i]) * 8 for i in range(4)]
    assert len(code._plan_cache) == 1


# -- coder value memos ----------------------------------------------------


def test_coder_encode_memo_returns_equal_blocks():
    rng = random.Random(99)
    coder = ErasureCoder(n=10, k=4)
    for _ in range(10):
        value = _random_value(rng, rng.randrange(1, 400))
        first = coder.encode(value)
        second = coder.encode(value)  # memo hit
        assert first == second
        assert ErasureCoder(n=10, k=4).encode(value) == first
        # Returned lists are fresh: callers may mutate them freely.
        second[0] = b"clobbered"
        assert coder.encode(value) == first


def test_coder_decode_memo_matches_cold_decode():
    rng = random.Random(7)
    coder = ErasureCoder(n=9, k=5)
    value = _random_value(rng, 333)
    blocks = coder.encode(value)
    subset = rng.sample(range(1, 10), 5)
    supplied = [(index, blocks[index - 1]) for index in subset]
    assert coder.decode(supplied) == value
    assert coder.decode(supplied) == value  # memo hit
    assert ErasureCoder(n=9, k=5).decode(supplied) == value


def test_coder_decode_accepts_bytes_like_blocks():
    coder = ErasureCoder(n=5, k=2)
    value = b"bytearray-input-roundtrip"
    blocks = coder.encode(value)
    supplied = [(1, bytearray(blocks[0])), (4, memoryview(blocks[3]))]
    assert coder.decode(supplied) == value


def test_coder_decode_conflicting_duplicates_still_raise():
    """Validation is never memoized away: conflicting resubmissions of
    the same index must fail on every call."""
    coder = ErasureCoder(n=5, k=2)
    blocks = coder.encode(b"payload")
    good = [(1, blocks[0]), (2, blocks[1])]
    assert coder.decode(good) == b"payload"
    bad = [(1, blocks[0]), (1, b"\x00" * len(blocks[0])), (2, blocks[1])]
    for _ in range(2):
        with pytest.raises(Exception):
            coder.decode(bad)


# -- hashing / Merkle caches ----------------------------------------------


def test_hash_bytes_memo_is_content_keyed():
    import hashlib
    rng = random.Random(5)
    for _ in range(20):
        data = _random_value(rng, rng.randrange(0, 200))
        assert hash_bytes(data) == hashlib.sha256(data).digest()
        assert hash_bytes(bytes(data)) == hashlib.sha256(data).digest()


def test_hash_vector_returns_fresh_lists():
    blocks = [b"a" * 10, b"b" * 10, b"c" * 10]
    first = hash_vector(blocks)
    assert first == [hash_bytes(b) for b in blocks]
    first[0] = b"clobbered"
    assert hash_vector(blocks) == [hash_bytes(b) for b in blocks]


def test_hash_vector_accepts_bytearray_blocks():
    blocks = [bytearray(b"xyz"), bytearray(b"pqr")]
    assert hash_vector(blocks) == [hash_bytes(bytes(b)) for b in blocks]


def test_merkle_levels_cache_preserves_roots_and_proofs():
    rng = random.Random(42)
    leaves = [_random_value(rng, 24) for _ in range(8)]
    first = MerkleTree(leaves)
    second = MerkleTree(list(leaves))  # cache hit shares levels
    assert first.root == second.root
    for index in range(8):
        assert first.proof(index) == second.proof(index)


# -- the cache primitive itself -------------------------------------------


def test_lru_eviction_is_insertion_ordered():
    cache = LruCache(capacity=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refreshes "a"; "b" is now oldest
    cache.put("c", 3)
    assert "b" not in cache
    assert cache.get("a") == 1 and cache.get("c") == 3


def test_lru_get_rejects_unhashable_keys_even_when_empty():
    """``dict.pop`` on an empty dict never hashes its key; callers rely
    on the ``TypeError`` to route unhashable inputs around the cache."""
    cache = LruCache(capacity=2)
    with pytest.raises(TypeError):
        cache.get([1, 2])
    cache.put("a", 1)
    with pytest.raises(TypeError):
        cache.get([1, 2])


def test_memoize_unary_bypasses_unhashable_arguments():
    calls = []

    @memoize_unary(capacity=4)
    def probe(argument):
        calls.append(argument)
        return len(argument)

    assert probe((1, 2)) == 2
    assert probe((1, 2)) == 2
    assert len(calls) == 1  # hashable: second call was a hit
    assert probe([1, 2, 3]) == 3
    assert probe([1, 2, 3]) == 3
    assert len(calls) == 3  # unhashable: computed every time
