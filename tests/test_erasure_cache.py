"""Property tests for the hot-path caches of the erasure/crypto kernels.

The decode-plan cache, the coder's value memos, and the hashing/Merkle
caches are pure-performance features: a cached answer must be *identical*
to the answer a cold component computes.  These tests drive the caches
with randomized (but seeded) inputs and compare cached results against
fresh, cache-cold computations.
"""

import random

import pytest

from repro.common import serialization
from repro.common.lru import LruCache, memoize_unary
from repro.config import SystemConfig
from repro.crypto import merkle
from repro.crypto.hashing import hash_bytes, hash_vector
from repro.crypto.merkle import MerkleTree
from repro.erasure import coder as coder_module
from repro.erasure.coder import ErasureCoder
from repro.erasure.reed_solomon import ReedSolomonCode
from repro.kv import KvDirectory, build_kv_cluster, drive
from repro.net.schedulers import RandomScheduler
from repro.workloads.kv import kv_workload


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


# -- memo sizing ------------------------------------------------------------

#: The sizing rule's tolerance: at the shipped capacities a run computes
#: at most this share more encodes, decodes and hashes than it does with
#: unbounded memos.
WORK_TOLERANCE = 0.05
#: What the memos may still reference once the sizing run ends: the
#: payload bytes of 256 of its 16 KiB values.  The shipped memos hold
#: about 200, unbounded ones about 525.
RETAINED_BOUND = 256 * 16384
#: The memos that live at module level, shared by every run in a process.
PROCESS_MEMOS = (hash_bytes.cache, serialization._ENCODE_CACHE,
                 merkle._LEVELS_CACHE)


def _payload_bytes(item, seen):
    """Bytes of the distinct ``bytes`` objects ``item`` reaches through
    tuples and lists, each object counted once across ``seen``."""
    if id(item) in seen:
        return 0
    seen.add(id(item))
    if isinstance(item, (bytes, bytearray)):
        return len(item)
    if isinstance(item, (tuple, list)):
        return sum(_payload_bytes(part, seen) for part in item)
    return 0


def _sizing_run():
    """One kv run in the ``large_values`` shape (16 KiB values on
    ``atomic_ns``, four sessions, four shards), from cold memos: the
    encodes, decodes and hashes it computed and the payload bytes its
    memos reference at the end (each object once, whoever else holds
    it)."""
    for memo in PROCESS_MEMOS:
        memo.clear()
    hashes_before = hash_bytes.cache.misses
    directory = KvDirectory(SystemConfig(n=7, t=2), 4)
    cluster = build_kv_cluster(directory, protocol="atomic_ns",
                               num_sessions=4,
                               scheduler=RandomScheduler(1))
    workload = kv_workload(num_sessions=4, num_keys=32, ops=240,
                           write_ratio=0.5, distribution="uniform",
                           seed=1, value_size=16384)
    drive(cluster, workload, seed=1)
    coders = [directory.shard(shard).config.coder for shard in range(4)]
    work = {
        "encodes": sum(c._encode_memo.misses for c in coders),
        "decodes": sum(c._decode_memo.misses for c in coders),
        "hashes": hash_bytes.cache.misses - hashes_before,
    }
    memos = PROCESS_MEMOS + tuple(
        memo for c in coders for memo in (c._encode_memo, c._decode_memo))
    seen = set()
    retained = sum(_payload_bytes(key, seen) + _payload_bytes(value, seen)
                   for memo in memos for key, value in memo._data.items())
    for memo in PROCESS_MEMOS:
        memo.clear()
    return work, retained


def test_memos_hold_the_values_in_flight_for_the_same_kernel_work(
        monkeypatch):
    """The shipped memo capacities compute within ``WORK_TOLERANCE`` of
    the encodes, decodes and hashes unbounded memos compute, and what
    they still hold at the end of the run stays under
    ``RETAINED_BOUND``."""
    shipped, retained = _sizing_run()
    unbounded = 10 ** 9
    monkeypatch.setattr(coder_module, "_ENCODE_MEMO_CAPACITY", unbounded)
    monkeypatch.setattr(coder_module, "_DECODE_MEMO_CAPACITY", unbounded)
    for memo in PROCESS_MEMOS:
        monkeypatch.setattr(memo, "capacity", unbounded)
    floor, retained_unbounded = _sizing_run()
    assert floor["encodes"] and floor["decodes"] and floor["hashes"]
    for kind, computed in shipped.items():
        assert computed <= floor[kind] * (1 + WORK_TOLERANCE), (
            kind, computed, floor[kind])
    assert retained < RETAINED_BOUND < retained_unbounded
