"""Reed-Solomon erasure codes: any k blocks reconstruct."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigurationError, DecodingError
from repro.erasure.field import identity_matrix
from repro.erasure.reed_solomon import ReedSolomonCode


def _data_blocks(k: int, length: int, seed: int = 0):
    rng = random.Random(seed)
    return [bytes(rng.getrandbits(8) for _ in range(length))
            for _ in range(k)]


def test_systematic_generator():
    code = ReedSolomonCode(7, 4)
    assert [row for row in code.generator_matrix[:4]] == identity_matrix(4)


def test_encode_is_systematic():
    code = ReedSolomonCode(6, 3)
    data = _data_blocks(3, 16)
    blocks = code.encode_blocks(data)
    assert blocks[:3] == data
    assert len(blocks) == 6


def test_every_k_subset_decodes():
    code = ReedSolomonCode(6, 3)
    data = _data_blocks(3, 8, seed=42)
    blocks = code.encode_blocks(data)
    for subset in itertools.combinations(range(6), 3):
        recovered = code.decode_blocks(
            {index: blocks[index] for index in subset})
        assert recovered == data, subset


def test_extra_blocks_ignored_deterministically():
    code = ReedSolomonCode(5, 2)
    data = _data_blocks(2, 4)
    blocks = code.encode_blocks(data)
    recovered = code.decode_blocks(dict(enumerate(blocks)))
    assert recovered == data


def test_too_few_blocks_raises():
    code = ReedSolomonCode(5, 3)
    with pytest.raises(DecodingError):
        code.decode_blocks({0: b"xx", 1: b"yy"})


def test_out_of_range_indices_ignored():
    code = ReedSolomonCode(4, 2)
    data = _data_blocks(2, 4)
    blocks = code.encode_blocks(data)
    with pytest.raises(DecodingError):
        code.decode_blocks({0: blocks[0], 9: blocks[1]})


def test_unequal_lengths_rejected():
    code = ReedSolomonCode(4, 2)
    with pytest.raises(ConfigurationError):
        code.encode_blocks([b"abc", b"ab"])
    with pytest.raises(DecodingError):
        code.decode_blocks({0: b"abc", 1: b"ab"})


def test_wrong_block_count_rejected():
    code = ReedSolomonCode(4, 2)
    with pytest.raises(ConfigurationError):
        code.encode_blocks([b"ab"])


def test_invalid_parameters():
    with pytest.raises(ConfigurationError):
        ReedSolomonCode(3, 4)
    with pytest.raises(ConfigurationError):
        ReedSolomonCode(4, 0)
    with pytest.raises(ConfigurationError):
        ReedSolomonCode(65536, 4)
    assert ReedSolomonCode(256, 4).n == 256  # GF(2^16) takes over at 256


def test_k_equals_n():
    code = ReedSolomonCode(3, 3)
    data = _data_blocks(3, 5)
    blocks = code.encode_blocks(data)
    assert blocks == data  # no parity; identity code


def test_k_equals_one_is_replication():
    code = ReedSolomonCode(4, 1)
    blocks = code.encode_blocks([b"payload"])
    assert all(block == b"payload" for block in blocks)


def test_numpy_and_pure_python_agree():
    fast = ReedSolomonCode(7, 4, use_numpy=True)
    slow = ReedSolomonCode(7, 4, use_numpy=False)
    data = _data_blocks(4, 32, seed=5)
    assert fast.encode_blocks(data) == slow.encode_blocks(data)
    blocks = fast.encode_blocks(data)
    subset = {6: blocks[6], 4: blocks[4], 2: blocks[2], 5: blocks[5]}
    assert fast.decode_blocks(subset) == slow.decode_blocks(subset)


def test_corrupted_block_changes_decode():
    """RS erasure codes detect nothing by themselves; corruption must be
    caught by the commitment layer above (this documents the division of
    labour)."""
    code = ReedSolomonCode(5, 2)
    data = _data_blocks(2, 6, seed=3)
    blocks = code.encode_blocks(data)
    corrupted = bytes(b ^ 1 for b in blocks[4])
    recovered = code.decode_blocks({4: corrupted, 2: blocks[2]})
    assert recovered != data


@settings(max_examples=40)
@given(st.data())
def test_property_random_codes_roundtrip(data):
    # Both sides of 255: 1-byte symbols below, 2-byte symbols above.
    n = data.draw(st.integers(min_value=1, max_value=12)
                  | st.integers(min_value=250, max_value=260))
    k = data.draw(st.integers(min_value=1, max_value=min(n, 12)))
    length = (1 if n <= 255 else 2) * data.draw(
        st.integers(min_value=0, max_value=16))
    blocks_in = [data.draw(st.binary(min_size=length, max_size=length))
                 for _ in range(k)]
    code = ReedSolomonCode(n, k)
    encoded = code.encode_blocks(blocks_in)
    indices = data.draw(st.permutations(list(range(n))))
    subset = {index: encoded[index] for index in indices[:k]}
    assert code.decode_blocks(subset) == blocks_in


#: SHA-256 over ``encode_blocks`` and one all-parity ``decode_blocks`` of
#: fixed data, per shape: a moved generator matrix changes every stored
#: block, so these pin the code's bytes (GF(2^8) below 256, GF(2^16) at 300).
PINNED_DIGESTS = {
    (7, 3): "7d50f7508d00cd15f7bc32e654415dcfdc04047c6b0d018448d28c703c7b014d",
    (16, 6): "3bb178558b1e71ff133db36e1b089f51671bad615dd7cb572af6a0ea6d2a77c4",
    (300, 5): "2d60f7dce721c44d7419a8de321e7fdabb82b0a805738054d60679452b988984",
}


@pytest.mark.parametrize("use_numpy", [True, False], ids=["numpy", "python"])
@pytest.mark.parametrize("n, k", sorted(PINNED_DIGESTS))
def test_block_bytes_are_pinned(n, k, use_numpy):
    code = ReedSolomonCode(n, k, use_numpy=use_numpy)
    rng = random.Random(n * 1000 + k)
    data = [rng.randbytes(64) for _ in range(k)]
    encoded = code.encode_blocks(data)
    decoded = code.decode_blocks({j: encoded[j] for j in range(n - k, n)})
    assert decoded == data
    digest = hashlib.sha256(b"".join(encoded) + b"".join(decoded))
    assert digest.hexdigest() == PINNED_DIGESTS[(n, k)]
