"""Block commitments: hash vectors and Merkle trees behind one interface."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigurationError
from repro.common.serialization import encode
from repro.crypto.commitment import (
    MerkleCommitment,
    VectorCommitment,
    make_commitment_scheme,
)
from repro.crypto.hashing import DIGEST_SIZE

SCHEMES = [VectorCommitment, MerkleCommitment]
SCHEME_IDS = ["vector", "merkle"]


def _blocks(n, size=8, salt=0):
    return [bytes([i ^ salt]) * size for i in range(n)]


@pytest.mark.parametrize("scheme_cls", SCHEMES, ids=SCHEME_IDS)
def test_commit_and_verify_all(scheme_cls):
    scheme = scheme_cls(5)
    blocks = _blocks(5)
    commitment, witnesses = scheme.commit(blocks)
    assert len(witnesses) == 5
    for index, block in enumerate(blocks, start=1):
        assert scheme.verify(commitment, index, block,
                             witnesses[index - 1])


@pytest.mark.parametrize("scheme_cls", SCHEMES, ids=SCHEME_IDS)
def test_wrong_block_rejected(scheme_cls):
    scheme = scheme_cls(4)
    blocks = _blocks(4)
    commitment, witnesses = scheme.commit(blocks)
    assert not scheme.verify(commitment, 1, b"tampered", witnesses[0])


@pytest.mark.parametrize("scheme_cls", SCHEMES, ids=SCHEME_IDS)
def test_wrong_index_rejected(scheme_cls):
    scheme = scheme_cls(4)
    blocks = _blocks(4)
    commitment, witnesses = scheme.commit(blocks)
    assert not scheme.verify(commitment, 2, blocks[0], witnesses[0])


@pytest.mark.parametrize("scheme_cls", SCHEMES, ids=SCHEME_IDS)
def test_out_of_range_index_rejected(scheme_cls):
    scheme = scheme_cls(4)
    blocks = _blocks(4)
    commitment, witnesses = scheme.commit(blocks)
    assert not scheme.verify(commitment, 0, blocks[0], witnesses[0])
    assert not scheme.verify(commitment, 5, blocks[0], witnesses[0])


@pytest.mark.parametrize("scheme_cls", SCHEMES, ids=SCHEME_IDS)
def test_garbage_commitment_rejected(scheme_cls):
    scheme = scheme_cls(4)
    blocks = _blocks(4)
    _, witnesses = scheme.commit(blocks)
    assert not scheme.verify("garbage", 1, blocks[0], witnesses[0])
    assert not scheme.verify(None, 1, blocks[0], witnesses[0])


@pytest.mark.parametrize("scheme_cls", SCHEMES, ids=SCHEME_IDS)
def test_block_count_enforced(scheme_cls):
    scheme = scheme_cls(4)
    with pytest.raises(ConfigurationError):
        scheme.commit(_blocks(3))


@pytest.mark.parametrize("scheme_cls", SCHEMES, ids=SCHEME_IDS)
def test_commitment_is_serializable(scheme_cls):
    scheme = scheme_cls(4)
    commitment, witnesses = scheme.commit(_blocks(4))
    encode((commitment, witnesses))  # must not raise


@pytest.mark.parametrize("scheme_cls", SCHEMES, ids=SCHEME_IDS)
def test_digest_is_a_constant_size_name_of_the_commitment(scheme_cls):
    scheme = scheme_cls(5)
    first, _ = scheme.commit(_blocks(5, salt=0))
    second, _ = scheme.commit(_blocks(5, salt=9))
    assert isinstance(scheme.digest(first), bytes)
    assert len(scheme.digest(first)) == DIGEST_SIZE
    assert scheme.digest(first) == scheme.digest(scheme.commit(
        _blocks(5, salt=0))[0])
    assert scheme.digest(first) != scheme.digest(second)


def test_vector_digest_frames_its_entries():
    """Moving bytes across an entry boundary changes the digest."""
    scheme = VectorCommitment(2)
    assert scheme.digest((b"ab", b"c")) != scheme.digest((b"a", b"bc"))


def test_merkle_root_is_its_own_digest():
    scheme = MerkleCommitment(5)
    commitment, _ = scheme.commit(_blocks(5))
    assert scheme.digest(commitment) is commitment


def test_vector_commitment_shape():
    scheme = VectorCommitment(3)
    commitment, witnesses = scheme.commit(_blocks(3))
    assert isinstance(commitment, tuple) and len(commitment) == 3
    assert witnesses == [None, None, None]


def test_merkle_commitment_shape():
    scheme = MerkleCommitment(5)
    commitment, witnesses = scheme.commit(_blocks(5))
    assert isinstance(commitment, bytes) and len(commitment) == 32


def test_merkle_witness_from_other_tree_rejected():
    scheme = MerkleCommitment(4)
    commitment_a, witnesses_a = scheme.commit(_blocks(4, salt=0))
    commitment_b, witnesses_b = scheme.commit(_blocks(4, salt=9))
    assert not scheme.verify(commitment_a, 1, _blocks(4, salt=9)[0],
                             witnesses_b[0])


def test_merkle_wrong_leaf_count_witness_rejected():
    small = MerkleCommitment(2)
    big = MerkleCommitment(4)
    blocks = _blocks(4)
    commitment, witnesses = big.commit(blocks)
    # A witness for a 4-leaf tree must not verify in a 2-block scheme.
    assert not small.verify(commitment, 1, blocks[0], witnesses[0])


def test_factory():
    assert isinstance(make_commitment_scheme("vector", 3), VectorCommitment)
    assert isinstance(make_commitment_scheme("merkle", 3), MerkleCommitment)
    with pytest.raises(ConfigurationError):
        make_commitment_scheme("homomorphic", 3)
    with pytest.raises(ConfigurationError):
        make_commitment_scheme("vector", 0)


@settings(max_examples=30)
@given(st.data())
def test_property_commit_verify(data):
    n = data.draw(st.integers(min_value=1, max_value=10))
    scheme_name = data.draw(st.sampled_from(["vector", "merkle"]))
    blocks = [data.draw(st.binary(min_size=1, max_size=16))
              for _ in range(n)]
    scheme = make_commitment_scheme(scheme_name, n)
    commitment, witnesses = scheme.commit(blocks)
    index = data.draw(st.integers(min_value=1, max_value=n))
    assert scheme.verify(commitment, index, blocks[index - 1],
                         witnesses[index - 1])
    tampered = blocks[index - 1] + b"\x00"
    assert not scheme.verify(commitment, index, tampered,
                             witnesses[index - 1])
