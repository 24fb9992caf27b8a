"""Merkle trees: proofs, tampering, odd shapes."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import ReproError
from repro.common.serialization import decode, encode
from repro.crypto.merkle import (
    MerkleProof,
    MerkleTree,
    verify_merkle_proof,
)


def test_single_leaf():
    tree = MerkleTree([b"only"])
    assert verify_merkle_proof(tree.root, b"only", tree.proof(0))


def test_all_leaves_verify_various_sizes():
    for count in (1, 2, 3, 4, 5, 7, 8, 9, 16, 17):
        leaves = [bytes([i]) * 4 for i in range(count)]
        tree = MerkleTree(leaves)
        for index, leaf in enumerate(leaves):
            assert verify_merkle_proof(tree.root, leaf, tree.proof(index)), \
                (count, index)


def test_wrong_leaf_rejected():
    leaves = [b"a", b"b", b"c"]
    tree = MerkleTree(leaves)
    assert not verify_merkle_proof(tree.root, b"x", tree.proof(0))


def test_wrong_index_rejected():
    leaves = [b"a", b"b", b"c", b"d"]
    tree = MerkleTree(leaves)
    proof = tree.proof(1)
    assert not verify_merkle_proof(tree.root, b"a", proof)


def test_wrong_root_rejected():
    leaves = [b"a", b"b", b"c", b"d"]
    tree = MerkleTree(leaves)
    other = MerkleTree([b"w", b"x", b"y", b"z"])
    assert not verify_merkle_proof(other.root, b"a", tree.proof(0))


def test_tampered_path_rejected():
    leaves = [b"a", b"b", b"c", b"d"]
    tree = MerkleTree(leaves)
    proof = tree.proof(2)
    bad_path = tuple(
        bytes(32) if i == 0 else node for i, node in enumerate(proof.path))
    tampered = MerkleProof(index=proof.index, leaf_count=proof.leaf_count,
                           path=bad_path, directions=proof.directions)
    assert not verify_merkle_proof(tree.root, b"c", tampered)


def test_tampered_directions_rejected():
    leaves = [b"a", b"b", b"c", b"d"]
    tree = MerkleTree(leaves)
    proof = tree.proof(2)
    flipped = tuple(not d for d in proof.directions)
    tampered = MerkleProof(index=proof.index, leaf_count=proof.leaf_count,
                           path=proof.path, directions=flipped)
    assert not verify_merkle_proof(tree.root, b"c", tampered)


def test_out_of_range_index_rejected():
    tree = MerkleTree([b"a", b"b"])
    proof = tree.proof(0)
    bogus = MerkleProof(index=5, leaf_count=2, path=proof.path,
                        directions=proof.directions)
    assert not verify_merkle_proof(tree.root, b"a", bogus)


def test_proof_for_internal_node_cannot_pose_as_leaf():
    # Domain separation: an internal node's hash never verifies as a leaf.
    leaves = [b"a", b"b", b"c", b"d"]
    tree = MerkleTree(leaves)
    proof2 = tree.proof(2)
    # Use level-1 node (hash of a,b) as a fake leaf with a shortened path.
    fake_leaf = proof2.path[-1]
    short = MerkleProof(index=0, leaf_count=2, path=proof2.path[:1],
                        directions=proof2.directions[:1])
    assert not verify_merkle_proof(tree.root, fake_leaf, short)


def test_empty_tree_rejected():
    with pytest.raises(ReproError):
        MerkleTree([])


def test_proof_index_out_of_range():
    tree = MerkleTree([b"a"])
    with pytest.raises(IndexError):
        tree.proof(1)


def test_proof_is_wire_serializable():
    tree = MerkleTree([b"a", b"b", b"c", b"d", b"e"])
    proof = tree.proof(3)
    assert decode(encode(proof)) == proof


def test_duplicate_leaves_still_positional():
    tree = MerkleTree([b"same", b"same", b"same"])
    for index in range(3):
        assert verify_merkle_proof(tree.root, b"same", tree.proof(index))


@given(st.lists(st.binary(min_size=1, max_size=16), min_size=1,
                max_size=33))
def test_property_all_proofs_verify(leaves):
    tree = MerkleTree(leaves)
    for index, leaf in enumerate(leaves):
        assert verify_merkle_proof(tree.root, leaf, tree.proof(index))


@given(st.lists(st.binary(min_size=1, max_size=8), min_size=2, max_size=16),
       st.data())
def test_property_cross_index_rejected(leaves, data):
    tree = MerkleTree(leaves)
    i = data.draw(st.integers(min_value=0, max_value=len(leaves) - 1))
    j = data.draw(st.integers(min_value=0, max_value=len(leaves) - 1))
    if leaves[i] != leaves[j]:
        assert not verify_merkle_proof(tree.root, leaves[i], tree.proof(j))
