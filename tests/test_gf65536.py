"""GF(2^16) field and the Reed-Solomon code beyond 255 blocks."""

import gc
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigurationError, DecodingError
from repro.erasure.coder import ErasureCoder
from repro.erasure.field import GF65536, BlockMatrix, identity_matrix
from repro.erasure.reed_solomon import _PLAN_CACHE_CAPACITY, ReedSolomonCode

from tests.gf_reference import numpy_decode, numpy_encode

elements = st.integers(min_value=0, max_value=65535)
nonzero = st.integers(min_value=1, max_value=65535)


def test_mul_identity_and_zero():
    for a in (0, 1, 2, 255, 256, 65535):
        assert GF65536.mul(a, 1) == a
        assert GF65536.mul(a, 0) == 0


def test_generator_reduction():
    # 2 * 0x8000 overflows and reduces by the primitive polynomial.
    assert GF65536.mul(0x8000, 2) == (0x10000 ^ GF65536.poly)


def test_div_and_inv_errors():
    with pytest.raises(ZeroDivisionError):
        GF65536.inv(0)
    with pytest.raises(ZeroDivisionError):
        GF65536.pow(0, -2)


def test_pow_base_cases():
    assert GF65536.pow(0, 0) == 1
    assert GF65536.pow(0, 3) == 0
    assert GF65536.pow(7, 0) == 1
    assert GF65536.mul(GF65536.pow(9, -1), 9) == 1


@given(elements, elements)
def test_mul_commutative(a, b):
    assert GF65536.mul(a, b) == GF65536.mul(b, a)


@given(elements, elements, elements)
def test_mul_associative(a, b, c):
    assert GF65536.mul(GF65536.mul(a, b), c) == \
        GF65536.mul(a, GF65536.mul(b, c))


@given(elements, elements, elements)
def test_distributive(a, b, c):
    left = GF65536.mul(a, b ^ c)
    right = GF65536.mul(a, b) ^ GF65536.mul(a, c)
    assert left == right


@given(nonzero)
def test_inverse(a):
    assert GF65536.mul(a, GF65536.inv(a)) == 1


@given(nonzero, st.integers(min_value=-5, max_value=5))
def test_pow_is_repeated_mul(a, e):
    expected = 1
    base = a if e >= 0 else GF65536.inv(a)
    for _ in range(abs(e)):
        expected = GF65536.mul(expected, base)
    assert GF65536.pow(a, e) == expected


def test_matrix_invert_roundtrip():
    rng = random.Random(5)
    matrix = [[rng.randrange(65536) for _ in range(4)] for _ in range(4)]
    try:
        inverse = GF65536.matrix_invert(matrix)
    except ValueError:
        pytest.skip("randomly singular")
    product = GF65536.matrix_multiply(matrix, inverse)
    assert product == identity_matrix(4)


def test_vandermonde_limit():
    with pytest.raises(ValueError):
        GF65536.vandermonde_matrix(70000, 2)


# -- Reed-Solomon with 16-bit symbols (n > 255) -----------------------------------

def test_rs16_systematic_roundtrip():
    code = ReedSolomonCode(260, 3)
    data = [os.urandom(12) for _ in range(3)]
    blocks = code.encode_blocks(data)
    assert blocks[:3] == data
    for subset in ((0, 1, 2), (0, 100, 259), (257, 258, 259), (1, 2, 255)):
        recovered = code.decode_blocks(
            {index: blocks[index] for index in subset})
        assert recovered == data


def test_rs16_beyond_255():
    code = ReedSolomonCode(300, 5)
    data = [os.urandom(8) for _ in range(5)]
    blocks = code.encode_blocks(data)
    assert len(blocks) == 300
    recovered = code.decode_blocks(
        {299: blocks[299], 256: blocks[256], 17: blocks[17],
         255: blocks[255], 123: blocks[123]})
    assert recovered == data


def test_rs16_odd_length_rejected():
    code = ReedSolomonCode(256, 2)
    with pytest.raises(ConfigurationError):
        code.encode_blocks([b"abc", b"def"])
    with pytest.raises(DecodingError):
        code.decode_blocks({0: b"abc", 1: b"def"})


def test_rs16_parameter_validation():
    with pytest.raises(ConfigurationError):
        ReedSolomonCode(300, 301)
    with pytest.raises(ConfigurationError):
        ReedSolomonCode(65536, 2)


def test_rs16_numpy_matches_python():
    """The standard-library kernel against the numpy reference beyond
    255 blocks, where symbols are two bytes wide."""
    code = ReedSolomonCode(300, 4)
    data = [os.urandom(20) for _ in range(4)]
    blocks = code.encode_blocks(data)
    assert blocks == numpy_encode(code, data)
    subset = {299: blocks[299], 256: blocks[256], 40: blocks[40],
              2: blocks[2]}
    assert code.decode_blocks(subset) == numpy_decode(code, subset) == data


def test_rs16_compiled_tables_are_bounded_by_the_plan_cache():
    """GF(2^16) translate tables live in the compiled matrices, so they
    are bounded by the decode-plan cache (plus the parity rows) however
    many distinct index subsets a code decodes from."""
    def live_matrices():
        gc.collect()
        return sum(1 for obj in gc.get_objects()
                   if type(obj) is BlockMatrix and obj.field is GF65536)

    before = live_matrices()
    code = ReedSolomonCode(300, 4)
    data = [os.urandom(8) for _ in range(4)]
    blocks = code.encode_blocks(data)
    for parity in range(4, 4 + _PLAN_CACHE_CAPACITY + 20):
        chosen = (0, 1, 2, parity)
        assert code.decode_blocks({j: blocks[j] for j in chosen}) == data
    assert len(code._plan_cache) == _PLAN_CACHE_CAPACITY
    assert live_matrices() - before <= _PLAN_CACHE_CAPACITY + 1
    assert GF65536._terms is None  # and none are kept by the field


# -- coder integration ---------------------------------------------------------------

def test_coder_field_auto_selection():
    """``n`` picks the symbol width: 1 byte up to 255 blocks, 2 beyond."""
    narrow, wide = ErasureCoder(255, 100), ErasureCoder(256, 100)
    assert {narrow.block_length(size) % 2 for size in range(300)} == {0, 1}
    assert {wide.block_length(size) % 2 for size in range(300)} == {0}


def test_coder_explicit_field_roundtrip():
    """A coder past 255 blocks uses GF(2^16) and pads odd values to a symbol."""
    coder = ErasureCoder(300, 3)
    value = os.urandom(1001)  # odd length exercises symbol padding
    blocks = coder.encode(value)
    assert len(blocks[0]) % 2 == 0
    assert coder.decode([(2, blocks[1]), (150, blocks[149]),
                         (300, blocks[299])]) == value


def test_large_cluster_value_roundtrip():
    coder = ErasureCoder(400, 280)
    value = os.urandom(4097)  # odd length exercises symbol padding
    blocks = coder.encode(value)
    assert len(blocks[0]) % 2 == 0
    pairs = [(j, blocks[j - 1]) for j in range(50, 50 + 280)]
    assert coder.decode(pairs) == value
    assert coder.storage_blowup(4097) < 1.6


@settings(max_examples=15)
@given(st.data())
def test_property_rs16_roundtrip(data):
    n = data.draw(st.integers(min_value=256, max_value=300))
    k = data.draw(st.integers(min_value=1, max_value=6))
    length = 2 * data.draw(st.integers(min_value=0, max_value=10))
    blocks_in = [data.draw(st.binary(min_size=length, max_size=length))
                 for _ in range(k)]
    code = ReedSolomonCode(n, k)
    encoded = code.encode_blocks(blocks_in)
    chosen = data.draw(st.permutations(list(range(n))))[:k]
    assert code.decode_blocks(
        {index: encoded[index] for index in chosen}) == blocks_in
