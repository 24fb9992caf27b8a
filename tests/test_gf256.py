"""GF(2^8) field axioms and matrix algebra."""

import pytest
from hypothesis import given, strategies as st

from repro.erasure.field import GF256, identity_matrix

gf_mul, gf_inv, gf_pow = GF256.mul, GF256.inv, GF256.pow
matrix_invert, matrix_multiply = GF256.matrix_invert, GF256.matrix_multiply

elements = st.integers(min_value=0, max_value=255)
nonzero = st.integers(min_value=1, max_value=255)


def test_tables_consistent():
    exp, log = GF256.tables()
    for value in range(1, 256):
        assert exp[log[value]] == value


def test_mul_identity_and_zero():
    for a in range(256):
        assert gf_mul(a, 1) == a
        assert gf_mul(a, 0) == 0


def test_known_product():
    # 2 * 2 = 4 ; 0x80 * 2 = 0x1d (reduction by the primitive polynomial)
    assert gf_mul(2, 2) == 4
    assert gf_mul(0x80, 2) == 0x1D


def test_div_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        gf_inv(0)
    with pytest.raises(ZeroDivisionError):
        gf_pow(0, -1)


def test_pow_cases():
    assert gf_pow(0, 0) == 1
    assert gf_pow(0, 5) == 0
    assert gf_pow(3, 1) == 3
    assert gf_pow(5, 0) == 1
    assert gf_mul(gf_pow(7, -1), 7) == 1


@given(elements, elements)
def test_mul_commutative(a, b):
    assert gf_mul(a, b) == gf_mul(b, a)


@given(elements, elements, elements)
def test_mul_associative(a, b, c):
    assert gf_mul(gf_mul(a, b), c) == gf_mul(a, gf_mul(b, c))


@given(elements, elements, elements)
def test_distributive(a, b, c):
    assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)


@given(nonzero)
def test_inverse(a):
    assert gf_mul(a, gf_inv(a)) == 1


@given(nonzero, st.integers(min_value=-5, max_value=5))
def test_pow_is_repeated_mul(a, e):
    expected = 1
    base = a if e >= 0 else gf_inv(a)
    for _ in range(abs(e)):
        expected = gf_mul(expected, base)
    assert gf_pow(a, e) == expected


# -- matrices -----------------------------------------------------------------

def test_identity_multiply():
    matrix = [[1, 2], [3, 4]]
    assert matrix_multiply(identity_matrix(2), matrix) == matrix
    assert matrix_multiply(matrix, identity_matrix(2)) == matrix


def test_invert_roundtrip():
    matrix = [[1, 2, 3], [4, 5, 6], [7, 8, 10]]
    inverse = matrix_invert(matrix)
    assert matrix_multiply(matrix, inverse) == identity_matrix(3)


def test_singular_matrix_raises():
    with pytest.raises(ValueError):
        matrix_invert([[1, 2], [1, 2]])
    with pytest.raises(ValueError):
        matrix_invert([[0, 0], [0, 0]])


def test_non_square_invert_raises():
    with pytest.raises(ValueError):
        matrix_invert([[1, 2, 3], [4, 5, 6]])


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        matrix_multiply([[1, 2], [3]], [[1], [2]])


def test_vandermonde_rows_limit():
    with pytest.raises(ValueError):
        GF256.vandermonde_matrix(256, 3)


def test_vandermonde_any_square_submatrix_invertible():
    matrix = GF256.vandermonde_matrix(8, 3)
    import itertools
    for rows in itertools.combinations(range(8), 3):
        submatrix = [matrix[r][:] for r in rows]
        matrix_invert(submatrix)  # must not raise


@given(st.integers(min_value=1, max_value=5), st.data())
def test_invert_random_invertible(size, data):
    import random as _random
    rng = _random.Random(data.draw(st.integers(0, 10 ** 6)))
    # Build a random matrix; skip draws that happen to be singular.
    matrix = [[rng.randrange(256) for _ in range(size)]
              for _ in range(size)]
    try:
        inverse = matrix_invert(matrix)
    except ValueError:
        return
    assert matrix_multiply(matrix, inverse) == identity_matrix(size)
