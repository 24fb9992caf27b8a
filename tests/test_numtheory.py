"""Number-theoretic utilities behind the Shoup threshold scheme."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from repro.crypto.numtheory import (
    extended_gcd,
    factorial,
    is_probable_prime,
    lagrange_coefficient,
    mod_inverse,
)
from tests.safe_primes import random_safe_prime

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 97, 101, 65537]
SMALL_COMPOSITES = [0, 1, 4, 6, 9, 15, 21, 25, 91, 561, 1105, 65536]


def test_small_primes_recognized():
    for p in SMALL_PRIMES:
        assert is_probable_prime(p), p


def test_small_composites_rejected():
    for c in SMALL_COMPOSITES:
        assert not is_probable_prime(c), c


def test_carmichael_numbers_rejected():
    # Classic Fermat pseudoprimes must not fool Miller-Rabin.
    for carmichael in (561, 1105, 1729, 2465, 2821, 6601, 8911):
        assert not is_probable_prime(carmichael)


def test_negative_numbers_not_prime():
    assert not is_probable_prime(-7)


def test_large_known_prime():
    assert is_probable_prime(2 ** 127 - 1)      # Mersenne prime
    assert not is_probable_prime(2 ** 128 - 1)


def test_random_safe_prime():
    rng = random.Random(2)
    p = random_safe_prime(24, rng)
    assert is_probable_prime(p)
    assert is_probable_prime((p - 1) // 2)


def test_extended_gcd_identity():
    g, x, y = extended_gcd(240, 46)
    assert g == math.gcd(240, 46)
    assert 240 * x + 46 * y == g


def test_mod_inverse():
    assert mod_inverse(3, 11) == 4
    assert (7 * mod_inverse(7, 31)) % 31 == 1


def test_mod_inverse_not_coprime_raises():
    with pytest.raises(ValueError):
        mod_inverse(6, 9)


def test_factorial_matches_math():
    for n in range(10):
        assert factorial(n) == math.factorial(n)


def test_lagrange_coefficients_interpolate():
    # f(x) = 5 + 3x + 2x^2 over the integers; interpolate f(0) from any 3
    # points with delta-scaled coefficients.
    def f(x):
        return 5 + 3 * x + 2 * x * x

    n = 6
    delta = factorial(n)
    subset = [2, 4, 5]
    total = sum(lagrange_coefficient(delta, subset, i) * f(i)
                for i in subset)
    assert total == delta * f(0)


def test_lagrange_requires_delta_multiple():
    with pytest.raises(ValueError):
        lagrange_coefficient(1, [1, 2, 4], 1)


@given(st.integers(min_value=1, max_value=10 ** 9),
       st.integers(min_value=1, max_value=10 ** 9))
def test_extended_gcd_property(a, b):
    g, x, y = extended_gcd(a, b)
    assert g == math.gcd(a, b)
    assert a * x + b * y == g


@given(st.integers(min_value=2, max_value=10 ** 6))
def test_mod_inverse_property(m):
    rng = random.Random(m)
    a = rng.randrange(1, m)
    if math.gcd(a, m) == 1:
        assert (a * mod_inverse(a, m)) % m == 1


@given(st.data())
def test_lagrange_property(data):
    n = data.draw(st.integers(min_value=3, max_value=8))
    degree = data.draw(st.integers(min_value=0, max_value=2))
    coefficients = data.draw(st.lists(
        st.integers(min_value=-50, max_value=50),
        min_size=degree + 1, max_size=degree + 1))
    subset = data.draw(st.permutations(list(range(1, n + 1))))
    subset = sorted(subset[: degree + 1])

    def poly(x):
        return sum(c * x ** i for i, c in enumerate(coefficients))

    delta = factorial(n)
    total = sum(lagrange_coefficient(delta, subset, i) * poly(i)
                for i in subset)
    assert total == delta * poly(0)
