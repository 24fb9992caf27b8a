"""Safe-prime RSA moduli for the Shoup scheme."""

import random

import pytest

from repro.common.errors import ConfigurationError
from repro.crypto import rsa
from repro.crypto.numtheory import is_probable_prime
from repro.crypto.rsa import (
    PRECOMPUTED_SAFE_PRIMES,
    RsaModulus,
    generate_modulus,
    precomputed_modulus,
)


def test_precomputed_sizes_available():
    assert {128, 192, 256, 512} <= set(PRECOMPUTED_SAFE_PRIMES)


def test_precomputed_are_safe_primes():
    for bits, (p, q) in PRECOMPUTED_SAFE_PRIMES.items():
        for prime in (p, q):
            assert prime.bit_length() == bits
            assert is_probable_prime(prime)
            assert is_probable_prime((prime - 1) // 2)


def test_precomputed_modulus_m():
    modulus = precomputed_modulus(128)
    assert modulus.n == modulus.p * modulus.q
    assert modulus.m == modulus.p_prime * modulus.q_prime
    assert modulus.p_prime == (modulus.p - 1) // 2


def test_every_precomputed_size_is_handed_out_verified():
    for bits, (p, q) in PRECOMPUTED_SAFE_PRIMES.items():
        modulus = precomputed_modulus(bits)
        assert (modulus.p, modulus.q) == (p, q)
        assert precomputed_modulus(bits) is modulus  # verified once


def test_unsafe_precomputed_pair_is_never_handed_out(monkeypatch):
    p, q = PRECOMPUTED_SAFE_PRIMES[128]
    monkeypatch.setattr(rsa, "_VERIFIED_MODULI", {})
    for bits, pair in ((64, (p, q)),           # wrong size
                       (128, (p, q + 2))):     # q + 2 is not prime
        monkeypatch.setitem(PRECOMPUTED_SAFE_PRIMES, bits, pair)
        for _ in range(2):  # a failed check is not remembered as passed
            with pytest.raises(ConfigurationError):
                precomputed_modulus(bits)


def test_precomputed_unknown_size():
    with pytest.raises(ConfigurationError):
        precomputed_modulus(100)


def test_modulus_factor_check():
    with pytest.raises(ConfigurationError):
        RsaModulus(n=15, p=3, q=7)


def test_generate_modulus():
    modulus = generate_modulus(48, random.Random(0))
    assert modulus.n == modulus.p * modulus.q
    assert is_probable_prime(modulus.p)
    assert is_probable_prime(modulus.q)
    assert modulus.p != modulus.q


def test_bits_property():
    modulus = precomputed_modulus(128)
    assert 250 <= modulus.bits <= 256
