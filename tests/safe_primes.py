"""Fresh safe primes and RSA moduli for the threshold-RSA tests.

The program only uses the precomputed pairs in
:data:`repro.crypto.rsa.PRECOMPUTED_SAFE_PRIMES`, which
:func:`random_safe_prime` generated; the tests check both functions and
sign under a fresh modulus.
"""

import random

from repro.crypto.numtheory import is_probable_prime
from repro.crypto.rsa import RsaModulus


def random_safe_prime(bits: int, rng: random.Random) -> int:
    """Return a random safe prime ``p`` (``p`` and ``(p-1)/2`` both prime).

    Safe primes are sparse; this is the slow step of RSA threshold key
    generation.
    """
    while True:
        q = rng.getrandbits(bits - 1) | (1 << (bits - 2)) | 1
        if not is_probable_prime(q, rng):
            continue
        p = 2 * q + 1
        if is_probable_prime(p, rng):
            return p


def generate_modulus(bits: int, rng: random.Random) -> RsaModulus:
    """Generate a fresh safe-prime RSA modulus of roughly ``bits`` bits."""
    half = bits // 2
    p = random_safe_prime(half, rng)
    q = random_safe_prime(half, rng)
    while q == p:
        q = random_safe_prime(half, rng)
    return RsaModulus(n=p * q, p=p, q=q)
