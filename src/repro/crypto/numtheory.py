"""Number-theoretic utilities for the threshold-RSA backend.

Pure-Python primality testing (Miller–Rabin with deterministic bases for
small inputs), modular inverses, and integer Lagrange coefficients.  Everything is deterministic
given the caller's :class:`random.Random` instance, which keeps protocol
runs and tests reproducible.
"""

from __future__ import annotations

import math
import random
from typing import Optional, Sequence

# Deterministic Miller-Rabin witness set: correct for all n < 3.317e24.
_DETERMINISTIC_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
)


def _miller_rabin(n: int, witness: int) -> bool:
    """Return ``False`` if ``witness`` proves ``n`` composite."""
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(witness % n, d, n)
    if x in (0, 1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_probable_prime(n: int, rng: Optional[random.Random] = None,
                      rounds: int = 32) -> bool:
    """Miller–Rabin primality test.

    Deterministic (and exact) for ``n`` below ~3.3e24; otherwise uses
    ``rounds`` random witnesses from ``rng`` (error probability at most
    ``4**-rounds``).
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < _DETERMINISTIC_LIMIT:
        witnesses: Sequence[int] = _DETERMINISTIC_WITNESSES
    else:
        rng = rng or random.Random(n)
        witnesses = [rng.randrange(2, n - 1) for _ in range(rounds)]
    return all(_miller_rabin(n, w) for w in witnesses)


def mod_inverse(a: int, modulus: int) -> int:
    """Return ``a**-1 mod modulus``; raises ``ValueError`` if not coprime."""
    g, x, _ = extended_gcd(a % modulus, modulus)
    if g != 1:
        raise ValueError(f"{a} is not invertible modulo {modulus}")
    return x % modulus


def extended_gcd(a: int, b: int) -> tuple:
    """Return ``(g, x, y)`` with ``a*x + b*y == g == gcd(a, b)``."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        quotient = old_r // r
        old_r, r = r, old_r - quotient * r
        old_x, x = x, old_x - quotient * x
        old_y, y = y, old_y - quotient * y
    return old_r, old_x, old_y


def lagrange_coefficient(delta: int, subset: Sequence[int], i: int,
                         x: int = 0) -> int:
    """Integer Lagrange coefficient ``delta * prod (x - j) / (i - j)``.

    With ``delta = n!`` the quotient is guaranteed to be an integer for any
    subset of ``{1..n}`` (Shoup's trick for interpolating in the exponent
    without knowing the group order).
    """
    numerator = delta
    denominator = 1
    for j in subset:
        if j == i:
            continue
        numerator *= x - j
        denominator *= i - j
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise ValueError("Lagrange coefficient is not integral; "
                         "delta must be a multiple of n!")
    return quotient


def factorial(n: int) -> int:
    """``n!`` — the ``delta`` used throughout Shoup's scheme."""
    return math.factorial(n)
