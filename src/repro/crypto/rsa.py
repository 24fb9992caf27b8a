"""RSA key material for Shoup's threshold signature scheme.

Shoup's scheme [Shoup, "Practical Threshold Signatures", EUROCRYPT 2000 —
reference 26 of the paper] requires an RSA modulus ``N = p * q`` where both
``p`` and ``q`` are *safe* primes (``p = 2p' + 1`` with ``p'`` prime), so
that the subgroup of squares in ``Z_N*`` is cyclic of order ``m = p'q'``
and contains no small-order elements.

Safe-prime generation in pure Python is slow at production sizes, so this
module ships deterministic precomputed safe-prime pairs for use in
tests and benchmarks (this is key material for a *simulation*; it is not
meant to protect real data).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.common.errors import ConfigurationError
from repro.crypto.numtheory import is_probable_prime

#: Deterministically generated safe-prime pairs ``(p, q)`` keyed by bit size.
#: Generated once with ``tests/safe_primes.py``'s ``random_safe_prime``
#: from seeds 20060206/20060207
#: (the paper's date); a pair is verified the first time
#: :func:`precomputed_modulus` hands it out.
PRECOMPUTED_SAFE_PRIMES = {
    128: (0xD1C90F34E4738697A7E366588AA77143,
          0x8BD1D78849FAB3CEA50DF512FFB5833B),
    192: (0xB2F8B22238AE7B73597234EBF07D1AA164E1A594C0E68E9F,
          0x992C0A4A4BEFAD460C4513192B42855D9EDD87D0CB2C466B),
    256: (0xDB6B68C6CB900C07631406CF58380AA45FA79607605684620423A474DAACF95B,
          0xA4152009FDF4990F083160DC7423294EDB7854A350355FEFE5673D676D405C0B),
    512: (0xB46F2B874C1E07BA546038BEB05F5F851AB3F06C10190F0ABEC389949D7EC6859E3B2700472625785767F83B6A603212CB37E65D17A4859EEF6D99E1692B7D73,
          0xEE4D7A2ABE8C236B228952E2621176F5ECD02F6F6A4AEFAAF229DBCF087D7B173BA33F4268960E4E907234A3010B25AA1FA1AFD6F29EECFF07EF5CEA413D1953),
}


@dataclass(frozen=True)
class RsaModulus:
    """An RSA modulus with its (trusted-dealer-only) factorization.

    ``m = p' * q'`` is the order of the subgroup of squares; the dealer
    shares the signing exponent over ``Z_m`` and then discards ``p, q, m``.
    """

    n: int
    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p * self.q != self.n:
            raise ConfigurationError("modulus does not match its factors")

    @property
    def p_prime(self) -> int:
        return (self.p - 1) // 2

    @property
    def q_prime(self) -> int:
        return (self.q - 1) // 2

    @property
    def m(self) -> int:
        """Order of the subgroup of squares of ``Z_N*``."""
        return self.p_prime * self.q_prime

    @property
    def bits(self) -> int:
        return self.n.bit_length()


#: Moduli of the pairs verified so far, by per-prime size.  Primality
#: tests on all four pairs cost more than a third of the package's
#: import, and most runs never sign, so each pair pays on first use.
_VERIFIED_MODULI: Dict[int, RsaModulus] = {}


def precomputed_modulus(prime_bits: int = 256) -> RsaModulus:
    """Return a modulus built from precomputed safe primes.

    ``prime_bits`` selects the per-prime size; the modulus has about twice
    that many bits.  Available sizes: ``sorted(PRECOMPUTED_SAFE_PRIMES)``.
    No modulus is built from a pair that has not passed the safe-prime
    check.
    """
    modulus = _VERIFIED_MODULI.get(prime_bits)
    if modulus is None:
        try:
            p, q = PRECOMPUTED_SAFE_PRIMES[prime_bits]
        except KeyError:
            sizes = sorted(PRECOMPUTED_SAFE_PRIMES)
            raise ConfigurationError(
                f"no precomputed safe primes of {prime_bits} bits; "
                f"available sizes: {sizes}") from None
        _verify_pair(prime_bits, p, q)
        modulus = _VERIFIED_MODULI[prime_bits] = RsaModulus(
            n=p * q, p=p, q=q)
    return modulus


def _verify_pair(bits: int, p: int, q: int) -> None:
    for prime in (p, q):
        if prime.bit_length() != bits:
            raise ConfigurationError(
                f"precomputed prime has wrong size ({bits})")
        if not is_probable_prime(prime) or \
                not is_probable_prime((prime - 1) // 2):
            raise ConfigurationError(
                f"precomputed value of {bits} bits is not a safe prime")
