"""Non-interactive ``(n, t)``-threshold signatures.

The paper (Section 2.2) requires a non-interactive threshold signature
scheme with five algorithms — ``generate``, ``sign``, ``verify-share``,
``combine``, ``verify`` — satisfying *robustness* (t+1 valid shares always
combine into a valid signature) and *non-forgeability* (no signature on a
message never signed by an honest server).  It cites Shoup's practical
RSA-based scheme [26] as an instantiation.

This module provides two interchangeable backends:

:class:`ShoupThresholdScheme`
    A complete pure-Python implementation of Shoup's scheme: safe-prime RSA
    modulus, signing exponent shared with a degree-``t`` polynomial over
    ``Z_m`` (``m`` the order of the squares subgroup), signature shares
    ``x^{2·Δ·s_j}`` with non-interactive discrete-log-equality validity
    proofs (Fiat–Shamir), and share combining via integer Lagrange
    interpolation in the exponent.

:class:`IdealThresholdScheme`
    A fast ideal-functionality backend for large simulations.  It enforces
    robustness and non-forgeability *by construction*: shares are MACs
    under per-server keys derivable only through the dealing, and a
    combined signature can only be produced by presenting ``t+1`` valid
    shares from distinct servers to :meth:`combine`.  Byzantine parties in
    the simulator hold only their own key shares and the public API, which
    is exactly the power the paper's computationally-bounded adversary has.
    (See DESIGN.md §5 for why this substitution preserves behaviour.)

Both backends share the interface of :class:`ThresholdScheme`, so protocols
are written once and benchmarks can compare the two (experiment F8).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence

from repro.common.errors import (
    ConfigurationError,
    DealingError,
    InvalidShare,
    InvalidSignature,
)
from repro.common.serialization import (
    encode,
    encoded_size,
    register_wire_type,
)
from repro.crypto.numtheory import (
    extended_gcd,
    factorial,
    lagrange_coefficient,
    mod_inverse,
)
from repro.crypto.rsa import RsaModulus, generate_modulus, precomputed_modulus

_CHALLENGE_BITS = 256


# ---------------------------------------------------------------------------
# Wire types
# ---------------------------------------------------------------------------

@register_wire_type
@dataclass(frozen=True)
class SignatureShare:
    """A signature share ``µ_j`` produced by server ``P_j``.

    ``value`` is the share itself; ``proof`` carries the backend-specific
    validity proof (``(c, z)`` for Shoup, empty for the ideal backend).
    """

    signer: int
    value: bytes
    proof: tuple

    def size_bytes(self) -> int:
        """Wire size of this share (the `S` of the complexity model)."""
        return encoded_size(self)


@register_wire_type
@dataclass(frozen=True)
class ThresholdSignature:
    """A combined threshold signature ``σ``."""

    value: bytes

    def size_bytes(self) -> int:
        """Wire size of this signature."""
        return encoded_size(self)


def _int_to_bytes(value: int) -> bytes:
    length = max(1, (value.bit_length() + 7) // 8)
    return value.to_bytes(length, "big")


def _bytes_to_int(data: bytes) -> int:
    return int.from_bytes(data, "big")


def _hash_to_int(*parts: bytes) -> int:
    state = hashlib.sha256()
    for part in parts:
        state.update(len(part).to_bytes(8, "big"))
        state.update(part)
    return _bytes_to_int(state.digest())


# ---------------------------------------------------------------------------
# Scheme interface
# ---------------------------------------------------------------------------

class ThresholdScheme:
    """Interface of a dealt ``(n, t)``-threshold signature scheme.

    An instance represents the output of the trusted dealer's ``generate``
    run: it knows the public key, all verification keys, and hands each
    server its private share via :meth:`private_share`.  Messages may be
    any canonically-serializable value (they are encoded before signing).
    """

    n: int
    t: int

    def private_share(self, j: int) -> Any:
        """Return server ``P_j``'s private key share ``SK_j`` (1-based)."""
        raise NotImplementedError

    def sign(self, message: Any, j: int) -> SignatureShare:
        """Produce ``P_j``'s signature share ``µ_j`` on ``message``."""
        raise NotImplementedError

    def verify_share(self, message: Any, share: SignatureShare) -> bool:
        """Check a share against ``P_share.signer``'s verification key."""
        raise NotImplementedError

    def combine(self, message: Any,
                shares: Iterable[SignatureShare]) -> ThresholdSignature:
        """Combine ``t+1`` valid shares from distinct servers into ``σ``.

        Raises :class:`InvalidShare` if fewer than ``t+1`` distinct valid
        shares are supplied (invalid shares are skipped, which is the
        robustness guarantee: honest shares always suffice).
        """
        raise NotImplementedError

    def verify(self, message: Any, signature: ThresholdSignature) -> bool:
        """Check a combined signature against the public key."""
        raise NotImplementedError

    def _check_quorum(
            self, message: Any,
            shares: Iterable[SignatureShare]) -> list:
        """Filter to valid shares from distinct signers; enforce ``t+1``."""
        seen: set = set()
        valid = []
        for share in shares:
            if share.signer in seen or not 1 <= share.signer <= self.n:
                continue
            if self.verify_share(message, share):
                seen.add(share.signer)
                valid.append(share)
        if len(valid) < self.t + 1:
            raise InvalidShare(
                f"combine needs {self.t + 1} valid shares from distinct "
                f"servers, got {len(valid)}")
        return valid


def _validate_n_t(n: int, t: int) -> None:
    if n < 1:
        raise ConfigurationError("need at least one server")
    if not 0 <= t < n:
        raise ConfigurationError(f"threshold t={t} must satisfy 0 <= t < n={n}")


# ---------------------------------------------------------------------------
# Shoup's RSA threshold signature scheme
# ---------------------------------------------------------------------------

class ShoupThresholdScheme(ThresholdScheme):
    """Shoup's practical RSA threshold signature scheme (EUROCRYPT 2000).

    Parameters
    ----------
    n, t:
        Group size and corruption threshold; ``t + 1`` shares combine.
    modulus:
        A safe-prime :class:`RsaModulus`.  Defaults to the precomputed
        512-bit-primes modulus; pass ``generate_modulus(bits, rng)`` for a
        fresh one.
    rng:
        Source of dealer randomness (polynomial coefficients, the
        verification base ``v``, and proof nonces).
    """

    def __init__(self, n: int, t: int, modulus: Optional[RsaModulus] = None,
                 rng: Optional[random.Random] = None):
        _validate_n_t(n, t)
        self.n = n
        self.t = t
        rng = rng or random.Random(0x5406)
        self._rng = rng
        mod = modulus or precomputed_modulus(256)
        self._N = mod.n
        m = mod.m
        self._e = 65537
        if n >= self._e:
            raise ConfigurationError("group size must be below e = 65537")
        d = mod_inverse(self._e, m)
        # Secret-share d with a random degree-t polynomial over Z_m.
        coefficients = [d] + [rng.randrange(m) for _ in range(t)]
        self._shares = {}
        for j in range(1, n + 1):
            value = 0
            for power, coefficient in enumerate(coefficients):
                value = (value + coefficient * pow(j, power, m)) % m
            self._shares[j] = value
        # Verification base: a random square generates the squares w.h.p.
        self._v = pow(rng.randrange(2, self._N - 1), 2, self._N)
        self._vk = {j: pow(self._v, s, self._N)
                    for j, s in self._shares.items()}
        self._delta = factorial(n)

    # -- key access -----------------------------------------------------

    @property
    def public_key(self) -> tuple:
        """``(N, e, v)`` plus the verification keys, as the dealer outputs."""
        return (self._N, self._e, self._v, dict(self._vk))

    def private_share(self, j: int) -> int:
        if j not in self._shares:
            raise DealingError(f"no share dealt to server {j}")
        return self._shares[j]

    # -- hashing into Z_N -----------------------------------------------

    def _fdh(self, message: Any) -> int:
        """Full-domain hash of the canonical message encoding into Z_N*."""
        data = encode(message)
        bits = self._N.bit_length() + 64
        blocks = []
        counter = 0
        while len(blocks) * 32 * 8 < bits:
            blocks.append(hashlib.sha256(
                counter.to_bytes(4, "big") + data).digest())
            counter += 1
        x = _bytes_to_int(b"".join(blocks)) % self._N
        return x if x > 1 else 2

    # -- the five algorithms ---------------------------------------------

    def sign(self, message: Any, j: int) -> SignatureShare:
        s_j = self.private_share(j)
        N = self._N
        x = self._fdh(message)
        x_i = pow(x, 2 * self._delta * s_j, N)
        # Fiat-Shamir proof of dlog equality:
        #   log_v(v_j) == log_{x~}(x_i^2)  with  x~ = x^{4*delta}.
        x_tilde = pow(x, 4 * self._delta, N)
        bound = 1 << (N.bit_length() + 2 * _CHALLENGE_BITS)
        r = self._rng.randrange(bound)
        v_prime = pow(self._v, r, N)
        x_prime = pow(x_tilde, r, N)
        c = self._challenge(x_tilde, j, x_i, v_prime, x_prime)
        z = s_j * c + r
        return SignatureShare(
            signer=j,
            value=_int_to_bytes(x_i),
            proof=(_int_to_bytes(c), _int_to_bytes(z)),
        )

    def _challenge(self, x_tilde: int, j: int, x_i: int,
                   v_prime: int, x_prime: int) -> int:
        return _hash_to_int(
            _int_to_bytes(self._v),
            _int_to_bytes(x_tilde),
            _int_to_bytes(self._vk[j]),
            _int_to_bytes(pow(x_i, 2, self._N)),
            _int_to_bytes(v_prime),
            _int_to_bytes(x_prime),
        ) % (1 << _CHALLENGE_BITS)

    def verify_share(self, message: Any, share: SignatureShare) -> bool:
        if not 1 <= share.signer <= self.n or len(share.proof) != 2:
            return False
        N = self._N
        try:
            x_i = _bytes_to_int(share.value) % N
            c = _bytes_to_int(share.proof[0])
            z = _bytes_to_int(share.proof[1])
        except (TypeError, ValueError):
            return False
        if x_i <= 0:
            return False
        x = self._fdh(message)
        x_tilde = pow(x, 4 * self._delta, N)
        v_j = self._vk[share.signer]
        try:
            v_prime = pow(self._v, z, N) * mod_inverse(pow(v_j, c, N), N) % N
            x_prime = (pow(x_tilde, z, N) *
                       mod_inverse(pow(x_i, 2 * c, N), N) % N)
        except ValueError:
            return False  # non-invertible garbage: Byzantine share
        return c == self._challenge(x_tilde, share.signer, x_i,
                                    v_prime, x_prime)

    def combine(self, message: Any,
                shares: Iterable[SignatureShare]) -> ThresholdSignature:
        valid = self._check_quorum(message, shares)
        subset = [share.signer for share in valid[: self.t + 1]]
        N = self._N
        w = 1
        for share in valid[: self.t + 1]:
            coefficient = lagrange_coefficient(self._delta, subset,
                                               share.signer)
            x_i = _bytes_to_int(share.value) % N
            exponent = 2 * coefficient
            if exponent >= 0:
                w = w * pow(x_i, exponent, N) % N
            else:
                w = w * mod_inverse(pow(x_i, -exponent, N), N) % N
        # w^e == x^{e'} with e' = 4*delta^2; since gcd(e, e') == 1 we can
        # extract an e-th root of x from w and x.
        e_prime = 4 * self._delta * self._delta
        g, a, b = extended_gcd(e_prime, self._e)
        if g != 1:
            raise ConfigurationError("gcd(e', e) != 1; invalid parameters")
        x = self._fdh(message)
        y = 1
        y = y * (pow(w, a, N) if a >= 0
                 else mod_inverse(pow(w, -a, N), N)) % N
        y = y * (pow(x, b, N) if b >= 0
                 else mod_inverse(pow(x, -b, N), N)) % N
        signature = ThresholdSignature(value=_int_to_bytes(y))
        if not self.verify(message, signature):
            raise InvalidSignature("combined signature failed verification")
        return signature

    def verify(self, message: Any, signature: ThresholdSignature) -> bool:
        if not isinstance(signature, ThresholdSignature):
            return False
        try:
            y = _bytes_to_int(signature.value) % self._N
        except (TypeError, ValueError):
            return False
        return pow(y, self._e, self._N) == self._fdh(message)


# ---------------------------------------------------------------------------
# Ideal-functionality backend
# ---------------------------------------------------------------------------

class IdealThresholdScheme(ThresholdScheme):
    """Ideal threshold-signature functionality for fast simulations.

    Behaviourally indistinguishable from a secure scheme at the protocol
    level: a share is valid iff it was computed with ``P_j``'s dealt key
    share, and a signature verifies iff it came out of a :meth:`combine`
    call that was handed ``t + 1`` valid shares from distinct servers.
    The per-message signing keys live inside this object — the modeled
    adversary interacts with it only through the five API calls (and its
    own corrupted servers' shares), mirroring the computationally-bounded
    adversary of the paper.
    """

    #: Pad share MACs to a realistic share size?  Shares here are 32-byte
    #: MACs; the complexity model parameterizes share size separately.
    def __init__(self, n: int, t: int, seed: int = 0x5406):
        _validate_n_t(n, t)
        self.n = n
        self.t = t
        self._master = hashlib.sha256(
            b"ideal-threshold" + seed.to_bytes(8, "big")).digest()
        self._share_keys = {
            j: hashlib.sha256(self._master + j.to_bytes(4, "big")).digest()
            for j in range(1, n + 1)
        }

    def private_share(self, j: int) -> bytes:
        if j not in self._share_keys:
            raise DealingError(f"no share dealt to server {j}")
        return self._share_keys[j]

    def _mac(self, key: bytes, message: Any) -> bytes:
        return hashlib.sha256(key + encode(message)).digest()

    def sign(self, message: Any, j: int) -> SignatureShare:
        key = self.private_share(j)
        return SignatureShare(signer=j, value=self._mac(key, message),
                              proof=())

    def verify_share(self, message: Any, share: SignatureShare) -> bool:
        if not 1 <= share.signer <= self.n:
            return False
        expected = self._mac(self._share_keys[share.signer], message)
        return share.value == expected

    def combine(self, message: Any,
                shares: Iterable[SignatureShare]) -> ThresholdSignature:
        self._check_quorum(message, shares)
        return ThresholdSignature(
            value=self._mac(self._master + b"sig", message))

    def verify(self, message: Any, signature: ThresholdSignature) -> bool:
        if not isinstance(signature, ThresholdSignature):
            return False
        return signature.value == self._mac(self._master + b"sig", message)


def make_scheme(backend: str, n: int, t: int,
                rng: Optional[random.Random] = None,
                prime_bits: int = 256) -> ThresholdScheme:
    """Factory: build a threshold scheme by backend name.

    ``backend`` is ``"ideal"`` (default for simulations) or ``"shoup"``.
    """
    if backend == "ideal":
        seed = rng.getrandbits(62) if rng is not None else 0x5406
        return IdealThresholdScheme(n, t, seed=seed)
    if backend == "shoup":
        return ShoupThresholdScheme(
            n, t, modulus=precomputed_modulus(prime_bits), rng=rng)
    raise ConfigurationError(f"unknown threshold backend {backend!r}")
