"""Threshold signatures: both backends against the paper's API contract."""

import random

import pytest

from repro.common.errors import (
    ConfigurationError,
    DealingError,
    InvalidShare,
)
from repro.common.serialization import decode, encode
from repro.crypto.rsa import precomputed_modulus
from repro.crypto.threshold import (
    IdealThresholdScheme,
    ShoupThresholdScheme,
    SignatureShare,
    ThresholdSignature,
    make_scheme,
)
from tests.safe_primes import generate_modulus

BACKENDS = [
    lambda n, t: IdealThresholdScheme(n, t, seed=7),
    lambda n, t: ShoupThresholdScheme(
        n, t, modulus=precomputed_modulus(128), rng=random.Random(7)),
]
BACKEND_IDS = ["ideal", "shoup"]


@pytest.fixture(params=BACKENDS, ids=BACKEND_IDS)
def scheme(request):
    return request.param(4, 1)


def test_all_shares_valid(scheme):
    message = ("reg", 3)
    for j in range(1, 5):
        share = scheme.sign(message, j)
        assert share.signer == j
        assert scheme.verify_share(message, share)


def test_combine_and_verify(scheme):
    message = ("reg", 3)
    shares = [scheme.sign(message, j) for j in (2, 4)]
    signature = scheme.combine(message, shares)
    assert scheme.verify(message, signature)


def test_signature_bound_to_message(scheme):
    message = ("reg", 3)
    shares = [scheme.sign(message, j) for j in (1, 2)]
    signature = scheme.combine(message, shares)
    assert not scheme.verify(("reg", 4), signature)
    assert not scheme.verify(("other", 3), signature)


def test_share_bound_to_message(scheme):
    share = scheme.sign(("reg", 3), 1)
    assert not scheme.verify_share(("reg", 4), share)


def test_share_bound_to_signer(scheme):
    share = scheme.sign(("reg", 3), 1)
    stolen = SignatureShare(signer=2, value=share.value, proof=share.proof)
    assert not scheme.verify_share(("reg", 3), stolen)


def test_combine_needs_t_plus_one_distinct(scheme):
    message = ("reg", 3)
    share = scheme.sign(message, 1)
    with pytest.raises(InvalidShare):
        scheme.combine(message, [share, share])  # same signer twice


def test_combine_rejects_too_few(scheme):
    with pytest.raises(InvalidShare):
        scheme.combine(("reg", 3), [])


def test_combine_skips_invalid_shares_robustness(scheme):
    """Robustness: invalid shares never poison combination."""
    message = ("reg", 3)
    good = [scheme.sign(message, j) for j in (1, 3)]
    bad = SignatureShare(signer=2, value=b"\x00" * 8, proof=())
    signature = scheme.combine(message, [bad] + good)
    assert scheme.verify(message, signature)


def test_combine_with_extra_shares(scheme):
    message = ("reg", 9)
    shares = [scheme.sign(message, j) for j in (1, 2, 3, 4)]
    assert scheme.verify(message, scheme.combine(message, shares))


def test_garbage_signature_rejected(scheme):
    assert not scheme.verify(("reg", 3), ThresholdSignature(value=b"junk"))
    assert not scheme.verify(("reg", 3), "not-a-signature")


def test_out_of_range_signer_share_rejected(scheme):
    share = scheme.sign(("reg", 1), 1)
    bogus = SignatureShare(signer=99, value=share.value, proof=share.proof)
    assert not scheme.verify_share(("reg", 1), bogus)


def test_private_share_unknown_server(scheme):
    with pytest.raises(DealingError):
        scheme.private_share(11)


def test_shares_are_wire_serializable(scheme):
    share = scheme.sign(("reg", 5), 2)
    assert decode(encode(share)) == share
    signature = scheme.combine(
        ("reg", 5), [scheme.sign(("reg", 5), j) for j in (1, 2)])
    assert decode(encode(signature)) == signature


def test_messages_of_any_serializable_shape(scheme):
    message = {"tag": "reg", "ts": 12, "extra": [b"x", None]}
    shares = [scheme.sign(message, j) for j in (1, 4)]
    assert scheme.verify(message, scheme.combine(message, shares))


# -- parameter validation -----------------------------------------------------

def test_invalid_thresholds_rejected():
    with pytest.raises(ConfigurationError):
        IdealThresholdScheme(4, 4)
    with pytest.raises(ConfigurationError):
        IdealThresholdScheme(0, 0)
    with pytest.raises(ConfigurationError):
        IdealThresholdScheme(4, -1)


def test_make_scheme_factory():
    assert isinstance(make_scheme("ideal", 4, 1), IdealThresholdScheme)
    assert isinstance(make_scheme("shoup", 4, 1, prime_bits=128),
                      ShoupThresholdScheme)
    with pytest.raises(ConfigurationError):
        make_scheme("quantum", 4, 1)


# -- Shoup-specific behaviour ---------------------------------------------------

def test_shoup_larger_group():
    scheme = ShoupThresholdScheme(7, 2,
                                  modulus=precomputed_modulus(128),
                                  rng=random.Random(1))
    message = ("reg", 100)
    shares = [scheme.sign(message, j) for j in (7, 3, 5)]
    assert scheme.verify(message, scheme.combine(message, shares))


def test_shoup_different_subsets_same_validity():
    scheme = ShoupThresholdScheme(5, 1,
                                  modulus=precomputed_modulus(128),
                                  rng=random.Random(3))
    message = ("reg", 8)
    sig_a = scheme.combine(message,
                           [scheme.sign(message, j) for j in (1, 2)])
    sig_b = scheme.combine(message,
                           [scheme.sign(message, j) for j in (4, 5)])
    assert scheme.verify(message, sig_a)
    assert scheme.verify(message, sig_b)


def test_shoup_fresh_modulus():
    modulus = generate_modulus(64, random.Random(5))
    scheme = ShoupThresholdScheme(4, 1, modulus=modulus,
                                  rng=random.Random(5))
    message = ("reg", 1)
    shares = [scheme.sign(message, j) for j in (2, 3)]
    assert scheme.verify(message, scheme.combine(message, shares))


def test_shoup_tampered_proof_rejected():
    scheme = ShoupThresholdScheme(4, 1,
                                  modulus=precomputed_modulus(128),
                                  rng=random.Random(9))
    message = ("reg", 2)
    share = scheme.sign(message, 1)
    tampered = SignatureShare(signer=1, value=share.value,
                              proof=(share.proof[0], b"\x01" + share.proof[1]))
    assert not scheme.verify_share(message, tampered)


def test_shoup_tampered_value_rejected():
    scheme = ShoupThresholdScheme(4, 1,
                                  modulus=precomputed_modulus(128),
                                  rng=random.Random(9))
    message = ("reg", 2)
    share = scheme.sign(message, 1)
    tampered = SignatureShare(signer=1, value=b"\x01" + share.value,
                              proof=share.proof)
    assert not scheme.verify_share(message, tampered)


def test_shoup_group_size_limit():
    with pytest.raises(ConfigurationError):
        ShoupThresholdScheme(70000, 1)


# -- ideal-backend modeling --------------------------------------------------------

def test_ideal_different_seeds_independent():
    a = IdealThresholdScheme(4, 1, seed=1)
    b = IdealThresholdScheme(4, 1, seed=2)
    message = ("reg", 1)
    share = a.sign(message, 1)
    assert not b.verify_share(message, share)


def test_ideal_nonforgeability_without_quorum():
    """t corrupted servers (their shares) cannot yield a verifying value:
    the only way to a valid ThresholdSignature object is combine() with
    t+1 valid shares."""
    scheme = IdealThresholdScheme(4, 2, seed=3)
    message = ("reg", 77)
    corrupted = [scheme.sign(message, j) for j in (1, 2)]  # t = 2 shares
    with pytest.raises(InvalidShare):
        scheme.combine(message, corrupted)
    for share in corrupted:
        assert not scheme.verify(message,
                                 ThresholdSignature(value=share.value))
