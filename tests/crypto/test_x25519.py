"""RFC 7748 test vectors for X25519, the low-order inputs, and the
fixed-base public key against the Montgomery ladder."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.x25519 import X25519PrivateKey, x25519, x25519_base

_P = 2**255 - 19
_NINE = (9).to_bytes(32, "little")

#: The u-coordinates of the points of order 1, 2, 4 and 8 on Curve25519
#: and its twist, plus their non-canonical aliases below 2^255: every
#: clamped scalar sends each of them to the all-zero output.
LOW_ORDER_U = (
    0,
    1,
    325606250916557431795983626356110631294008115727848805560023387167927233504,
    39382357235489614581723060781553021112529911719440698176882885853963445705823,
    _P - 1,
    _P,
    _P + 1,
)


def test_rfc7748_vector_1():
    scalar = bytes.fromhex(
        "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4"
    )
    u = bytes.fromhex(
        "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c"
    )
    assert x25519(scalar, u) == bytes.fromhex(
        "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"
    )


def test_rfc7748_vector_2():
    scalar = bytes.fromhex(
        "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d"
    )
    u = bytes.fromhex(
        "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493"
    )
    assert x25519(scalar, u) == bytes.fromhex(
        "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957"
    )


def test_rfc7748_dh_alice_bob():
    alice_priv = bytes.fromhex(
        "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a"
    )
    bob_priv = bytes.fromhex(
        "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb"
    )
    alice_pub = x25519_base(alice_priv)
    bob_pub = x25519_base(bob_priv)
    assert alice_pub == bytes.fromhex(
        "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"
    )
    assert bob_pub == bytes.fromhex(
        "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"
    )
    shared = bytes.fromhex(
        "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"
    )
    assert x25519(alice_priv, bob_pub) == shared
    assert x25519(bob_priv, alice_pub) == shared


def test_private_key_wrapper_agreement():
    a = X25519PrivateKey(b"\x11" * 32)
    b = X25519PrivateKey(b"\x22" * 32)
    assert a.exchange(b.public_bytes) == b.exchange(a.public_bytes)


def test_iterated_ladder_1000():
    # RFC 7748 section 5.2 iteration test (1 and 1000 iterations).
    k = (9).to_bytes(32, "little")
    u = (9).to_bytes(32, "little")
    k, u = x25519(k, u), k
    assert k == bytes.fromhex(
        "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079"
    )
    for _ in range(999):
        k, u = x25519(k, u), k
    assert k == bytes.fromhex(
        "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51"
    )


# ----------------------------------------------------------------------
# Low-order inputs (RFC 7748 section 6.1)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("u", LOW_ORDER_U)
def test_low_order_u_gives_all_zero_output(u):
    """The ladder ends at the point at infinity (``z2 == 0``) and RFC
    7748's ``x2 * z2^(p-2)`` makes that 0; pinned so that a cheaper
    inverse cannot turn it into an exception."""
    u_bytes = u.to_bytes(32, "little")
    for scalar in (b"\x11" * 32, bytes(range(32)), b"\xff" * 32):
        assert x25519(scalar, u_bytes) == bytes(32)
    with pytest.raises(ValueError):
        X25519PrivateKey(b"\x11" * 32).exchange(u_bytes)


# ----------------------------------------------------------------------
# x25519_base (fixed-base table + Edwards map) against the ladder
# ----------------------------------------------------------------------

def test_base_matches_ladder_on_the_edges():
    smallest_clamped = (1 << 254).to_bytes(32, "little")
    largest_clamped = ((1 << 255) - 8).to_bytes(32, "little")
    for scalar in (bytes(32), b"\xff" * 32, smallest_clamped, largest_clamped):
        assert x25519_base(scalar) == x25519(scalar, _NINE)


@settings(max_examples=200, deadline=None)
@given(scalar=st.binary(min_size=32, max_size=32))
def test_base_matches_ladder_property(scalar):
    assert x25519_base(scalar) == x25519(scalar, _NINE)
