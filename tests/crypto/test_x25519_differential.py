"""X25519 against an implementation that shares nothing with ours:
OpenSSL, through ``cryptography``.  Random scalars against u values of
four kinds -- random, top bit set (masked per RFC 7748 section 5),
non-canonical in ``[p, 2**255)`` and the low-order points -- through the
Montgomery ladder, and every public key through the fixed-base table.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytest.importorskip("cryptography")

from cryptography.hazmat.primitives.asymmetric.x25519 import (  # noqa: E402
    X25519PrivateKey as OpenSslPrivateKey,
    X25519PublicKey as OpenSslPublicKey,
)

from repro.crypto.x25519 import X25519PrivateKey, x25519, x25519_base  # noqa: E402
from tests.crypto.test_x25519 import LOW_ORDER_U  # noqa: E402

_P = 2**255 - 19
_TOP = 1 << 255

_SCALARS = st.binary(min_size=32, max_size=32)
_U = st.one_of(
    st.integers(0, _P - 1),
    st.integers(0, _P - 1).map(lambda u: u | _TOP),
    st.integers(_P, _TOP - 1),
    st.sampled_from(LOW_ORDER_U),
).map(lambda u: u.to_bytes(32, "little"))


def _theirs(scalar: bytes, u: bytes):
    """OpenSSL's shared secret, or ``None`` where it refuses an all-zero one."""
    private = OpenSslPrivateKey.from_private_bytes(scalar)
    try:
        return private.exchange(OpenSslPublicKey.from_public_bytes(u))
    except ValueError:
        return None


@settings(max_examples=300, deadline=None)
@given(scalar=_SCALARS, u=_U)
def test_ladder_agrees_with_openssl(scalar, u):
    theirs = _theirs(scalar, u)
    if theirs is None:
        assert x25519(scalar, u) == bytes(32)
        with pytest.raises(ValueError):
            X25519PrivateKey(scalar).exchange(u)
    else:
        assert x25519(scalar, u) == theirs
        assert X25519PrivateKey(scalar).exchange(u) == theirs


@pytest.mark.parametrize("u", LOW_ORDER_U)
def test_every_low_order_u_is_refused_by_both(u):
    scalar = bytes(range(32))
    assert _theirs(scalar, u.to_bytes(32, "little")) is None
    assert x25519(scalar, u.to_bytes(32, "little")) == bytes(32)


@settings(max_examples=200, deadline=None)
@given(scalar=_SCALARS)
def test_base_agrees_with_openssl(scalar):
    theirs = OpenSslPrivateKey.from_private_bytes(scalar).public_key().public_bytes_raw()
    assert x25519_base(scalar) == theirs
    assert X25519PrivateKey(scalar).public_bytes == theirs


def test_base_agrees_with_openssl_on_the_clamping_edges():
    for scalar in (bytes(32), b"\xff" * 32, (1 << 254).to_bytes(32, "little"),
                   ((1 << 255) - 8).to_bytes(32, "little")):
        theirs = OpenSslPrivateKey.from_private_bytes(scalar).public_key()
        assert x25519_base(scalar) == theirs.public_bytes_raw()
