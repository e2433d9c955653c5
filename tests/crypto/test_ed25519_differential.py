"""Ed25519 against an implementation that shares nothing with ours:
OpenSSL, through ``cryptography``.  Same keys, same signature bytes
(RFC 8032 signing is deterministic), same verdicts -- through the cold
path (the key's table is built) and the warm one (it is found).

The one place the two disagree is listed in ``_NON_CANONICAL_KEYS``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytest.importorskip("cryptography")

from cryptography.exceptions import InvalidSignature  # noqa: E402
from cryptography.hazmat.primitives.asymmetric.ed25519 import (  # noqa: E402
    Ed25519PrivateKey as OpenSslPrivateKey,
    Ed25519PublicKey as OpenSslPublicKey,
)

from repro.crypto import ed25519 as _ed  # noqa: E402
from repro.crypto.ed25519 import (  # noqa: E402
    Ed25519PrivateKey,
    ed25519_sign,
    ed25519_verify,
)
from tests.crypto.test_ed25519 import (  # noqa: E402
    _SMALL_ORDER,
    _cold_then_warm,
    _flip,
)

_P = 2**255 - 19
_L = 2**252 + 27742317777372353535851937790883648493
_SIGN = 1 << 255


def _theirs(public: bytes, message: bytes, signature: bytes) -> bool:
    try:
        OpenSslPublicKey.from_public_bytes(public).verify(signature, message)
    except InvalidSignature:
        return False
    return True


def _ours(public: bytes, message: bytes, signature: bytes) -> bool:
    cold, warm = _cold_then_warm(public, message, signature)
    assert cold is warm
    return cold


_SEEDS = st.binary(min_size=32, max_size=32)
_MESSAGES = st.binary(max_size=300)


@settings(max_examples=25, deadline=None)
@given(seed=_SEEDS, message=_MESSAGES)
def test_same_seed_same_key_same_signature_bytes(seed, message):
    theirs = OpenSslPrivateKey.from_private_bytes(seed)
    ours = Ed25519PrivateKey(seed)
    assert ours.public_bytes == theirs.public_key().public_bytes_raw()
    signature = theirs.sign(message)
    assert ours.sign(message) == signature
    assert ed25519_sign(seed, message) == signature


@settings(max_examples=25, deadline=None)
@given(
    seed=_SEEDS,
    other_seed=_SEEDS,
    message=_MESSAGES,
    signature_bit=st.integers(0, 64 * 8 - 1),
    key_bit=st.integers(0, 32 * 8 - 1),
    data=st.data(),
)
def test_verdicts_agree(seed, other_seed, message, signature_bit, key_bit, data):
    public = Ed25519PrivateKey(seed).public_bytes
    # Each side verifies what the *other* one signed.
    signature = OpenSslPrivateKey.from_private_bytes(seed).sign(message)
    assert _ours(public, message, signature)
    assert _theirs(public, message, ed25519_sign(seed, message))

    message_bit = data.draw(st.integers(0, max(len(message) * 8 - 1, 0)))
    s_plus_l = int.from_bytes(signature[32:], "little") + _L
    rejected = {
        "signature bit": (public, message, _flip(signature, signature_bit)),
        "message bit": (public, _flip(message or b"\x00", message_bit), signature),
        "key bit": (_flip(public, key_bit), message, signature),
        "wrong key": (Ed25519PrivateKey(other_seed).public_bytes, message, signature),
        "truncated": (public, message, signature[:63]),
        # Same s modulo L, so the equation holds: only the range check fails.
        "S + L": (public, message, signature[:32] + s_plus_l.to_bytes(32, "little")),
    }
    if other_seed == seed:
        del rejected["wrong key"]
    for name, case in rejected.items():
        assert _ours(*case) is _theirs(*case) is False, name


# ----------------------------------------------------------------------
# Small-order A and R
# ----------------------------------------------------------------------

#: **Where we differ from OpenSSL, all of it.**  Encodings RFC 8032
#: section 5.1.3 says fail to decode -- ``y`` not reduced below ``p``, or
#: ``x = 0`` with the sign bit set -- each an alias of a small-order
#: point.  As a public key OpenSSL reduces them and may accept (measured
#: on OpenSSL 3.0: every key below, with ``R`` of matching order and
#: ``s = 0``); we reject, always.  In ``R``'s place both reject: OpenSSL
#: compares the encoding it computes with the bytes it was given.
_NON_CANONICAL_KEYS = [
    value.to_bytes(32, "little")
    for value in (
        1 | _SIGN,  # (0, 1), sign set
        (_P - 1) | _SIGN,  # (0, -1), sign set
        _P,  # y = p, aliases y = 0
        _P | _SIGN,
        _P + 1,  # y = p + 1, aliases (0, 1)
        (_P + 1) | _SIGN,
    )
]


def test_small_order_verdicts_agree_except_on_non_canonical_keys():
    """``s = 0`` and small-order ``A`` and ``R``: the equation reduces to
    ``R + h*A = identity``, true for the messages whose challenge has the
    right residue, so each pair is both accepted and rejected below."""
    encodings = _SMALL_ORDER + _NON_CANONICAL_KEYS  # the eight canonical ones first
    messages = [bytes([i]) for i in range(12)]
    accepted = 0
    for public in encodings:
        _ed._key_powers.cache_clear()  # first verdict under each key is cold
        for r_bytes in encodings:
            for message in messages:
                signature = r_bytes + bytes(32)
                ours = ed25519_verify(public, message, signature)
                if public in _NON_CANONICAL_KEYS:
                    assert not ours  # OpenSSL 3.0 accepts 71 of these 1008
                else:
                    assert ours is _theirs(public, message, signature)
                    accepted += ours
    assert accepted  # the agreement is not "everything is rejected"
