"""Poly1305 one-time authenticator (RFC 8439 section 2.5).

``poly1305_mac`` is the RFC's block-at-a-time loop, kept only as the
reference the tests hold ``repro.crypto.poly1305_fast`` to, bit-for-bit;
nothing calls it at run time.
"""

from __future__ import annotations

import hmac

from repro.crypto.chacha20 import chacha20_block

_P = (1 << 130) - 5
_R_CLAMP = 0x0FFFFFFC0FFFFFFC0FFFFFFC0FFFFFFF


def poly1305_mac(key: bytes, message: bytes) -> bytes:
    """Compute the 16-byte Poly1305 tag of ``message`` under a 32-byte key.

    The plain block-by-block reference the tests hold
    ``poly1305_fast.poly1305_mac_fast`` to; nothing at run time calls it.
    """
    if len(key) != 32:
        raise ValueError("Poly1305 key must be 32 bytes")
    r = int.from_bytes(key[:16], "little") & _R_CLAMP
    s = int.from_bytes(key[16:], "little")
    accumulator = 0
    for start in range(0, len(message), 16):
        chunk = message[start : start + 16]
        # Each block gets a high bit appended (the 0x01 byte past the end).
        block = int.from_bytes(chunk + b"\x01", "little")
        accumulator = ((accumulator + block) * r) % _P
    accumulator = (accumulator + s) & ((1 << 128) - 1)
    return accumulator.to_bytes(16, "little")


def poly1305_key_gen(key: bytes, nonce: bytes) -> bytes:
    """Derive the per-message Poly1305 key from ChaCha20 block 0 (RFC 8439 2.6)."""
    return chacha20_block(key, 0, nonce)[:32]


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Compare two byte strings without early exit on mismatch.

    Delegates to ``hmac.compare_digest`` (constant-time in C) instead of
    the original per-byte Python loop; that loop survives only as a
    documented reference in ``tests/crypto/test_fastpath_crypto.py``.
    """
    if len(a) != len(b):
        return False
    return hmac.compare_digest(a, b)
