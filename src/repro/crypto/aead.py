"""ChaCha20-Poly1305 AEAD construction (RFC 8439 section 2.8).

This is the single cipher suite the TLS stack uses
(``TLS_CHACHA20_POLY1305_SHA256``).  Decryption failures raise
``CryptoError`` — TCPLS counts those as forgery attempts when doing
trial decryption across per-stream contexts (paper section 2.3).

The Poly1305 one-time key and the payload keystream come out of one
pass over blocks 0..n, the lane-packed one (Python big ints,
``chacha20.chacha20_keystream_lanes``) or, where ``numpy_pays`` (from 60
blocks for one record), the numpy one (``chacha20_fast``); every tag is
``poly1305_fast.poly1305_mac_fast``'s.  ``seal_with_keystream`` /
``open_with_keystream`` take keystream the record layer made for several
records at once, by the window rule in ``repro.tls.record``: slots of a
fresh-key or run window, or a failed trial's kept pass.  The tag is
checked from the slot's block 0 before any payload keystream is read or
made.  The RFC 8439 functions in ``chacha20`` and ``poly1305`` are the
references the tests hold all this to, with OpenSSL.
"""

from __future__ import annotations

import struct

from repro.crypto.chacha20 import chacha20_keystream_lanes
from repro.crypto.chacha20_fast import chacha20_keystream_multi, xor_keystream
from repro.crypto.poly1305 import constant_time_equal
from repro.crypto.poly1305_fast import poly1305_mac_fast
from repro.utils.errors import CryptoError

TAG_LENGTH = 16
KEY_LENGTH = 32
NONCE_LENGTH = 12


def lane_pass_us(blocks: int) -> float:
    """Microseconds of one lane-packed pass over ``blocks`` keystream
    blocks, on a 2-core Xeon VM, CPython 3.11, numpy 2.4
    (``benchmarks/test_crypto_micro.py`` reports the rows it is fitted to)."""
    return 25 + 3 * blocks


def numpy_pass_us(records: int, blocks: int) -> float:
    """Microseconds of one numpy pass over ``records`` nonces of ``blocks``
    blocks each, on the same host as ``lane_pass_us``."""
    return 185 + 0.3 * records * blocks


def numpy_pays(nonces: int, blocks: int) -> bool:
    """Whether a numpy pass over ``nonces`` x ``blocks`` blocks costs less
    than a lane pass over them (for one nonce, from 60 blocks on)."""
    return numpy_pass_us(nonces, blocks) < lane_pass_us(nonces * blocks)


def keystream_pass(key: bytes, counter: int, nonce: bytes, n_blocks: int) -> bytes:
    """Blocks ``counter .. counter+n_blocks-1`` of one nonce from the
    cheaper pass."""
    if numpy_pays(1, n_blocks):
        return chacha20_keystream_multi(key, [nonce], counter, n_blocks)
    return chacha20_keystream_lanes(key, counter, nonce, n_blocks)


def _pad16(data: bytes) -> bytes:
    if len(data) % 16 == 0:
        return b""
    return b"\x00" * (16 - len(data) % 16)


def _auth_input(aad: bytes, ciphertext: bytes) -> bytes:
    return b"".join(
        (
            aad,
            _pad16(aad),
            ciphertext,
            _pad16(ciphertext),
            struct.pack("<QQ", len(aad), len(ciphertext)),
        )
    )


def seal_with_keystream(keystream, plaintext: bytes, aad: bytes = b"") -> bytes:
    """Encrypt + tag using externally supplied keystream bytes.

    ``keystream`` must hold at least ``64 + len(plaintext)`` bytes of the
    ChaCha20 stream for this record's nonce starting at block 0 (block 0
    yields the Poly1305 one-time key, blocks 1.. the payload stream).
    Output is bit-identical to ``ChaCha20Poly1305.encrypt``.
    """
    otk = bytes(keystream[:32])
    ciphertext = xor_keystream(plaintext, keystream[64 : 64 + len(plaintext)])
    tag = poly1305_mac_fast(otk, _auth_input(aad, ciphertext))
    return ciphertext + tag


def open_with_keystream(
    keystream, data: bytes, aad: bytes = b"", *, key=None, nonce=None
) -> bytes:
    """Verify + decrypt using externally supplied keystream bytes.

    The tag is checked from block 0 before any payload keystream is read
    or made; ``key`` and ``nonce`` make the payload blocks ``keystream``
    lacks, in one pass, so a record that fails costs one MAC.
    """
    if len(data) < TAG_LENGTH:
        raise CryptoError("ciphertext shorter than the AEAD tag")
    ciphertext, tag = data[:-TAG_LENGTH], data[-TAG_LENGTH:]
    otk = bytes(keystream[:32])
    expected = poly1305_mac_fast(otk, _auth_input(aad, ciphertext))
    if not constant_time_equal(tag, expected):
        raise CryptoError("AEAD tag verification failed")
    have, needed = len(keystream) // 64, 1 + (len(ciphertext) + 63) // 64
    if have < needed:
        tail = keystream_pass(key, have, nonce, needed - have)
        keystream = bytes(keystream[: 64 * have]) + tail
    return xor_keystream(ciphertext, keystream[64 : 64 + len(ciphertext)])


class ChaCha20Poly1305:
    """AEAD cipher object bound to one 32-byte key."""

    key_length = KEY_LENGTH
    nonce_length = NONCE_LENGTH

    def __init__(self, key: bytes) -> None:
        if len(key) != KEY_LENGTH:
            raise ValueError("ChaCha20-Poly1305 key must be 32 bytes")
        self._key = bytes(key)

    def encrypt(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Return ciphertext || 16-byte tag."""
        if len(nonce) != NONCE_LENGTH:
            raise ValueError("nonce must be 12 bytes")
        # Blocks 0..n in one pass: OTK + payload stream.
        n_blocks = 1 + (len(plaintext) + 63) // 64
        return seal_with_keystream(keystream_pass(self._key, 0, nonce, n_blocks), plaintext, aad)

    def decrypt(self, nonce: bytes, data: bytes, aad: bytes = b"") -> bytes:
        """Verify the tag and return the plaintext, or raise ``CryptoError``."""
        if len(nonce) != NONCE_LENGTH:
            raise ValueError("nonce must be 12 bytes")
        if len(data) < TAG_LENGTH:
            raise CryptoError("ciphertext shorter than the AEAD tag")
        n_blocks = 1 + (len(data) - TAG_LENGTH + 63) // 64
        return open_with_keystream(keystream_pass(self._key, 0, nonce, n_blocks), data, aad)
