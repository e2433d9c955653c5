"""The readable specifications the run-time code is held to.

Nothing in ``src/`` calls these; the tests (and the crypto
microbenchmarks) compare the fast paths against them on fixed vectors
and randomized inputs:

- RFC 1071's word-loop checksum, for ``repro.tcp.segment``'s folded
  ``internet_checksum``;
- RFC 8439's ChaCha20 block function and counter-mode cipher, for the
  lane-packed (``repro.crypto.chacha20``) and numpy
  (``repro.crypto.chacha20_fast``) keystreams;
- RFC 8439's block-at-a-time Poly1305 and its one-time key generation,
  for ``repro.crypto.poly1305_fast``.
"""

import struct

_MASK32 = 0xFFFFFFFF
# "expand 32-byte k" as four little-endian words (RFC 8439 section 2.3).
_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)


def internet_checksum_reference(data: bytes) -> int:
    """RFC 1071 ones-complement checksum in its word-loop form.

    The executable specification for ``repro.tcp.segment``'s
    ``internet_checksum``; the randomized tests assert the two agree on
    every input (including the ``sum ≡ 0 (mod 0xFFFF)`` folding edge
    case).
    """
    data = bytes(data)
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack(f"!{len(data) // 2}H", data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def _rotl32(value: int, count: int) -> int:
    value &= _MASK32
    return ((value << count) | (value >> (32 - count))) & _MASK32


def _quarter_round(state: list, a: int, b: int, c: int, d: int) -> None:
    state[a] = (state[a] + state[b]) & _MASK32
    state[d] = _rotl32(state[d] ^ state[a], 16)
    state[c] = (state[c] + state[d]) & _MASK32
    state[b] = _rotl32(state[b] ^ state[c], 12)
    state[a] = (state[a] + state[b]) & _MASK32
    state[d] = _rotl32(state[d] ^ state[a], 8)
    state[c] = (state[c] + state[d]) & _MASK32
    state[b] = _rotl32(state[b] ^ state[c], 7)


def chacha20_block(key: bytes, counter: int, nonce: bytes) -> bytes:
    """Produce one 64-byte keystream block (RFC 8439 section 2.3)."""
    if len(key) != 32:
        raise ValueError("ChaCha20 key must be 32 bytes")
    if len(nonce) != 12:
        raise ValueError("ChaCha20 nonce must be 12 bytes")
    initial = list(_CONSTANTS)
    initial.extend(struct.unpack("<8I", key))
    initial.append(counter & _MASK32)
    initial.extend(struct.unpack("<3I", nonce))

    state = list(initial)
    for _ in range(10):
        _quarter_round(state, 0, 4, 8, 12)
        _quarter_round(state, 1, 5, 9, 13)
        _quarter_round(state, 2, 6, 10, 14)
        _quarter_round(state, 3, 7, 11, 15)
        _quarter_round(state, 0, 5, 10, 15)
        _quarter_round(state, 1, 6, 11, 12)
        _quarter_round(state, 2, 7, 8, 13)
        _quarter_round(state, 3, 4, 9, 14)

    out = [(s + i) & _MASK32 for s, i in zip(state, initial)]
    return struct.pack("<16I", *out)


def chacha20_encrypt(key: bytes, counter: int, nonce: bytes, plaintext: bytes) -> bytes:
    """Encrypt (or decrypt) ``plaintext`` in counter mode (RFC 8439 2.4):
    the plain block-by-block reference the tests hold the lane-packed and
    numpy keystreams to."""
    n_blocks = (len(plaintext) + 63) // 64
    stream = b"".join(chacha20_block(key, counter + i, nonce) for i in range(n_blocks))
    return bytes(byte ^ key_byte for byte, key_byte in zip(plaintext, stream))


_P = (1 << 130) - 5
_R_CLAMP = 0x0FFFFFFC0FFFFFFC0FFFFFFC0FFFFFFF


def poly1305_mac(key: bytes, message: bytes) -> bytes:
    """Compute the 16-byte Poly1305 tag of ``message`` under a 32-byte key.

    The plain block-by-block reference the tests hold
    ``poly1305_fast.poly1305_mac_fast`` to.
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
