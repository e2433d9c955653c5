"""Vectorized ChaCha20 keystream for the record layer's lookahead window.

:func:`chacha20_keystream_multi` generates blocks for *several nonces*
of one key in one pass, holding the 16-word ChaCha state as a
``(16, total_blocks)`` uint32 matrix and running the 20 rounds across
all columns at once.  Per-record numpy dispatch overhead dominates at
TLS record sizes (256 blocks ≈ 16 KiB), so ``tls/record.py`` batches
the keystream for the next R records into one call, exploiting the
deterministic ``iv XOR sequence`` nonce schedule.  Output is
bit-identical to ``repro.crypto.chacha20.chacha20_block`` (asserted by
tests).

The quarter-round works in place with one shared scratch row: rotations
are two shifts and an OR into preallocated storage, so the 20 rounds
allocate nothing beyond the state matrix itself.
"""

from __future__ import annotations

import struct
from typing import Sequence

import numpy as np

_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)


def _rotl_inplace(x: "np.ndarray", count: int, scratch: "np.ndarray") -> None:
    np.right_shift(x, np.uint32(32 - count), out=scratch)
    np.left_shift(x, np.uint32(count), out=x)
    np.bitwise_or(x, scratch, out=x)


def _quarter_round(
    state: "np.ndarray", a: int, b: int, c: int, d: int, scratch: "np.ndarray"
) -> None:
    sa, sb, sc, sd = state[a], state[b], state[c], state[d]
    np.add(sa, sb, out=sa)
    np.bitwise_xor(sd, sa, out=sd)
    _rotl_inplace(sd, 16, scratch)
    np.add(sc, sd, out=sc)
    np.bitwise_xor(sb, sc, out=sb)
    _rotl_inplace(sb, 12, scratch)
    np.add(sa, sb, out=sa)
    np.bitwise_xor(sd, sa, out=sd)
    _rotl_inplace(sd, 8, scratch)
    np.add(sc, sd, out=sc)
    np.bitwise_xor(sb, sc, out=sb)
    _rotl_inplace(sb, 7, scratch)


def _run_rounds(initial: "np.ndarray") -> bytes:
    state = initial.copy()
    scratch = np.empty(initial.shape[1], dtype=np.uint32)
    with np.errstate(over="ignore"):
        for _ in range(10):
            _quarter_round(state, 0, 4, 8, 12, scratch)
            _quarter_round(state, 1, 5, 9, 13, scratch)
            _quarter_round(state, 2, 6, 10, 14, scratch)
            _quarter_round(state, 3, 7, 11, 15, scratch)
            _quarter_round(state, 0, 5, 10, 15, scratch)
            _quarter_round(state, 1, 6, 11, 12, scratch)
            _quarter_round(state, 2, 7, 8, 13, scratch)
            _quarter_round(state, 3, 4, 9, 14, scratch)
        state += initial
    # Column-major per block: transpose so each row is one block's 16 words.
    return state.T.astype("<u4").tobytes()


def _base_state(key: bytes, n_columns: int) -> "np.ndarray":
    key_words = struct.unpack("<8I", key)
    initial = np.empty((16, n_columns), dtype=np.uint32)
    for i, word in enumerate(_CONSTANTS):
        initial[i] = word
    for i, word in enumerate(key_words):
        initial[4 + i] = word
    return initial


def chacha20_keystream_multi(
    key: bytes, nonces: Sequence[bytes], counter: int, blocks_per_nonce: int
) -> bytes:
    """Keystream blocks ``counter .. counter+blocks_per_nonce-1`` for every
    nonce, concatenated nonce-major, from a single vectorized pass.

    ``result[i*blocks_per_nonce*64 : (i+1)*blocks_per_nonce*64]`` is the
    ``chacha20_block`` outputs for ``nonces[i]`` at those counters.
    """
    if blocks_per_nonce <= 0 or not nonces:
        return b""
    n_nonces = len(nonces)
    total = n_nonces * blocks_per_nonce
    initial = _base_state(key, total)
    # ChaCha20's block counter wraps at 2^32 by construction.
    counters = (np.arange(counter, counter + blocks_per_nonce, dtype=np.uint64)
                & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    initial[12] = np.tile(counters, n_nonces)
    nonce_words = np.array(
        [struct.unpack("<3I", nonce) for nonce in nonces], dtype=np.uint32
    )
    for i in range(3):
        initial[13 + i] = np.repeat(nonce_words[:, i], blocks_per_nonce)
    return _run_rounds(initial)


def xor_keystream(data, keystream) -> bytes:
    """XOR ``data`` with ``keystream`` (bytes-like, at least as long)."""
    plain = np.frombuffer(data, dtype=np.uint8)
    ks = np.frombuffer(keystream, dtype=np.uint8)[: len(plain)]
    return (plain ^ ks).tobytes()
