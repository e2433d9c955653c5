"""Vectorized ChaCha20 keystream for the record layer's keystream windows.

:func:`chacha20_keystream_multi` generates blocks for *several nonces*
of one key in one pass.  The state is a ``(16, N)`` uint32 matrix, one
column per block, whose rows a/b/c/d of the 4x4 ChaCha matrix (words
0-3, 4-7, 8-11, 12-15) are ``(4, N)`` arrays: a quarter-round on whole
rows is the column round of every block, and the diagonal round is the
same after rotating rows b/c/d up by 1/2/3 words (undone after it).  A
pass is ~460 numpy calls whatever ``N`` is, ~0.18 ms of dispatch, which
``tls/record.py`` spreads over the next records of one key (the nonce
schedule ``iv XOR sequence`` is deterministic).  Output is bit-identical
to the RFC 8439 block function (``tests/crypto/test_chacha20_fast.py``).
Rotations work in place: two shifts and an OR into one scratch array.
"""

from __future__ import annotations

import struct
from typing import Sequence

import numpy as np

_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)

# Row permutations that line the diagonals up as columns, and back.
_UP1, _UP2, _UP3 = [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]

# Shift counts as 0-d uint32 arrays: numpy dispatches these faster than
# scalars, and dispatch is most of a pass over a few blocks.
_SHIFTS = {n: (np.array(n, np.uint32), np.array(32 - n, np.uint32))
           for n in (16, 12, 8, 7)}


def _rotl_inplace(x: "np.ndarray", count: int, scratch: "np.ndarray") -> None:
    left, right = _SHIFTS[count]
    np.right_shift(x, right, scratch)
    np.left_shift(x, left, x)
    np.bitwise_or(x, scratch, x)


def _quarter_round(
    a: "np.ndarray", b: "np.ndarray", c: "np.ndarray", d: "np.ndarray",
    scratch: "np.ndarray",
) -> None:
    np.add(a, b, a)
    np.bitwise_xor(d, a, d)
    _rotl_inplace(d, 16, scratch)
    np.add(c, d, c)
    np.bitwise_xor(b, c, b)
    _rotl_inplace(b, 12, scratch)
    np.add(a, b, a)
    np.bitwise_xor(d, a, d)
    _rotl_inplace(d, 8, scratch)
    np.add(c, d, c)
    np.bitwise_xor(b, c, b)
    _rotl_inplace(b, 7, scratch)


def _run_rounds(initial: "np.ndarray") -> bytes:
    a, b, c, d = (initial[row : row + 4].copy() for row in (0, 4, 8, 12))
    scratch = np.empty_like(a)
    with np.errstate(over="ignore"):
        for _ in range(10):
            _quarter_round(a, b, c, d, scratch)
            b, c, d = b.take(_UP1, 0), c.take(_UP2, 0), d.take(_UP3, 0)
            _quarter_round(a, b, c, d, scratch)
            b, c, d = b.take(_UP3, 0), c.take(_UP2, 0), d.take(_UP1, 0)
        state = np.concatenate((a, b, c, d))
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
