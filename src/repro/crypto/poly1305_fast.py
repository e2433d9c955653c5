"""Batched Poly1305 (RFC 8439 section 2.5), bit-identical to the scalar
reference in ``repro.crypto.poly1305``.

The scalar implementation performs one big-int multiply **and one
reduction mod p** per 16-byte block.  This version processes ``k``
blocks per reduction using precomputed powers ``r^1 .. r^k``: unrolling
Horner's rule over a group of k blocks,

    a' = (a + b_1) * r^k  +  b_2 * r^(k-1)  +  ...  +  b_k * r   (mod p)

so the group costs k small multiplies, one k-term sum and a *single*
``% p`` — instead of k of each.

The group sums come from numpy: the message is read straight from the
buffer as little-endian 16-bit limbs, eight per block, and every
group's k-term sum becomes one row of a single float64 matrix product
against a Toeplitz matrix of the powers' 16-bit limbs, so BLAS does the
multiply-adds.  Column ``d`` of a row is the coefficient of
``2^(16*d)`` in the group's sum; the coefficients are recombined
through bytes into one big integer per group, and the groups are folded
with Horner's rule.  The blocks' ``2^128`` bits add one precomputed
``sum(powers) << 128`` per group.  **Exactness:** every product of two
limbs is an integer below 2^32 and a column sums at most 8·k of them,
so every partial sum is an integer below 8·k·2^32 (2^40 at k = 32, 2^41
at k = 64), which float64 holds exactly — whatever order BLAS sums in
and whether it uses FMA.  Pairing two columns into one int64 word
afterwards needs 8·k·2^48 < 2^63, so the evaluator is exact for every k
below 2^12.

The group size trades precomputation (k-1 multiplies per message, since
``r`` is a fresh one-time key for every AEAD record) against the number
of groups folded in Python; ``_GROUP_BLOCKS = 32`` sits near the
optimum for the record sizes the TLS layer produces (up to 2^14 bytes).

Messages under ``MIN_BATCH_BYTES``, where the power table and the numpy
set-up would cost more than they save, and the tail a long message
leaves after its last whole group, take ``_fold``: Horner's rule two
blocks per ``% p`` with ``r²``, off one ``int.from_bytes`` of the
message.  The RFC 8439 loop (``tests/references.py``) is the
reference ``tests/crypto`` holds both to, bit-for-bit, on randomized
and boundary inputs; nothing calls it at run time.
"""

from __future__ import annotations

from itertools import repeat

import numpy as _np

_P = (1 << 130) - 5
_R_CLAMP = 0x0FFFFFFC0FFFFFFC0FFFFFFC0FFFFFFF
_HI = 1 << 128          # the high bit appended to every full block
_M128 = (1 << 128) - 1
_M256 = (1 << 256) - 1

#: Blocks folded per reduction.  The float64 product is exact below 2^12
#: (see the module docstring).
_GROUP_BLOCKS = 32
_GROUP_BYTES = 16 * _GROUP_BLOCKS

#: From this size the group evaluator wins: ``r`` is a fresh key per
#: record, so every message pays the 31-multiply power table and the
#: numpy set-up (~25 us) before its first group, and the fold costs
#: ~23 us/KiB.  Measured, the fold wins to just below three groups and
#: loses at three (``benchmarks/test_crypto_micro.py``'s Poly1305 rows,
#: EXPERIMENTS P13).
MIN_BATCH_BYTES = 3 * _GROUP_BYTES


def _toeplitz_index():
    """Flat indices into the powers' 16-bit limbs (ten per power; the
    tenth is always zero, as every power is below 2^130) that lay out
    the (8·k, 20) Toeplitz matrix: row ``8*j + a`` (power j, message
    limb a) holds, in the column of coefficient ``d``, limb ``d - a`` of
    power j.

    Columns come in the order the recombination reads them.  Column
    ``i`` (i < 10) holds coefficient ``c[2w]`` and column ``10 + i`` its
    neighbour ``c[2w+1]``, for word ``w`` = 0, 2, 4, 6, 8, 1, 3, 5, 7, 9,
    so ``even + (odd << 16)`` gives the 32-bit-spaced words of a group's
    sum, even words first.  Coefficients 16..19 are zero: they pad a
    group to ten words (320 bits; its sum is below 2^290).
    """
    even = [2 * w for w in (0, 2, 4, 6, 8, 1, 3, 5, 7, 9)]
    order = _np.array(even + [d + 1 for d in even])
    limb = order[None, :] - _np.arange(8)[:, None]  # d - a, shape (8, 20)
    limb = _np.where((limb >= 0) & (limb <= 8), limb, 9)
    index = 10 * _np.arange(_GROUP_BLOCKS)[:, None, None] + limb
    return index.reshape(8 * _GROUP_BLOCKS, 20)


_TOEPLITZ_INDEX = _toeplitz_index()


def _powers_of_r(r: int) -> list:
    """``[r^k, r^(k-1), ..., r^1] mod p`` for the group fold."""
    powers = [r] * _GROUP_BLOCKS
    for j in range(_GROUP_BLOCKS - 2, -1, -1):
        powers[j] = (powers[j + 1] * r) % _P
    return powers


def _grouped_numpy(view, grouped_end: int, powers: list, r_k: int) -> int:
    """Fold ``view[:grouped_end]`` (a whole number of groups) into the
    accumulator using one exact float64 matrix product for all group sums."""
    n_groups = grouped_end // _GROUP_BYTES
    limbs = _np.frombuffer(view[:grouped_end], dtype="<u2").astype(_np.float64)
    power_limbs = _np.frombuffer(
        b"".join(map(int.to_bytes, powers, repeat(20), repeat("little"))), dtype="<u2"
    ).astype(_np.float64)
    toeplitz = power_limbs.take(_TOEPLITZ_INDEX)
    sums = (limbs.reshape(n_groups, 8 * _GROUP_BLOCKS) @ toeplitz).astype(_np.int64)
    words = sums[:, :10] + (sums[:, 10:] << 16)  # each < 2^57, 32 bits apart
    # Group g's even words, read as one run of int64s, sit at bits
    # 320·g + 64·i and its odd words 32 bits above them, so two
    # conversions give sum_g total_g · 2^(320·g), which splits back into
    # 40-byte fields because every total_g is below 2^320.
    from_bytes = int.from_bytes
    whole = from_bytes(words[:, :5].tobytes(), "little") + (
        from_bytes(words[:, 5:].tobytes(), "little") << 32
    )
    raw = whole.to_bytes(40 * n_groups, "little")
    high_bits = sum(powers) << 128
    accumulator = 0
    for offset in range(0, 40 * n_groups, 40):
        total = from_bytes(raw[offset : offset + 40], "little") + high_bits
        accumulator = (accumulator * r_k + total) % _P
    return accumulator


def _fold(view, r: int, r2: int, accumulator: int = 0) -> int:
    """Horner's rule over the 16-byte blocks of ``view`` (the last may be
    partial), two full blocks per reduction:

        a' = (a + b_1) * r^2  +  b_2 * r   (mod p)

    The message is read as one integer; blocks come off its low end by
    mask and shift, the two blocks' ``2^128`` bits add one constant, and
    a partial block's 0x01 byte (RFC 8439 2.5.1) is set in that integer
    just past the message's last byte.
    """
    n = len(view)
    rest = int.from_bytes(view, "little")
    if n & 15:
        rest |= 1 << (8 * n)
    high_bits = _HI * (r2 + r)
    for _ in range(n >> 5):
        pair = rest & _M256
        rest >>= 256
        accumulator = (
            (accumulator + (pair & _M128)) * r2 + (pair >> 128) * r + high_bits
        ) % _P
    if n & 16:
        accumulator = ((accumulator + (rest & _M128) + _HI) * r) % _P
        rest >>= 128
    if n & 15:
        accumulator = ((accumulator + rest) * r) % _P
    return accumulator


def poly1305_mac_fast(key: bytes, message) -> bytes:
    """Compute the 16-byte Poly1305 tag; same contract as the RFC loop
    ``poly1305_mac`` but ``message`` may be any C-contiguous bytes-like
    object, read as its raw bytes whatever its item size."""
    if len(key) != 32:
        raise ValueError("Poly1305 key must be 32 bytes")
    r = int.from_bytes(key[:16], "little") & _R_CLAMP
    s = int.from_bytes(key[16:], "little")
    view = memoryview(message).cast("B")
    if len(view) < MIN_BATCH_BYTES:
        accumulator = _fold(view, r, r * r % _P)
    else:
        grouped_end = len(view) - len(view) % _GROUP_BYTES
        powers = _powers_of_r(r)
        accumulator = _fold(
            view[grouped_end:], r, powers[-2],
            _grouped_numpy(view, grouped_end, powers, powers[0]),
        )
    return ((accumulator + s) & _M128).to_bytes(16, "little")
