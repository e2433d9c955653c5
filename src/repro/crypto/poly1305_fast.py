"""Batched Poly1305 (RFC 8439 section 2.5), bit-identical to the scalar
reference in ``repro.crypto.poly1305``.

The scalar implementation performs one big-int multiply **and one
reduction mod p** per 16-byte block.  This version processes ``k``
blocks per reduction using precomputed powers ``r^1 .. r^k``: unrolling
Horner's rule over a group of k blocks,

    a' = (a + b_1) * r^k  +  b_2 * r^(k-1)  +  ...  +  b_k * r   (mod p)

so the group costs k small multiplies, one k-term sum and a *single*
``% p`` — instead of k of each.

Two group evaluators, picked at import time:

- **numpy** (preferred): blocks and powers are decomposed into five
  26-bit limbs and the k-term polynomial sum becomes one integer
  ``einsum`` per message — a (groups, k, 5) x (k, 5) contraction whose
  (5, 5) limb-product grid per group is recombined exactly into a
  Python int.  Products are <= 2^52 and are summed over at most k = 64
  blocks, so every intermediate fits an int64 with five bits to spare:
  the arithmetic is exact, never modular-by-overflow.
- **pure int** (fallback): message blocks are pulled out of the buffer
  four at a time (one 64-byte ``int.from_bytes`` per quad) and the
  k-term sum is a C-level ``sum(map(mul, limbs, powers))``.

The group size trades precomputation (k-1 multiplies per message, since
``r`` is a fresh one-time key for every AEAD record) against the number
of reductions; ``_GROUP_BLOCKS = 64`` sits near the optimum for the
record sizes the TLS layer produces (up to 2^14 bytes).

The scalar ``poly1305_mac`` stays the reference and the fallback for
messages under ``MIN_BATCH_BYTES``, where precomputing powers would cost
more than it saves.  ``tests/crypto`` cross-checks all implementations on
randomized inputs; they must agree bit-for-bit on every input.
"""

from __future__ import annotations

from operator import mul

try:
    import numpy as _np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - numpy is baked into the image
    _np = None
    HAVE_NUMPY = False

_P = (1 << 130) - 5
_R_CLAMP = 0x0FFFFFFC0FFFFFFC0FFFFFFC0FFFFFFF
_HI = 1 << 128          # the high bit appended to every full block
_M128 = (1 << 128) - 1
_M26 = (1 << 26) - 1

#: Blocks folded per reduction.  The numpy evaluator's exactness proof
#: needs 2^52 * _GROUP_BLOCKS < 2^63 — do not raise past 2048 without
#: revisiting the limb bound.
_GROUP_BLOCKS = 64
_GROUP_BYTES = 16 * _GROUP_BLOCKS

#: Below this size the scalar loop wins: ``r`` is a fresh key per record,
#: so every message pays the 63-multiply power table plus the numpy
#: dispatch (~60 us) before its first group, and the scalar loop costs
#: ~33 us/KiB.  Measured, they cross between two and three whole groups
#: (EXPERIMENTS.md P1).
MIN_BATCH_BYTES = 3 * _GROUP_BYTES


def _powers_of_r(r: int) -> list:
    """``[r^k, r^(k-1), ..., r^1] mod p`` for the group evaluators."""
    powers = [r] * _GROUP_BLOCKS
    for j in range(_GROUP_BLOCKS - 2, -1, -1):
        powers[j] = (powers[j + 1] * r) % _P
    return powers


def _grouped_numpy(view, grouped_end: int, powers: list, r_k: int) -> int:
    """Fold ``view[:grouped_end]`` (a whole number of groups) into the
    accumulator using one exact int64 einsum for all group sums."""
    n_groups = grouped_end // _GROUP_BYTES
    words = _np.frombuffer(view[:grouped_end], dtype="<u4").astype(_np.int64)
    w = words.reshape(-1, 4)  # one row of four 32-bit words per block
    w0, w1, w2, w3 = w[:, 0], w[:, 1], w[:, 2], w[:, 3]
    limbs = _np.empty((w.shape[0], 5), dtype=_np.int64)
    limbs[:, 0] = w0 & _M26
    limbs[:, 1] = ((w0 >> 26) | (w1 << 6)) & _M26
    limbs[:, 2] = ((w1 >> 20) | (w2 << 12)) & _M26
    limbs[:, 3] = ((w2 >> 14) | (w3 << 18)) & _M26
    limbs[:, 4] = (w3 >> 8) | (1 << 24)  # 2^128 high bit lives in limb 4
    # Power limbs the same vectorized way: each power < 2^130 padded to
    # five little-endian 32-bit words, split with the same shift pattern
    # (the fifth word holds bits 128..129 of the top limb).
    p_words = _np.frombuffer(
        b"".join(power.to_bytes(20, "little") for power in powers), dtype="<u4"
    ).astype(_np.int64).reshape(-1, 5)
    p0, p1, p2, p3, p4 = (p_words[:, i] for i in range(5))
    p_limbs = _np.empty((_GROUP_BLOCKS, 5), dtype=_np.int64)
    p_limbs[:, 0] = p0 & _M26
    p_limbs[:, 1] = ((p0 >> 26) | (p1 << 6)) & _M26
    p_limbs[:, 2] = ((p1 >> 20) | (p2 << 12)) & _M26
    p_limbs[:, 3] = ((p2 >> 14) | (p3 << 18)) & _M26
    p_limbs[:, 4] = ((p3 >> 8) | (p4 << 24)) & _M26
    # grid[g, a, b] = sum_k block_limb[g*k + k, a] * power_limb[k, b]
    grid = _np.einsum("gka,kb->gab", limbs.reshape(n_groups, _GROUP_BLOCKS, 5), p_limbs)
    # Collapse the (5, 5) limb-product grid along its anti-diagonals:
    # entry (a, b) carries weight 2^(26*(a+b)), so the nine diagonal
    # sums are the coefficients of 2^(26*d).  Each grid entry is below
    # 2^52 * _GROUP_BLOCKS = 2^58 and a diagonal sums at most five of
    # them — still exact in int64.  Cuts the per-group Python-int
    # recombination from 25 terms to 9.
    diag = _np.zeros((n_groups, 9), dtype=_np.int64)
    for a in range(5):
        diag[:, a : a + 5] += grid[:, a, :]
    accumulator = 0
    for d in diag.tolist():
        total = (
            d[0]
            + (d[1] << 26)
            + (d[2] << 52)
            + (d[3] << 78)
            + (d[4] << 104)
            + (d[5] << 130)
            + (d[6] << 156)
            + (d[7] << 182)
            + (d[8] << 208)
        )
        accumulator = (accumulator * r_k + total) % _P
    return accumulator


def _grouped_int(view, grouped_end: int, powers: list, r_k: int) -> int:
    """Pure-int group fold: 64-byte reads, C-level k-term dot product."""
    from_bytes = int.from_bytes
    accumulator = 0
    offset = 0
    while offset < grouped_end:
        limbs = []
        append = limbs.append
        for quad_offset in range(offset, offset + _GROUP_BYTES, 64):
            quad = from_bytes(view[quad_offset : quad_offset + 64], "little")
            append((quad & _M128) | _HI)
            append(((quad >> 128) & _M128) | _HI)
            append(((quad >> 256) & _M128) | _HI)
            append((quad >> 384) | _HI)
        accumulator = (accumulator * r_k + sum(map(mul, limbs, powers))) % _P
        offset += _GROUP_BYTES
    return accumulator


def poly1305_mac_fast(key: bytes, message) -> bytes:
    """Compute the 16-byte Poly1305 tag; same contract as the scalar
    ``poly1305_mac`` but ``message`` may be any bytes-like object."""
    if len(key) != 32:
        raise ValueError("Poly1305 key must be 32 bytes")
    r = int.from_bytes(key[:16], "little") & _R_CLAMP
    s = int.from_bytes(key[16:], "little")
    view = memoryview(message)
    n = len(view)
    full = n - (n % 16)

    accumulator = 0
    offset = 0
    from_bytes = int.from_bytes

    grouped_end = full - (full % _GROUP_BYTES)
    if grouped_end:
        powers = _powers_of_r(r)
        r_k = powers[0]
        if HAVE_NUMPY:
            accumulator = _grouped_numpy(view, grouped_end, powers, r_k)
        else:
            accumulator = _grouped_int(view, grouped_end, powers, r_k)
        offset = grouped_end

    # Leftover full blocks (fewer than one group): scalar Horner.
    while offset < full:
        block = from_bytes(view[offset : offset + 16], "little") | _HI
        accumulator = ((accumulator + block) * r) % _P
        offset += 16

    # Final partial block, high bit at its true end (RFC 8439 2.5.1).
    if offset < n:
        block = int.from_bytes(bytes(view[offset:]) + b"\x01", "little")
        accumulator = ((accumulator + block) * r) % _P

    accumulator = (accumulator + s) & _M128
    return accumulator.to_bytes(16, "little")
