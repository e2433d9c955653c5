"""ChaCha20 stream cipher (RFC 8439 section 2).

Records are encrypted with ``chacha20_keystream_lanes``, which computes
the blocks of one or several nonces in one lane-packed pass.  The RFC's
block function and counter-mode cipher are the references the tests
hold it to (``tests/references.py``).
"""

from __future__ import annotations

import struct
from array import array

_MASK32 = 0xFFFFFFFF

# "expand 32-byte k" as four little-endian words (RFC 8439 section 2.3).
_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)


# ----------------------------------------------------------------------
# Lane-packed multi-block keystream (the AEAD's per-record pass)
# ----------------------------------------------------------------------
#
# The state of ``n`` blocks is held SIMD-style in four Python big ints,
# one per row of the 4x4 ChaCha matrix.  A row is ``4 * n`` lanes of 64
# bits: word ``w`` of block ``j`` sits in lane ``w * n + j`` and uses
# only the lane's low 32 bits.  One big-int ``+``/``^`` therefore does
# that operation for every word of the row in every block, and a
# quarter-round on the four rows is the column round of all blocks at
# once; the diagonal round is the same quarter-round after rotating
# rows b/c/d by 1/2/3 words (``n`` lanes each).  A double round is 80
# big-int operations whatever ``n`` is, so the interpreter cost is flat
# in the block count and only the (C-speed) limb work grows with it.
#
# Why lanes are 64 bits wide: the sum of two 32-bit words needs 33
# bits, so with a clean upper half a lane's carry stays inside the lane
# and ``& mask`` drops it -- no lane can carry into its neighbour.  The
# rotation uses the same headroom: ``t = x << c`` (c <= 16) keeps every
# word inside its own lane, ``t >> 32`` brings the c bits that left the
# low half back to its bottom, and ``(t | t >> 32) & mask`` is
# ``rotl(x, c)`` in every lane; the mask also clears the upper half,
# where ``t >> 32`` parked the next lane's low bits.

_LANE_ONE = b"\x01" + b"\x00" * 7
_LANE_MASK = b"\xff" * 4 + b"\x00" * 4


def chacha20_keystream_lanes(key: bytes, counter: int, nonces: bytes, n_blocks: int) -> bytes:
    """Blocks ``counter .. counter+n_blocks-1`` of every 12-byte nonce in
    ``nonces`` (concatenated; one nonce is the one-element case) in one
    lane-packed pass (see the layout comment above), nonce-major like
    ``chacha20_fast.chacha20_keystream_multi``; bit-identical to joining
    RFC 8439 block-function outputs, numpy-free."""
    if n_blocks <= 0 or not nonces:
        return b""
    n = n_blocks * (len(nonces) // 12)
    s1 = 64 * n
    s2 = 2 * s1
    s3 = 3 * s1
    low1 = (1 << s1) - 1
    low2 = (1 << s2) - 1
    low3 = (1 << s3) - 1
    ones = int.from_bytes(_LANE_ONE * n, "little")
    mask = int.from_bytes(_LANE_MASK * (4 * n), "little")
    k0, k1, k2, k3, k4, k5, k6, k7 = struct.unpack("<8I", key)
    # Lane i*n_blocks + j is block j of nonce i.  Its word 12, counter + j,
    # wraps at 2^32 by construction: the lane sum has at most 33 bits and
    # the mask drops the carry.  Words 13-15 are nonce i's: word-major, the
    # nonce words sit n_blocks lanes apart from lane n on, so one product
    # with ``spread`` copies each over its n_blocks lanes.
    iota = struct.pack(f"<{n_blocks}Q", *range(n_blocks)) * (n // n_blocks)
    counters = ((counter & _MASK32) * ones + int.from_bytes(iota, "little")) & mask
    words = bytes(8 * n_blocks - 4).join(
        [nonces[at : at + 4] for w in (0, 4, 8) for at in range(w, len(nonces), 12)]
    )
    spread = int.from_bytes(_LANE_ONE * n_blocks, "little")
    c0, c1, c2, c3 = _CONSTANTS
    a = init_a = (c0 | c1 << s1 | c2 << s2 | c3 << s3) * ones
    b = init_b = (k0 | k1 << s1 | k2 << s2 | k3 << s3) * ones
    c = init_c = (k4 | k5 << s1 | k6 << s2 | k7 << s3) * ones
    d = init_d = counters | int.from_bytes(words, "little") * spread << s1
    for _ in range(10):
        # Column round: one quarter-round over whole rows.
        a = (a + b) & mask
        t = (d ^ a) << 16
        d = (t | t >> 32) & mask
        c = (c + d) & mask
        t = (b ^ c) << 12
        b = (t | t >> 32) & mask
        a = (a + b) & mask
        t = (d ^ a) << 8
        d = (t | t >> 32) & mask
        c = (c + d) & mask
        t = (b ^ c) << 7
        b = (t | t >> 32) & mask
        # Rotate rows b, c, d left by 1, 2, 3 words: columns now hold
        # the diagonals.
        b = (b >> s1) | ((b & low1) << s3)
        c = (c >> s2) | ((c & low2) << s2)
        d = (d >> s3) | ((d & low3) << s1)
        a = (a + b) & mask
        t = (d ^ a) << 16
        d = (t | t >> 32) & mask
        c = (c + d) & mask
        t = (b ^ c) << 12
        b = (t | t >> 32) & mask
        a = (a + b) & mask
        t = (d ^ a) << 8
        d = (t | t >> 32) & mask
        c = (c + d) & mask
        t = (b ^ c) << 7
        b = (t | t >> 32) & mask
        b = (b >> s3) | ((b & low3) << s1)
        c = (c >> s2) | ((c & low2) << s2)
        d = (d >> s1) | ((d & low1) << s3)
    # Serialize block-major.  ``row | row >> (s1 - 32)`` pairs word w
    # with word w+1 of the same block in one 64-bit lane; as an array of
    # 64-bit items, lanes [0, n) are the (w0, w1) pairs and [2n, 3n) the
    # (w2, w3) pairs, each dealt out to every eighth item of the output
    # (items are only moved, never read as numbers: no byte-order issue).
    out = array("Q", bytes(64 * n))
    pair_shift = s1 - 32
    row_bytes = 32 * n
    slot = 0
    for row, init in ((a, init_a), (b, init_b), (c, init_c), (d, init_d)):
        row = (row + init) & mask
        pairs = array("Q", (row | row >> pair_shift).to_bytes(row_bytes, "little"))
        out[slot::8] = pairs[:n]
        out[slot + 1 :: 8] = pairs[2 * n : 3 * n]
        slot += 2
    return out.tobytes()
