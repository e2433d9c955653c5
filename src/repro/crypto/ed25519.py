"""Ed25519 signatures (RFC 8032), used for certificate signing.

Non-constant-time implementation following RFC 8032 section 5.1;
sufficient for a simulator where the adversary is a middlebox model, not
a timing attacker.  Validated against the RFC 8032 section 7.1 test
vectors.

Two scalar multiplications, one job each, both over section 5.1.4's
addition and both a table walk with no doubling at multiply time:

- ``_powers_mul(scalar, _key_powers(public))`` is verification's
  ``h * A``.  The 252 doublings any multiply by a 253-bit scalar needs
  do not depend on the scalar, so the first verification under a key
  keeps them (``16**i * A``) and later ones only add.  A bounded LRU of
  ``_KEY_TABLES`` keys; never slower than double-and-add, so no switch.
- ``base_mul(scalar)`` is the table path for the base point ``B``:
  ``_base_table()[i][j - 1] = j * 128**i * B`` for ``j`` in 1..64 (37 x
  64 affine points in Niels form ``(y + x, y - x, 2d*x*y)``, built on
  first use), so a multiply is one seven-multiply addition per non-zero
  signed radix-2**7 digit, at most 37, and no doubling; a negative
  digit adds the entry with ``x`` negated.  It serves public-key
  derivation, the ``r * B`` of signing,
  the ``s * B`` of verification and — through the birational map to the
  Montgomery curve — ``x25519_base``.  Its lookups are indexed by secret
  digits; that is inside the threat model stated above and would not be
  in a deployment.

``tests/crypto`` holds both to an affine double-and-add that shares no
arithmetic with them, and ``x25519_base`` to the Montgomery ladder.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Optional, Tuple

_P = 2**255 - 19
_L = 2**252 + 27742317777372353535851937790883648493
_D = (-121665 * pow(121666, -1, _P)) % _P

# Base point (from RFC 8032 section 5.1).
_BY = (4 * pow(5, -1, _P)) % _P

#: A point in extended twisted-Edwards coordinates (X, Y, Z, T).
Point = Tuple[int, int, int, int]


def _recover_x(y: int, sign: int) -> int:
    if y >= _P:
        raise ValueError("invalid point encoding")
    x2 = (y * y - 1) * pow(_D * y * y + 1, -1, _P) % _P
    if x2 == 0:
        if sign:
            raise ValueError("invalid point encoding")
        return 0
    x = pow(x2, (_P + 3) // 8, _P)
    if (x * x - x2) % _P != 0:
        x = (x * pow(2, (_P - 1) // 4, _P)) % _P
    if (x * x - x2) % _P != 0:
        raise ValueError("invalid point encoding")
    if (x & 1) != sign:
        x = _P - x
    return x


_BX = _recover_x(_BY, 0)
_BASE = (_BX, _BY, 1, (_BX * _BY) % _P)
_IDENTITY = (0, 1, 1, 0)


def _point_add(p, q):
    # Extended twisted-Edwards coordinates addition (RFC 8032 section 5.1.4).
    x1, y1, z1, t1 = p
    x2, y2, z2, t2 = q
    a = ((y1 - x1) * (y2 - x2)) % _P
    b = ((y1 + x1) * (y2 + x2)) % _P
    c = (2 * t1 * t2 * _D) % _P
    d = (2 * z1 * z2) % _P
    e, f, g, h = b - a, d - c, d + c, b + a
    return ((e * f) % _P, (g * h) % _P, (f * g) % _P, (e * h) % _P)


def _niels_add(p, q):
    # Section 5.1.4's addition with q affine and in Niels form
    # (y + x, y - x, 2d*x*y): Z2 = 1 and q's products are precomputed.
    x1, y1, z1, t1 = p
    ypx, ymx, t2d = q
    a = ((y1 - x1) * ymx) % _P
    b = ((y1 + x1) * ypx) % _P
    c = (t1 * t2d) % _P
    d = 2 * z1
    e, f, g, h = b - a, d - c, d + c, b + a
    return ((e * f) % _P, (g * h) % _P, (f * g) % _P, (e * h) % _P)


#: Signed radix-2**7 digits of a scalar below 2**256, one table row each;
#: a digit is in [-63, 64], so a row holds the multiples 1..64.
_ROWS, _ROW = 37, 64


@functools.cache
def _base_table() -> Tuple[Tuple[Tuple[int, int, int], ...], ...]:
    """``table[i][j - 1]`` is ``j * 128**i * B`` in affine Niels form, built
    by the first ``base_mul`` of the process: 64 additions and one
    batched inversion per row."""
    table = []
    step = _BASE  # 128**i * B
    for _ in range(_ROWS):
        row = [step]
        for _ in range(_ROW - 1):
            row.append(_point_add(row[-1], step))
        prefix = [1]  # prefix[j]: the product of the first j Z's
        for point in row:
            prefix.append(prefix[-1] * point[2] % _P)
        inverse = pow(prefix[-1], -1, _P)  # of all 64 Z's; peeled off from the end
        niels = [None] * _ROW
        for j in reversed(range(_ROW)):
            x, y, z, _ = row[j]
            zinv, inverse = inverse * prefix[j] % _P, inverse * z % _P
            x, y = x * zinv % _P, y * zinv % _P
            niels[j] = ((y + x) % _P, (y - x) % _P, 2 * _D * x * y % _P)
        table.append(tuple(niels))
        step = _point_add(row[-1], row[-1])
    return tuple(table)


def base_mul(scalar: int) -> Point:
    """``scalar * B`` for ``0 <= scalar < 2**256``: one table lookup and
    one addition per non-zero signed digit, no doubling."""
    if scalar >> 256:
        raise ValueError("fixed-base scalar must be below 2**256")
    result = _IDENTITY
    for row in _base_table():
        digit = scalar & 127
        scalar >>= 7
        if digit > 64:  # borrow 128 from the next digit
            digit -= 128
            scalar += 1
        if digit > 0:
            result = _niels_add(result, row[digit - 1])
        elif digit:  # -P is (y - x, y + x, -2d*x*y)
            ypx, ymx, t2d = row[-digit - 1]
            result = _niels_add(result, (ymx, ypx, -t2d))
    return result


def _point_equal(p, q) -> bool:
    x1, y1, z1, _ = p
    x2, y2, z2, _ = q
    return (x1 * z2 - x2 * z1) % _P == 0 and (y1 * z2 - y2 * z1) % _P == 0


def _point_compress(point) -> bytes:
    x, y, z, _ = point
    zinv = pow(z, -1, _P)
    x, y = (x * zinv) % _P, (y * zinv) % _P
    return (y | ((x & 1) << 255)).to_bytes(32, "little")


def _point_decompress(data: bytes):
    if len(data) != 32:
        raise ValueError("point encoding must be 32 bytes")
    encoded = int.from_bytes(data, "little")
    y = encoded & ((1 << 255) - 1)
    sign = encoded >> 255
    x = _recover_x(y, sign)
    return (x, y, 1, (x * y) % _P)


#: Public keys whose ``_key_powers`` are kept (~20 KiB each).
_KEY_TABLES = 32


@functools.lru_cache(maxsize=_KEY_TABLES)
def _key_powers(public: bytes) -> Tuple[Point, ...]:
    """``powers[i] == 16**i * A`` for the key ``public`` encodes, ``i`` in
    0..63: the doublings of one double-and-add, and the decompressed
    ``A`` itself.  An invalid encoding raises and is not remembered."""
    step = _point_decompress(public)
    powers = [step]
    for _ in range(63):
        for _ in range(4):
            step = _point_add(step, step)
        powers.append(step)
    return tuple(powers)


def _powers_mul(scalar: int, powers: Tuple[Point, ...]) -> Point:
    """``scalar * A`` for ``0 <= scalar < 2**256`` from ``A``'s powers:
    ``sum(j * bucket[j])``, where ``bucket[j]`` collects the ``16**i * A``
    whose nibble is ``j`` (one addition per non-zero nibble) and the
    weighted sum is fifteen running-sum steps."""
    buckets = [_IDENTITY] * 16
    for step in powers:
        nibble = scalar & 15
        if nibble:
            buckets[nibble] = _point_add(buckets[nibble], step)
        scalar >>= 4
    running = total = _IDENTITY
    for bucket in reversed(buckets[1:]):
        running = _point_add(running, bucket)
        total = _point_add(total, running)
    return total


def _sha512_int(*parts: bytes) -> int:
    return int.from_bytes(hashlib.sha512(b"".join(parts)).digest(), "little")


def _secret_expand(secret: bytes):
    if len(secret) != 32:
        raise ValueError("Ed25519 private key must be 32 bytes")
    digest = hashlib.sha512(secret).digest()
    a = int.from_bytes(digest[:32], "little")
    a &= (1 << 254) - 8
    a |= 1 << 254
    return a, digest[32:]


def ed25519_public_key(secret: bytes) -> bytes:
    a, _ = _secret_expand(secret)
    return _point_compress(base_mul(a))


def ed25519_sign(
    secret: bytes, message: bytes, public: Optional[bytes] = None
) -> bytes:
    """RFC 8032 section 5.1.6.  ``public`` is the key ``secret`` derives,
    for a caller that already holds it (it is hashed, not checked)."""
    a, prefix = _secret_expand(secret)
    if public is None:
        public = _point_compress(base_mul(a))
    r = _sha512_int(prefix, message) % _L
    r_point = _point_compress(base_mul(r))
    h = _sha512_int(r_point, public, message) % _L
    s = (r + h * a) % _L
    return r_point + s.to_bytes(32, "little")


def ed25519_verify(public: bytes, message: bytes, signature: bytes) -> bool:
    if len(public) != 32 or len(signature) != 64:
        return False
    s = int.from_bytes(signature[32:], "little")
    if s >= _L:
        return False
    try:
        r_point = _point_decompress(signature[:32])
        powers = _key_powers(bytes(public))
    except ValueError:
        return False
    h = _sha512_int(signature[:32], public, message) % _L
    right = _point_add(r_point, _powers_mul(h, powers))
    return _point_equal(base_mul(s), right)


class Ed25519PrivateKey:
    """Convenience wrapper pairing a seed with its public key."""

    def __init__(self, seed: bytes) -> None:
        self._seed = bytes(seed)
        self.public_bytes = ed25519_public_key(self._seed)

    def sign(self, message: bytes) -> bytes:
        return ed25519_sign(self._seed, message, self.public_bytes)
