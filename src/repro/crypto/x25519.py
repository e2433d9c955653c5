"""X25519 Diffie-Hellman key agreement (RFC 7748).

Montgomery-ladder scalar multiplication over Curve25519.  Validated
against the RFC 7748 section 5.2 test vectors in ``tests/crypto``.

The ladder serves any peer u-coordinate; it reduces only products and
ends with one ``pow(z2, -1, p)``.  The base point is fixed, so
``x25519_base`` takes the Ed25519 fixed-base table instead (Curve25519
and edwards25519 are one curve under a birational map, RFC 7748 section
4.1) and is tested against the ladder.  ``tests/crypto`` holds both to
OpenSSL as well.
"""

from __future__ import annotations

from repro.crypto.ed25519 import base_mul

_P = 2**255 - 19
_A24 = 121665


def _clamp_scalar(scalar_bytes: bytes) -> int:
    if len(scalar_bytes) != 32:
        raise ValueError("X25519 scalar must be 32 bytes")
    scalar = bytearray(scalar_bytes)
    scalar[0] &= 248
    scalar[31] &= 127
    scalar[31] |= 64
    return int.from_bytes(scalar, "little")


def _decode_u_coordinate(u_bytes: bytes) -> int:
    if len(u_bytes) != 32:
        raise ValueError("X25519 u-coordinate must be 32 bytes")
    u = bytearray(u_bytes)
    u[31] &= 127  # mask the unused high bit per RFC 7748 section 5
    return int.from_bytes(u, "little")


def _ladder(scalar: int, u: int) -> int:
    """Constant-structure Montgomery ladder (RFC 7748 section 5).

    Sums and differences stay unreduced (Python ints); only products
    are reduced.  RFC 7748 ends with ``x2 * z2^(p-2)``, which is 0 at
    ``z2 = 0`` (the low-order inputs); ``pow(z2, -1, p)`` is the same
    inverse elsewhere and raises there, hence the branch.
    """
    x1 = u
    x2, z2 = 1, 0
    x3, z3 = u, 1
    swap = 0
    for bit_index in reversed(range(255)):
        bit = (scalar >> bit_index) & 1
        swap ^= bit
        if swap:
            x2, x3 = x3, x2
            z2, z3 = z3, z2
        swap = bit

        a = x2 + z2
        b = x2 - z2
        aa = (a * a) % _P
        bb = (b * b) % _P
        e = aa - bb
        da = ((x3 - z3) * a) % _P
        cb = ((x3 + z3) * b) % _P
        s, t = da + cb, da - cb
        x3 = (s * s) % _P
        z3 = (x1 * ((t * t) % _P)) % _P
        x2 = (aa * bb) % _P
        z2 = (e * (aa + _A24 * e)) % _P

    if swap:
        x2, z2 = x3, z3
    return (x2 * pow(z2, -1, _P)) % _P if z2 else 0


def x25519(scalar_bytes: bytes, u_bytes: bytes) -> bytes:
    """Scalar-multiply a public u-coordinate; returns 32 bytes."""
    scalar = _clamp_scalar(scalar_bytes)
    u = _decode_u_coordinate(u_bytes)
    return _ladder(scalar, u).to_bytes(32, "little")


def x25519_base(scalar_bytes: bytes) -> bytes:
    """Compute the public key for a private scalar (scalar * base point 9).

    ``scalar * B`` on edwards25519 from the fixed-base table, mapped back
    with ``u = (1 + y) / (1 - y) = (Z + Y) / (Z - Y)``; B maps to u = 9.
    ``Z = Y`` only at the identity, which a clamped scalar (a multiple of
    8 below ``8 * L``) never reaches.
    """
    _, y, z, _ = base_mul(_clamp_scalar(scalar_bytes))
    return ((z + y) * pow(z - y, -1, _P) % _P).to_bytes(32, "little")


class X25519PrivateKey:
    """Convenience wrapper pairing a private scalar with its public key."""

    def __init__(self, private_bytes: bytes) -> None:
        if len(private_bytes) != 32:
            raise ValueError("X25519 private key must be 32 bytes")
        self._private = bytes(private_bytes)
        self.public_bytes = x25519_base(self._private)

    def exchange(self, peer_public: bytes) -> bytes:
        """Compute the shared secret with a peer's public key."""
        shared = x25519(self._private, peer_public)
        if shared == b"\x00" * 32:
            raise ValueError("X25519 produced an all-zero shared secret")
        return shared
