"""RFC 8032 section 7.1 test vectors for Ed25519, the point-decoding
rules, the two scalar multiplications against an oracle that shares
no arithmetic with them (affine double-and-add, kept in this file), and
the per-key table of verification: a key seen before and a key seen for
the first time get the same verdict."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import ed25519 as _ed
from repro.crypto.ed25519 import (
    Ed25519PrivateKey,
    ed25519_public_key,
    ed25519_sign,
    ed25519_verify,
)

_P = 2**255 - 19
_L = 2**252 + 27742317777372353535851937790883648493


def test_rfc8032_test_1_empty_message():
    secret = bytes.fromhex(
        "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60"
    )
    public = bytes.fromhex(
        "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a"
    )
    assert ed25519_public_key(secret) == public
    signature = ed25519_sign(secret, b"")
    assert signature == bytes.fromhex(
        "e5564300c360ac729086e2cc806e828a"
        "84877f1eb8e5d974d873e06522490155"
        "5fb8821590a33bacc61e39701cf9b46b"
        "d25bf5f0595bbe24655141438e7a100b"
    )
    assert ed25519_verify(public, b"", signature)


def test_rfc8032_test_2_one_byte():
    secret = bytes.fromhex(
        "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb"
    )
    public = bytes.fromhex(
        "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c"
    )
    message = bytes.fromhex("72")
    assert ed25519_public_key(secret) == public
    signature = ed25519_sign(secret, message)
    assert signature == bytes.fromhex(
        "92a009a9f0d4cab8720e820b5f642540"
        "a2b27b5416503f8fb3762223ebdb69da"
        "085ac1e43e15996e458f3613d0f11d8c"
        "387b2eaeb4302aeeb00d291612bb0c00"
    )
    assert ed25519_verify(public, message, signature)


def test_rfc8032_test_3_two_bytes():
    secret = bytes.fromhex(
        "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7"
    )
    public = bytes.fromhex(
        "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025"
    )
    message = bytes.fromhex("af82")
    assert ed25519_public_key(secret) == public
    signature = ed25519_sign(secret, message)
    assert signature == bytes.fromhex(
        "6291d657deec24024827e69c3abe01a3"
        "0ce548a284743a445e3680d7db5ac3ac"
        "18ff9b538d16f290ae67f760984dc659"
        "4a7c15e9716ed28dc027beceea1ec40a"
    )
    assert ed25519_verify(public, message, signature)


def test_rfc8032_test_sha_abc():
    secret = bytes.fromhex(
        "833fe62409237b9d62ec77587520911e9a759cec1d19755b7da901b96dca3d42"
    )
    public = bytes.fromhex(
        "ec172b93ad5e563bf4932c70e1245034c35467ef2efd4d64ebf819683467e2bf"
    )
    message = hashlib.sha512(b"abc").digest()
    key = Ed25519PrivateKey(secret)
    assert key.public_bytes == ed25519_public_key(secret) == public
    signature = bytes.fromhex(
        "dc2a4459e7369633a52b1bf277839a00"
        "201009a3efbf3ecb69bea2186c26b589"
        "09351fc9ac90b3ecfdfbc7c66431e030"
        "3dca179c138ac17ad9bef1177331a704"
    )
    assert ed25519_sign(secret, message) == signature
    assert key.sign(message) == signature
    assert ed25519_verify(public, message, signature)


def test_verify_rejects_wrong_message():
    key = Ed25519PrivateKey(b"\x05" * 32)
    signature = key.sign(b"hello")
    assert ed25519_verify(key.public_bytes, b"hello", signature)
    assert not ed25519_verify(key.public_bytes, b"hellx", signature)


def test_verify_rejects_corrupt_signature():
    key = Ed25519PrivateKey(b"\x06" * 32)
    signature = bytearray(key.sign(b"msg"))
    signature[0] ^= 1
    assert not ed25519_verify(key.public_bytes, b"msg", bytes(signature))


def test_verify_rejects_garbage_inputs():
    assert not ed25519_verify(b"short", b"msg", b"\x00" * 64)
    assert not ed25519_verify(b"\x00" * 32, b"msg", b"\x00" * 10)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.binary(min_size=32, max_size=32),
    message=st.binary(max_size=200),
    flip=st.integers(min_value=0, max_value=64 * 8 - 1),
)
def test_sign_verify_and_any_flipped_signature_bit_fails(seed, message, flip):
    key = Ed25519PrivateKey(seed)
    signature = key.sign(message)
    assert signature == ed25519_sign(seed, message)
    assert ed25519_verify(key.public_bytes, message, signature)
    damaged = bytearray(signature)
    damaged[flip // 8] ^= 1 << (flip % 8)
    assert not ed25519_verify(key.public_bytes, message, bytes(damaged))
    assert not ed25519_verify(key.public_bytes, message + b"\x00", signature)


# ----------------------------------------------------------------------
# Point decoding (RFC 8032 section 5.1.3)
# ----------------------------------------------------------------------

#: (0, -1), the point of order two, with the sign bit of its x = 0 set:
#: step 4 rejects it ("if x = 0, and x_0 = 1, decoding fails").
_MINUS_ONE = (_P - 1).to_bytes(32, "little")
_MINUS_ONE_SIGN_SET = ((_P - 1) | (1 << 255)).to_bytes(32, "little")


def _challenge(r_bytes: bytes, public: bytes, message: bytes) -> int:
    digest = hashlib.sha512(r_bytes + public + message).digest()
    return int.from_bytes(digest, "little") % _L


def test_decompress_rejects_zero_x_with_sign_bit():
    assert _ed._point_decompress(_MINUS_ONE)[:2] == (0, _P - 1)
    with pytest.raises(ValueError):
        _ed._point_decompress(_MINUS_ONE_SIGN_SET)
    with pytest.raises(ValueError):  # (0, 1), same rule
        _ed._point_decompress((1 | (1 << 255)).to_bytes(32, "little"))


def test_verify_rejects_non_canonical_order_two_public_key():
    """With A = (0, -1) and an even challenge h, h*A is the identity and
    (R = r*B, s = r) satisfies the verification equation; the sign-set
    alias of A must not get that far."""
    digest = hashlib.sha512(b"\x09" * 32).digest()  # RFC 8032 5.1.5: r*B is a public key
    r = (int.from_bytes(digest[:32], "little") & ((1 << 254) - 8) | (1 << 254)) % _L
    r_bytes = ed25519_public_key(b"\x09" * 32)
    forged = r_bytes + r.to_bytes(32, "little")
    message = next(
        m for m in (bytes([i]) for i in range(256))
        if _challenge(r_bytes, _MINUS_ONE_SIGN_SET, m) % 2 == 0
    )
    assert not ed25519_verify(_MINUS_ONE_SIGN_SET, message, forged)


def test_verify_rejects_non_canonical_order_two_r():
    """With A = R = (0, -1) and an odd challenge, R + h*A is the identity
    and s = 0 verifies; the sign-set alias in R's place must not."""
    forged = _MINUS_ONE_SIGN_SET + bytes(32)
    message = next(
        m for m in (bytes([i]) for i in range(256))
        if _challenge(_MINUS_ONE_SIGN_SET, _MINUS_ONE, m) % 2 == 1
    )
    assert not ed25519_verify(_MINUS_ONE, message, forged)


# ----------------------------------------------------------------------
# Scalar multiplication oracle: affine double-and-add, own arithmetic
# ----------------------------------------------------------------------

_D = -121665 * pow(121666, -1, _P) % _P
_BASE_Y = 4 * pow(5, -1, _P) % _P
_BASE_X = 15112221349535400772501151409588531511454012693041857206046113283949847762202


def _affine_add(p, q):
    (x1, y1), (x2, y2) = p, q
    k = _D * x1 * x2 * y1 * y2
    x3 = (x1 * y2 + x2 * y1) * pow(1 + k, -1, _P)
    y3 = (y1 * y2 + x1 * x2) * pow(1 - k, -1, _P)
    return x3 % _P, y3 % _P


def _double_and_add(scalar, point):
    result, addend = (0, 1), point
    while scalar:
        if scalar & 1:
            result = _affine_add(result, addend)
        addend = _affine_add(addend, addend)
        scalar >>= 1
    return result


def _encode(point) -> bytes:
    x, y = point
    return (y | ((x & 1) << 255)).to_bytes(32, "little")


_RNG = random.Random(0xED25519)
_SCALARS = [0, 1, 15, 16, _L - 1, _L, 2**255 - 1] + [
    _RNG.getrandbits(256) for _ in range(8)
]


def _assert_same_point(fast, affine):
    x, y = affine
    assert _ed._point_equal(fast, (x, y, 1, x * y % _P))
    assert _ed._point_compress(fast) == _encode(affine)


def test_oracle_knows_the_base_point():
    assert (_BASE_X, _BASE_Y) == _ed._BASE[:2]
    assert (-_BASE_X * _BASE_X + _BASE_Y * _BASE_Y) % _P == (
        1 + _D * _BASE_X * _BASE_X * _BASE_Y * _BASE_Y
    ) % _P
    assert _double_and_add(_L, (_BASE_X, _BASE_Y)) == (0, 1)


@pytest.mark.parametrize("scalar", _SCALARS)
def test_fixed_base_multiply_matches_double_and_add(scalar):
    _assert_same_point(
        _ed.base_mul(scalar), _double_and_add(scalar, (_BASE_X, _BASE_Y))
    )


def _affine(encoded: bytes):
    """The point ``encoded`` names, checked with this file's arithmetic:
    on the curve and re-encoding to the same bytes leaves one candidate."""
    x, y, _, _ = _ed._point_decompress(encoded)
    assert (y * y - x * x) % _P == (1 + _D * x * x * y * y) % _P
    assert _encode((x, y)) == encoded
    return x, y


def _key_mul(scalar: int, encoded: bytes):
    """Verification's ``h * A``, as ``ed25519_verify`` evaluates it."""
    return _ed._powers_mul(scalar, _ed._key_powers(encoded))


#: Some point that is not the base: a public key.
_DERIVED = ed25519_public_key(b"\x07" * 32)


@pytest.mark.parametrize("scalar", _SCALARS)
def test_variable_base_multiply_matches_double_and_add(scalar):
    for encoded in (_DERIVED, _encode((_BASE_X, _BASE_Y))):
        _assert_same_point(
            _key_mul(scalar, encoded), _double_and_add(scalar, _affine(encoded))
        )


#: The eight points of order dividing 8, by encoding: order 1, 2, 4, 4
#: and four of order 8.  ``h * A`` for such an ``A`` cycles through them,
#: the identity included, so every table entry repeats.
_SMALL_ORDER = [
    bytes.fromhex(encoding)
    for encoding in (
        "0100000000000000000000000000000000000000000000000000000000000000",
        "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
        "0000000000000000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000000080",
        "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
        "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85",
        "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
        "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa",
    )
]


def test_oracle_knows_the_small_order_points():
    orders = []
    for encoded in _SMALL_ORDER:
        point = _affine(encoded)
        orders.append(
            next(n for n in (1, 2, 4, 8) if _double_and_add(n, point) == (0, 1))
        )
    assert orders == [1, 2, 4, 4, 8, 8, 8, 8]
    assert len(set(_SMALL_ORDER)) == 8


@settings(max_examples=80, deadline=None)
@given(
    scalar=st.sampled_from([0, 1, 15, 16, _L - 1, _L, 2**252, 2**253 - 1])
    | st.integers(min_value=0, max_value=2**256 - 1),
    encoded=st.sampled_from([_encode((_BASE_X, _BASE_Y)), _DERIVED] + _SMALL_ORDER),
)
def test_per_key_multiply_matches_double_and_add(scalar, encoded):
    _assert_same_point(
        _key_mul(scalar, encoded), _double_and_add(scalar, _affine(encoded))
    )


def test_fixed_base_scalar_range_is_checked():
    with pytest.raises(ValueError):
        _ed.base_mul(1 << 256)


#: Where the signed radix-2**7 recoding of ``base_mul`` turns: digits at
#: the sign edge (64 stays, 65 borrows), carries through every row, every
#: value the top row (bits 252..255) takes with and without a carry into
#: it, the ends of the range, the group order, and the smallest and
#: largest clamped X25519 scalars.
_RECODING_EDGES = sorted(
    {0, 1, 63, 64, 65, 127, 128, 129, 2**256 - 1, _L - 1, _L, 2**254, 2**255 - 8}
    | {64 * 128**row for row in range(36)}
    | {65 * 128**row for row in range(36)}
    | {top << 252 for top in range(16)}
    | {(top << 252) | (2**252 - 1) for top in range(16)}
    | {(top << 252) | (65 << 245) for top in range(16)}
)


@pytest.mark.parametrize("scalar", _RECODING_EDGES)
def test_fixed_base_recoding_edges_match_double_and_add(scalar):
    _assert_same_point(
        _ed.base_mul(scalar), _double_and_add(scalar, (_BASE_X, _BASE_Y))
    )


def _count_additions(monkeypatch):
    """The name of every point addition made while the test runs."""
    additions = []
    for name in ("_point_add", "_niels_add"):
        def counting(p, q, add=getattr(_ed, name), name=name):
            additions.append(name)
            return add(p, q)

        monkeypatch.setattr(_ed, name, counting)
    return additions


def test_base_table_is_built_once(monkeypatch):
    table = _ed._base_table()
    additions = _count_additions(monkeypatch)
    for scalar in (1, _L - 1, 2**256 - 1):
        _ed.base_mul(scalar)
    assert "_point_add" not in additions  # no rebuild
    assert _ed._base_table() is table


def test_base_table_has_a_bounded_point_count():
    """37 rows of 64 affine points, ~0.6 MiB (an unsigned radix-2**8
    table measured 3-8 MiB more peak RSS on every workload)."""
    table = _ed._base_table()
    assert sum(len(row) for row in table) == 37 * 64
    assert {len(entry) for row in table for entry in row} == {3}


def test_base_mul_adds_at_most_once_per_row_and_never_for_a_zero_digit(monkeypatch):
    rows = len(_ed._base_table())
    additions = _count_additions(monkeypatch)

    def cost(scalar):
        del additions[:]
        _ed.base_mul(scalar)
        return len(additions)

    assert cost(0) == 0
    assert all(cost(64 * 128**row) == 1 for row in range(rows - 1))
    assert cost(65) == 2  # -63, then the borrowed 1 in the next row
    assert cost(2**256 - 1) == 2  # -1, zeros carried through, 16 in the top row
    rng = random.Random(0xB45E)
    assert max(cost(rng.getrandbits(256)) for _ in range(50)) <= rows
    assert set(additions) == {"_niels_add"}


# ----------------------------------------------------------------------
# The per-key table: warm and cold verification are one predicate
# ----------------------------------------------------------------------


def _cold_then_warm(public: bytes, message: bytes, signature: bytes):
    """Both verdicts, with proof from the cache's own counters that the
    first call built ``public``'s table and the second one found it --
    unless R or s was rejected before the key was looked at (no lookup),
    or the key does not decode (two misses, nothing kept)."""
    _ed._key_powers.cache_clear()
    cold = ed25519_verify(public, message, signature)
    warm = ed25519_verify(public, message, signature)
    info = _ed._key_powers.cache_info()
    assert (info.misses, info.hits, info.currsize) in ((1, 1, 1), (0, 0, 0), (2, 0, 0))
    return cold, warm


def _flip(data: bytes, bit: int) -> bytes:
    damaged = bytearray(data)
    damaged[bit // 8] ^= 1 << (bit % 8)
    return bytes(damaged)


def test_warm_and_cold_agree_on_every_single_bit_flip():
    key = Ed25519PrivateKey(b"\x21" * 32)
    message = b"CertificateVerify stand-in"
    signature = key.sign(message)
    assert _cold_then_warm(key.public_bytes, message, signature) == (True, True)
    for bit in range(64 * 8):
        verdicts = _cold_then_warm(key.public_bytes, message, _flip(signature, bit))
        assert verdicts == (False, False), bit


@settings(max_examples=25, deadline=None)
@given(
    seed=st.binary(min_size=32, max_size=32),
    message=st.binary(max_size=200),
    flip=st.integers(min_value=0, max_value=(32 + 64) * 8 - 1),
)
def test_warm_and_cold_agree_on_any_key(seed, message, flip):
    """One flipped bit anywhere in (public key, signature): whatever the
    verdict (a damaged key may not even decode), it is the same twice."""
    key = Ed25519PrivateKey(seed)
    signature = key.sign(message)
    assert _cold_then_warm(key.public_bytes, message, signature) == (True, True)
    damaged = _flip(key.public_bytes + signature, flip)
    cold, warm = _cold_then_warm(damaged[:32], message, damaged[32:])
    assert cold is warm is False


def test_a_key_seen_before_costs_no_doubling(monkeypatch):
    key = Ed25519PrivateKey(b"\x22" * 32)
    signature = key.sign(b"msg")
    additions = []
    add = _ed._point_add
    monkeypatch.setattr(_ed, "_point_add", lambda p, q: additions.append(1) or add(p, q))
    _ed._key_powers.cache_clear()
    assert ed25519_verify(key.public_bytes, b"msg", signature)
    cold = len(additions)
    assert ed25519_verify(key.public_bytes, b"msg", signature)
    warm = len(additions) - cold
    assert cold - warm == 252  # 63 steps of four doublings, paid once
    # s*B and h*A: one addition per nibble at most, the running sum, R.
    assert warm <= 64 + (64 + 30) + 1


def test_key_tables_are_bounded_and_eviction_changes_no_verdict():
    keys = [Ed25519PrivateKey(bytes([i]) * 32) for i in range(40)]
    signed = [(key.public_bytes, key.sign(key.public_bytes)) for key in keys]
    _ed._key_powers.cache_clear()
    for _ in range(2):  # round-robin over more keys than tables: all evicted
        for index, (public, signature) in enumerate(signed):
            assert ed25519_verify(public, public, signature)
            assert not ed25519_verify(public, public, signed[index - 1][1])
            assert _ed._key_powers.cache_info().currsize <= _ed._KEY_TABLES
    info = _ed._key_powers.cache_info()
    assert info.maxsize == _ed._KEY_TABLES == 32
    assert (info.currsize, info.misses, info.hits) == (32, 80, 80)


@pytest.mark.parametrize(
    "public",
    [_MINUS_ONE_SIGN_SET, (2).to_bytes(32, "little"), (_P + 3).to_bytes(32, "little")],
    ids=["zero-x-sign-set", "off-curve", "y-not-reduced"],
)
def test_invalid_key_encoding_is_false_twice_and_never_cached(public):
    with pytest.raises(ValueError):
        _ed._point_decompress(public)
    signature = Ed25519PrivateKey(b"\x23" * 32).sign(b"msg")
    _ed._key_powers.cache_clear()
    for attempt in (1, 2):
        assert not ed25519_verify(public, b"msg", signature)
        info = _ed._key_powers.cache_info()
        assert (info.currsize, info.misses, info.hits) == (0, attempt, 0)


def test_key_object_signs_with_one_base_multiply(monkeypatch):
    key = Ed25519PrivateKey(b"\x24" * 32)
    calls = []
    base_mul = _ed.base_mul
    monkeypatch.setattr(_ed, "base_mul", lambda k: calls.append(k) or base_mul(k))
    signature = key.sign(b"msg")
    assert len(calls) == 1  # r*B; the public key is the one it already holds
    assert ed25519_sign(b"\x24" * 32, b"msg") == signature
    assert len(calls) == 3  # the RFC call shape derives the key again
    assert ed25519_sign(b"\x24" * 32, b"msg", key.public_bytes) == signature
