"""Randomized cross-checks: the run-time AEAD vs the RFC 8439 references.

The lane-packed keystream, the batched Poly1305 and the record-layer
lookahead exist only because they are bit-identical to the RFC 8439
functions kept in ``tests/references.py`` (``chacha20_block``,
``chacha20_encrypt``, ``poly1305_key_gen``, ``poly1305_mac``).  These
tests are the enforcement: random keys/messages (seeded — failures
reproduce) and boundary sizes around every group/block/window edge.
The batched Poly1305's float64 group product is also held to a
pure-int fold kept here.  ``test_aead_differential.py`` holds the same
AEAD to OpenSSL.

The CI perf-smoke job fails if any test here is *skipped*, so none of
them may depend on optional machinery without a hard reason.
"""

from array import array
from operator import mul
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import aead as _aead
from repro.crypto import poly1305_fast as _poly_fast
from repro.crypto.aead import ChaCha20Poly1305, TAG_LENGTH
from repro.crypto.chacha20 import chacha20_keystream_lanes
from repro.crypto.chacha20_fast import chacha20_keystream_multi, xor_keystream
from repro.crypto.keyschedule import TrafficKeys
from repro.crypto.poly1305 import constant_time_equal
from repro.crypto.poly1305_fast import poly1305_mac_fast
from repro.tls.record import CipherState, ContentType, record_header
from repro.utils.errors import CryptoError
from tests.references import chacha20_block, chacha20_encrypt, poly1305_key_gen, poly1305_mac

_RNG = random.Random(0x7C9)

#: Sizes straddling every boundary in the batched code: the empty and
#: sub-block cases, the 16-byte block edge, the 512-byte group edge
#: (32 blocks x 16 bytes), the 1536-byte ``MIN_BATCH_BYTES`` edge of
#: Poly1305's dispatch, and the TLS record ceiling.
BOUNDARY_SIZES = (
    0, 1, 15, 16, 17, 31, 32, 511, 512, 513, 1023, 1024, 1025,
    1535, 1536, 1537, 2047, 2048, 3071, 3072, 3073, 4096, 16384, 16400,
)


def _random_bytes(n: int) -> bytes:
    return _RNG.randbytes(n)


def rfc8439_seal(key: bytes, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
    """RFC 8439 section 2.8, composed from the section 2.4-2.6 references:
    the reference every run-time seal is compared with."""
    otk = poly1305_key_gen(key, nonce)
    ciphertext = chacha20_encrypt(key, 1, nonce, plaintext)
    mac_data = b"".join((
        aad, bytes(-len(aad) % 16),
        ciphertext, bytes(-len(ciphertext) % 16),
        struct.pack("<QQ", len(aad), len(ciphertext)),
    ))
    return ciphertext + poly1305_mac(otk, mac_data)


def reference_records(keys, inners, aads):
    """One ``rfc8439_seal`` per record at ``keys.nonce_for(sequence)``."""
    return [
        rfc8439_seal(keys.key, keys.nonce_for(sequence), inner, aad)
        for sequence, (inner, aad) in enumerate(zip(inners, aads))
    ]


# ----------------------------------------------------------------------
# Poly1305
# ----------------------------------------------------------------------

def test_poly1305_fast_matches_reference_on_boundaries():
    for size in BOUNDARY_SIZES:
        key = _random_bytes(32)
        message = _random_bytes(size)
        assert poly1305_mac_fast(key, message) == poly1305_mac(key, message), size


def test_poly1305_fast_matches_reference_randomized():
    for _ in range(150):
        key = _random_bytes(32)
        message = _random_bytes(_RNG.randrange(0, 20000))
        assert poly1305_mac_fast(key, message) == poly1305_mac(key, message)


def _int_group_fold(message: bytes, powers: list) -> int:
    """The group fold in plain integers: each group's blocks (high bit
    set) dotted with ``powers``, folded by Horner's rule in ``r^k``."""
    p, group = (1 << 130) - 5, len(powers)
    accumulator = 0
    for start in range(0, len(message), 16 * group):
        blocks = [
            int.from_bytes(message[o : o + 16], "little") | 1 << 128
            for o in range(start, start + 16 * group, 16)
        ]
        accumulator = (accumulator * powers[0] + sum(map(mul, blocks, powers))) % p
    return accumulator


def test_poly1305_group_evaluators_agree():
    """The float64 Toeplitz product equals the pure-int group fold."""
    for size in (512, 1024, 2048, 4096, 16384):
        r = int.from_bytes(_random_bytes(16), "little") & _poly_fast._R_CLAMP
        powers = _poly_fast._powers_of_r(r)
        message = _random_bytes(size)
        assert _poly_fast._grouped_numpy(
            memoryview(message), size, powers, powers[0]
        ) == _int_group_fold(message, powers)


#: The largest AEAD input of a TLS record: a 5-byte header padded to 16,
#: a 2^14 + 256-byte TLSCiphertext less its 16-byte tag, and the length
#: block.
LARGEST_MAC_INPUT = 16 + (2**14 + 256 - 16) + 16


def _exactness_edge_sizes():
    """Every group boundary from ``MIN_BATCH_BYTES`` to the largest AEAD
    input, one block and one byte either side, and partial tails."""
    group = _poly_fast._GROUP_BYTES
    sizes = set()
    for edge in range(_poly_fast.MIN_BATCH_BYTES, LARGEST_MAC_INPUT + group, group):
        sizes.update(edge + delta for delta in (-16, -1, 0, 1, 15, 16, 17, group - 1))
    sizes.add(LARGEST_MAC_INPUT)
    return sorted(s for s in sizes if _poly_fast.MIN_BATCH_BYTES <= s <= LARGEST_MAC_INPUT)


def test_poly1305_exactness_edges_all_ones():
    """All-0xFF messages under the largest clamped ``r`` and an all-0xFF
    ``s``: the largest message limbs the float64 product ever sees, at
    every group count the AEAD can hand it."""
    key = _poly_fast._R_CLAMP.to_bytes(16, "little") + b"\xff" * 16
    for size in _exactness_edge_sizes():
        message = b"\xff" * size
        assert poly1305_mac_fast(key, message) == poly1305_mac(key, message), size


def test_poly1305_numpy_evaluator_exact_at_the_limb_bound():
    """Every limb at its maximum — 0xFFFF message limbs against powers
    of 2^130 - 1, beyond what any real ``r^j mod p`` reaches — still
    matches the pure-int fold: no column sum loses a bit."""
    powers = [(1 << 130) - 1] * _poly_fast._GROUP_BLOCKS
    size = LARGEST_MAC_INPUT - LARGEST_MAC_INPUT % _poly_fast._GROUP_BYTES
    message = b"\xff" * size
    assert _poly_fast._grouped_numpy(
        memoryview(message), size, powers, powers[0]
    ) == _int_group_fold(message, powers)


def test_poly1305_accepts_memoryview():
    key = _random_bytes(32)
    message = _random_bytes(5000)
    assert poly1305_mac_fast(key, memoryview(message)) == poly1305_mac(key, message)


def test_poly1305_reads_wide_item_buffers_as_bytes():
    """A bytes-like object with items wider than a byte is MACed over
    its raw bytes, not truncated to its item count."""
    key = _random_bytes(32)
    for size in (8, 200, 1600, 4992, 16384):
        message = _random_bytes(size)
        words = array("Q")
        words.frombytes(message)
        assert poly1305_mac_fast(key, words) == poly1305_mac(key, message), size
        halves = memoryview(message).cast("I")
        assert poly1305_mac_fast(key, halves) == poly1305_mac(key, message), size


def test_constant_time_equal_is_compare_digest():
    assert constant_time_equal(b"abc", b"abc")
    assert not constant_time_equal(b"abc", b"abd")
    assert not constant_time_equal(b"abc", b"abcd")
    # Reference semantics of the original per-byte loop: equal iff same
    # length and same content.
    for _ in range(50):
        a = _random_bytes(_RNG.randrange(0, 64))
        b = bytearray(a)
        if b and _RNG.random() < 0.7:
            b[_RNG.randrange(len(b))] ^= 1 << _RNG.randrange(8)
        assert constant_time_equal(a, bytes(b)) == (a == bytes(b))


# ----------------------------------------------------------------------
# ChaCha20 keystream batching
# ----------------------------------------------------------------------

def test_chacha20_keystream_multi_matches_block():
    key = _random_bytes(32)
    nonces = [_random_bytes(12) for _ in range(5)]
    blocks_per_nonce = 4
    stream = chacha20_keystream_multi(key, nonces, 0, blocks_per_nonce)
    assert len(stream) == len(nonces) * blocks_per_nonce * 64
    for n_index, nonce in enumerate(nonces):
        for b_index in range(blocks_per_nonce):
            offset = (n_index * blocks_per_nonce + b_index) * 64
            assert stream[offset : offset + 64] == chacha20_block(
                key, b_index, nonce
            ), (n_index, b_index)


def _block_stream(key, counter, nonce, n_blocks):
    """The RFC 8439 reference: one ``chacha20_block`` per block."""
    return b"".join(
        chacha20_block(key, counter + index, nonce) for index in range(n_blocks)
    )


def test_lane_keystream_matches_block_for_every_count():
    key = _random_bytes(32)
    nonce = _random_bytes(12)
    assert chacha20_keystream_lanes(key, 0, nonce, 0) == b""
    for n_blocks in range(1, 131):
        assert chacha20_keystream_lanes(key, 0, nonce, n_blocks) == _block_stream(
            key, 0, nonce, n_blocks
        ), n_blocks


def test_lane_keystream_counter_straddles_2_to_the_32():
    key = _random_bytes(32)
    nonce = _random_bytes(12)
    for counter in (2**32 - 5, 2**32 - 1, 2**32, 2**32 + 3):
        for n_blocks in (1, 2, 7, 9):
            assert chacha20_keystream_lanes(
                key, counter, nonce, n_blocks
            ) == _block_stream(key, counter, nonce, n_blocks), (counter, n_blocks)


def test_lane_keystream_matches_block_at_full_record_size():
    # OTK block + the 257 payload blocks of a maximum-size TLS record.
    key = _random_bytes(32)
    nonce = _random_bytes(12)
    assert chacha20_keystream_lanes(key, 0, nonce, 258) == _block_stream(key, 0, nonce, 258)


def test_rfc8439_vectors_through_the_lane_path():
    # 2.3.2: the block function, counter 1.
    key = bytes(range(32))
    assert chacha20_keystream_lanes(
        key, 1, bytes.fromhex("000000090000004a00000000"), 1
    ) == bytes.fromhex(
        "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
        "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
    )
    # 2.4.2: counter-mode encryption, and 2.8.2: the AEAD construction.
    sunscreen = (
        b"Ladies and Gentlemen of the class of '99: If I could offer you "
        b"only one tip for the future, sunscreen would be it."
    )
    stream = chacha20_keystream_lanes(key, 1, bytes.fromhex("000000000000004a00000000"), 2)
    assert xor_keystream(sunscreen, stream) == bytes.fromhex(
        "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
        "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
        "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
        "5af90bbf74a35be6b40b8eedf2785e42874d"
    )
    key = bytes(range(0x80, 0xA0))
    nonce = bytes.fromhex("070000004041424344454647")
    aad = bytes.fromhex("50515253c0c1c2c3c4c5c6c7")
    aead = ChaCha20Poly1305(key)
    sealed = aead.encrypt(nonce, sunscreen, aad)
    assert sealed == bytes.fromhex(
        "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6"
        "3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36"
        "92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc"
        "3ff4def08e4b7a9de576d26586cec64b6116"
        "1ae10b594f09e26a7e902ecbd0600691"
    )
    assert rfc8439_seal(key, nonce, sunscreen, aad) == sealed
    assert aead.decrypt(nonce, sealed, aad) == sunscreen


# ----------------------------------------------------------------------
# AEAD vs the RFC 8439 construction, and the keystream-slice entry points
# ----------------------------------------------------------------------

def test_aead_seal_open_matches_scalar_baseline():
    for size in (0, 1, 16, 511, 512, 1024, 3000, 3040, 3072, 4096, 16384):
        key = _random_bytes(32)
        nonce = _random_bytes(12)
        aad = _random_bytes(_RNG.randrange(0, 48))
        plaintext = _random_bytes(size)
        aead = ChaCha20Poly1305(key)
        fast = aead.encrypt(nonce, plaintext, aad)
        assert fast == rfc8439_seal(key, nonce, plaintext, aad), size
        assert aead.decrypt(nonce, fast, aad) == plaintext


def test_aead_small_record_matches_scalar_for_every_length():
    """Every payload length the lane-packed path serves below the bulk
    lookahead, against the RFC reference construction."""
    key = _random_bytes(32)
    aead = ChaCha20Poly1305(key)
    for size in range(0, 1101):
        nonce = _random_bytes(12)
        aad = _random_bytes(_RNG.randrange(0, 32))
        plaintext = _random_bytes(size)
        fast = aead.encrypt(nonce, plaintext, aad)
        assert fast == rfc8439_seal(key, nonce, plaintext, aad), size
        assert aead.decrypt(nonce, fast, aad) == plaintext, size


@settings(max_examples=60, deadline=None)
@given(
    key=st.binary(min_size=32, max_size=32),
    nonce=st.binary(min_size=12, max_size=12),
    plaintext=st.binary(max_size=1100),
    aad=st.binary(max_size=64),
)
def test_aead_seal_open_matches_scalar_property(key, nonce, plaintext, aad):
    aead = ChaCha20Poly1305(key)
    fast = aead.encrypt(nonce, plaintext, aad)
    assert aead.decrypt(nonce, fast, aad) == plaintext
    assert fast == rfc8439_seal(key, nonce, plaintext, aad)


def test_aead_keystream_slice_entry_points():
    key = _random_bytes(32)
    nonce = _random_bytes(12)
    aad = _random_bytes(13)
    plaintext = _random_bytes(3000)
    blocks = 1 + (len(plaintext) + 63) // 64
    keystream = memoryview(chacha20_keystream_multi(key, [nonce], 0, blocks))
    sealed_ref = ChaCha20Poly1305(key).encrypt(nonce, plaintext, aad)
    assert _aead.seal_with_keystream(keystream, plaintext, aad) == sealed_ref
    assert _aead.open_with_keystream(keystream, sealed_ref, aad) == plaintext
    tampered = bytearray(sealed_ref)
    tampered[7] ^= 1
    with pytest.raises(CryptoError):
        _aead.open_with_keystream(keystream, bytes(tampered), aad)


# ----------------------------------------------------------------------
# Record-layer lookahead cache
# ----------------------------------------------------------------------

def test_record_lookahead_seal_matches_scalar():
    # Mix sizes so the series crosses the lookahead threshold both ways
    # and forces cache regeneration (larger record after a small window).
    sizes = [100, 2048, 2048, 16000, 64, 16000, 1024, 4096, 300, 8192]
    keys = TrafficKeys.from_secret(b"\x31" * 32)
    state = CipherState(keys)
    inners, aads, fast = [], [], []
    for index, size in enumerate(sizes):
        inner = bytes([index & 0xFF]) * size + bytes([ContentType.APPLICATION_DATA])
        aad = record_header(ContentType.APPLICATION_DATA, len(inner) + TAG_LENGTH)
        fast.append(state.seal(inner, aad))
        state.advance()
        inners.append(inner)
        aads.append(aad)
    assert fast == reference_records(keys, inners, aads)


def test_record_lookahead_open_and_failed_trial():
    keys = TrafficKeys.from_secret(b"\x32" * 32)
    sender = CipherState(keys)
    receiver = CipherState(keys)
    wrong = CipherState(TrafficKeys.from_secret(b"\x33" * 32))
    for size in (2048, 16000, 2048):
        inner = b"\xaa" * size + bytes([ContentType.APPLICATION_DATA])
        aad = record_header(ContentType.APPLICATION_DATA, len(inner) + TAG_LENGTH)
        sealed = sender.seal(inner, aad)
        sender.advance()
        # A failed trial decryption must not advance the wrong context.
        with pytest.raises(CryptoError):
            wrong.open(sealed, aad)
        assert wrong.sequence == 0
        assert receiver.open(sealed, aad) == inner
        receiver.advance()


def test_record_rekey_drops_lookahead_cache():
    keys = TrafficKeys.from_secret(b"\x34" * 32)
    fast_state = CipherState(keys)
    inner = b"\xbb" * 4096 + bytes([ContentType.APPLICATION_DATA])
    aad = record_header(ContentType.APPLICATION_DATA, len(inner) + TAG_LENGTH)
    fast_state.seal(inner, aad)  # populates the cache
    fast_state.rekey()
    sealed_fast = fast_state.seal(inner, aad)
    assert sealed_fast == reference_records(keys.next_generation(), [inner], [aad])[0]


def test_short_record_inside_a_window_uses_the_window(monkeypatch):
    """A short record whose sequence lies inside an already generated
    lookahead window (tail of a bulk write, a control frame on the data
    context) is served from it: no second keystream pass of any kind."""
    from repro.tls import record as _record

    windows = []
    generate = _record.chacha20_keystream_multi

    def counting(key, nonces, counter, blocks_per_nonce):
        windows.append(blocks_per_nonce)
        return generate(key, nonces, counter, blocks_per_nonce)

    monkeypatch.setattr(_record, "chacha20_keystream_multi", counting)

    class _MustNotBeUsed:
        def __getattr__(self, name):
            raise AssertionError(f"per-record AEAD .{name} used inside a live window")

    def records(state, sizes):
        out = []
        for size in sizes:
            inner = b"\xcc" * size + bytes([ContentType.APPLICATION_DATA])
            aad = record_header(ContentType.APPLICATION_DATA, len(inner) + TAG_LENGTH)
            out.append((state.seal(inner, aad), aad, inner))
            state.advance()
        return out

    # A window opens on evidence of a stream: four full-size records take
    # two per-record passes and a two-record window; the fifth opens a
    # four-record window at sequence 4, which the short ones then share.
    run, tail = (16000,) * 4, (16000, 100, 1)
    keys = TrafficKeys.from_secret(b"\x35" * 32)
    sender = CipherState(keys)
    sealed = records(sender, run)
    assert len(windows) == 1
    first_inner = b"\xcc" * 16000 + bytes([ContentType.APPLICATION_DATA])
    first_aad = record_header(ContentType.APPLICATION_DATA, len(first_inner) + TAG_LENGTH)
    sender.seal(first_inner, first_aad)  # opens the window at sequence 4
    sender.aead = _MustNotBeUsed()
    sealed += records(sender, tail)
    assert len(windows) == 2
    assert reference_records(
        keys, [inner for _, _, inner in sealed], [aad for _, aad, _ in sealed]
    ) == [record for record, _, _ in sealed]
    receiver = CipherState(keys)
    for index, (record, aad, inner) in enumerate(sealed):
        assert receiver.open(record, aad) == inner
        if index == len(run):
            receiver.aead = _MustNotBeUsed()
        receiver.advance()
    assert len(windows) == 4  # two per direction, none for the short records


# ----------------------------------------------------------------------
# Trial decryption of short records (a failed open no window covers
# keeps its own pass as a one-slot window: tls/record.py, EXPERIMENTS P14)
# ----------------------------------------------------------------------

def _short_record(state, size):
    inner = bytes([size & 0xFF]) * size + bytes([ContentType.APPLICATION_DATA])
    aad = record_header(ContentType.APPLICATION_DATA, len(inner) + TAG_LENGTH)
    sealed = state.seal(inner, aad)
    state.advance()
    return sealed, aad, inner


def test_failed_trial_then_owner_opens_at_the_same_sequence():
    own = TrafficKeys.from_secret(b"\x41" * 32)
    foreign = CipherState(TrafficKeys.from_secret(b"\x40" * 32))
    sender, receiver = CipherState(own), CipherState(own)
    # A stray record longer and one shorter than the record the context owns.
    for stray_size, size in ((300, 200), (40, 400)):
        stray, stray_aad, _ = _short_record(foreign, stray_size)
        mine, aad, inner = _short_record(sender, size)
        sequence = receiver.sequence
        with pytest.raises(CryptoError):
            receiver.open(stray, stray_aad)  # trial decryption
        tampered = bytearray(mine)
        tampered[-1] ^= 0x01
        with pytest.raises(CryptoError):
            receiver.open(bytes(tampered), aad)
        assert receiver.sequence == sequence
        assert receiver.open(mine, aad) == inner
        receiver.advance()
