"""ChaCha20-Poly1305 against an implementation that shares nothing with
ours: OpenSSL, through ``cryptography``.  Same sealed bytes, same
verdicts -- on the lane-packed path every small record takes, the
batched Poly1305 of long records, and the record layer's lookahead
windows.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytest.importorskip("cryptography")

from cryptography.exceptions import InvalidTag  # noqa: E402
from cryptography.hazmat.primitives.ciphers.aead import (  # noqa: E402
    ChaCha20Poly1305 as OpenSslAead,
)

from repro.crypto import aead as _aead  # noqa: E402
from repro.crypto.aead import TAG_LENGTH, ChaCha20Poly1305  # noqa: E402
from repro.crypto.keyschedule import TrafficKeys  # noqa: E402
from repro.crypto.poly1305_fast import MIN_BATCH_BYTES  # noqa: E402
from repro.tls import record as _record  # noqa: E402
from repro.tls.record import CipherState, ContentType, record_header  # noqa: E402
from repro.utils.errors import CryptoError  # noqa: E402
from tests.crypto.test_ed25519 import _flip  # noqa: E402

FULL = (1 << 14) - 1  # payload of a full-size record


def _agree(key: bytes, nonce: bytes, plaintext: bytes, aad: bytes) -> bytes:
    """Seal on both sides, require the same bytes, open each other's."""
    ours, theirs = ChaCha20Poly1305(key), OpenSslAead(key)
    sealed = ours.encrypt(nonce, plaintext, aad)
    assert sealed == theirs.encrypt(nonce, plaintext, aad), len(plaintext)
    assert ours.decrypt(nonce, sealed, aad) == plaintext
    assert theirs.decrypt(nonce, sealed, aad) == plaintext
    return sealed


def _ours_rejects(key, nonce, sealed, aad) -> bool:
    try:
        ChaCha20Poly1305(key).decrypt(nonce, sealed, aad)
    except CryptoError:
        return True
    return False


def _theirs_rejects(key, nonce, sealed, aad) -> bool:
    try:
        OpenSslAead(key).decrypt(nonce, sealed, aad)
    except InvalidTag:
        return True
    return False


@pytest.fixture
def batched_macs(monkeypatch):
    """Count the tags computed by the batched Poly1305."""
    calls = []
    batched = _aead.poly1305_mac_fast

    def counting(key, data):
        calls.append(len(data))
        return batched(key, data)

    monkeypatch.setattr(_aead, "poly1305_mac_fast", counting)
    return calls


@settings(max_examples=60, deadline=None)
@given(
    key=st.binary(min_size=32, max_size=32),
    nonce=st.binary(min_size=12, max_size=12),
    plaintext=st.binary(max_size=5000),
    aad=st.binary(max_size=64),
)
def test_random_inputs_agree(key, nonce, plaintext, aad):
    _agree(key, nonce, plaintext, aad)


def test_every_lane_path_length_agrees():
    key, nonce, aad = bytes(range(32)), bytes(range(100, 112)), b"\x17\x03\x03"
    for size in range(0, 1101):
        _agree(key, nonce, bytes([size & 0xFF]) * size, aad)


def test_batched_poly1305_lengths_agree(batched_macs):
    """Around ``MIN_BATCH_BYTES`` of MAC input (AAD and ciphertext padded
    to 16 plus the 16-byte length block) and the largest record."""
    key, nonce, aad = b"\x5c" * 32, b"\x0b" * 12, b"\x17\x03\x03\x40\x11"
    edge = MIN_BATCH_BYTES - 16 - 16  # ciphertext at which the input hits the edge
    sizes = list(range(edge - 40, edge + 40)) + list(range(16350, 16420))
    for size in sizes:
        _agree(key, nonce, bytes([size & 0xFF]) * size, aad)
    assert batched_macs and min(batched_macs) == MIN_BATCH_BYTES


def test_record_series_through_lookahead_windows_agrees(monkeypatch):
    """Every record of a series long enough to ramp the window to its
    cap, sealed and opened by ``CipherState``, against OpenSSL at the
    record's ``nonce_for(sequence)``."""
    windows = []
    generate = _record.chacha20_keystream_multi

    def counting(key, nonces, counter, blocks_per_nonce):
        windows.append(len(nonces))
        return generate(key, nonces, counter, blocks_per_nonce)

    monkeypatch.setattr(_record, "chacha20_keystream_multi", counting)
    keys = TrafficKeys.from_secret(b"\x52" * 32)
    theirs = OpenSslAead(keys.key)
    sender, receiver = CipherState(keys), CipherState(keys)
    sizes = [FULL] * 40 + [100, 4096, 1, 3000] + [8192] * 6 + [0, FULL]
    for sequence, size in enumerate(sizes):
        inner = bytes([sequence & 0xFF]) * size + bytes([ContentType.APPLICATION_DATA])
        aad = record_header(ContentType.APPLICATION_DATA, len(inner) + TAG_LENGTH)
        nonce = keys.nonce_for(sequence)
        sealed = sender.seal(inner, aad)
        assert sealed == theirs.encrypt(nonce, inner, aad), sequence
        assert theirs.decrypt(nonce, sealed, aad) == inner
        # The receiver opens what OpenSSL sealed, through its own windows.
        assert receiver.open(theirs.encrypt(nonce, inner, aad), aad) == inner
        sender.advance()
        receiver.advance()
    assert max(windows) == _record.LOOKAHEAD_RECORDS


@settings(max_examples=40, deadline=None)
@given(
    key=st.binary(min_size=32, max_size=32),
    nonce=st.binary(min_size=12, max_size=12),
    plaintext=st.binary(min_size=1, max_size=4000),
    aad=st.binary(min_size=1, max_size=32),
    data=st.data(),
)
def test_flipped_bits_are_rejected_by_both(key, nonce, plaintext, aad, data):
    sealed = _agree(key, nonce, plaintext, aad)
    tag_bit = data.draw(st.integers(0, TAG_LENGTH * 8 - 1))
    text_bit = data.draw(st.integers(0, len(plaintext) * 8 - 1))
    aad_bit = data.draw(st.integers(0, len(aad) * 8 - 1))
    tag_at = (len(sealed) - TAG_LENGTH) * 8
    cases = {
        "tag": (_flip(sealed, tag_at + tag_bit), aad),
        "ciphertext": (_flip(sealed, text_bit), aad),
        "aad": (sealed, _flip(aad, aad_bit)),
        "truncated": (sealed[:-1], aad),
    }
    for name, (forged, forged_aad) in cases.items():
        assert _ours_rejects(key, nonce, forged, forged_aad), name
        assert _theirs_rejects(key, nonce, forged, forged_aad), name
