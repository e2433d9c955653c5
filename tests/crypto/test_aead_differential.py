"""ChaCha20-Poly1305 against an implementation that shares nothing with
ours: OpenSSL, through ``cryptography``.  Same sealed bytes, same
verdicts -- on the lane-packed path records outside a window take, the
batched Poly1305 of long records, the record layer's keystream windows
(records shorter and longer than their slot) and trial decryption
across two contexts.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytest.importorskip("cryptography")

from cryptography.exceptions import InvalidTag  # noqa: E402
from cryptography.hazmat.primitives.ciphers.aead import (  # noqa: E402
    ChaCha20Poly1305 as OpenSslAead,
)

from repro.core.contexts import ContextManager  # noqa: E402
from repro.crypto import aead as _aead  # noqa: E402
from repro.crypto import poly1305_fast as _poly_fast  # noqa: E402
from repro.crypto.aead import TAG_LENGTH, ChaCha20Poly1305  # noqa: E402
from repro.crypto.keyschedule import TrafficKeys  # noqa: E402
from repro.crypto.poly1305_fast import MIN_BATCH_BYTES  # noqa: E402
from repro.tls import record as _record  # noqa: E402
from repro.tls.record import (  # noqa: E402
    CipherState,
    ContentType,
    RecordDecoder,
    record_header,
)
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
    """The MAC input lengths the Poly1305 group evaluator ran on."""
    calls = []
    grouped = _poly_fast._grouped_numpy

    def counting(view, *args):
        calls.append(len(view))
        return grouped(view, *args)

    monkeypatch.setattr(_poly_fast, "_grouped_numpy", counting)
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


@pytest.fixture
def keystream_calls(monkeypatch):
    """Every keystream generation in order: ``("window", records)`` or
    ``("lanes", first counter)``.  A lane pass from counter 1 or more
    completes a window slot shorter than its record."""
    calls = []
    window, lanes = _record.chacha20_keystream_multi, _aead.chacha20_keystream_lanes

    def counting_window(key, nonces, counter, blocks_per_nonce):
        calls.append(("window", len(nonces)))
        return window(key, nonces, counter, blocks_per_nonce)

    def counting_lanes(key, counter, nonce, n_blocks):
        calls.append(("lanes", counter))
        return lanes(key, counter, nonce, n_blocks)

    monkeypatch.setattr(_record, "chacha20_keystream_multi", counting_window)
    monkeypatch.setattr(_aead, "chacha20_keystream_lanes", counting_lanes)
    return calls


def _inner_and_aad(fill: int, size: int):
    inner = bytes([fill & 0xFF]) * size + bytes([ContentType.APPLICATION_DATA])
    return inner, record_header(ContentType.APPLICATION_DATA, len(inner) + TAG_LENGTH)


def test_mixed_small_records_through_windows_agree(keystream_calls):
    """Records of 0-600 bytes open windows of every small slot size, and
    many are longer than their slot: each one, sealed and opened by
    ``CipherState``, against OpenSSL at ``nonce_for(sequence)``."""
    rng = random.Random(27)
    keys = TrafficKeys.from_secret(b"\x53" * 32)
    theirs = OpenSslAead(keys.key)
    sender, receiver = CipherState(keys), CipherState(keys)
    for sequence in range(240):
        inner, aad = _inner_and_aad(sequence, rng.randrange(0, 601))
        nonce = keys.nonce_for(sequence)
        sealed = sender.seal(inner, aad)
        assert sealed == theirs.encrypt(nonce, inner, aad), sequence
        assert receiver.open(sealed, aad) == inner
        sender.advance()
        receiver.advance()
    assert ("window", _record.LOOKAHEAD_RECORDS) in keystream_calls
    completions = [c for kind, c in keystream_calls if kind == "lanes" and c >= 1]
    assert len(completions) >= 20  # opens of records longer than their slot


def test_interleaved_contexts_trial_decryption_agrees(monkeypatch, keystream_calls):
    """small_rpc's receive pattern through the real trial loop
    (``ContextManager.open_record``): data, data, control on one
    connection, so every control record and every other data record is
    first offered to the wrong context.  OpenSSL must reject every
    failed trial under that context's key and sequence, and must open
    the owner's record to the same plaintext."""
    trials = []
    decrypt_with = RecordDecoder.decrypt_with

    def observed(state, ciphertext):
        nonce, lanes_before = state.next_nonce(), len(keystream_calls)
        try:
            opened = decrypt_with(state, ciphertext)
        except CryptoError:
            opened = None
        trials.append((state.keys.key, nonce, ciphertext, opened,
                       keystream_calls[lanes_before:]))
        if opened is None:
            raise CryptoError("trial failed")
        return opened

    monkeypatch.setattr(RecordDecoder, "decrypt_with", staticmethod(observed))

    def exporter(label, context, length):
        return hashlib.sha256(label.encode() + context).digest()[:length]

    client, server = ContextManager(exporter, True), ContextManager(exporter, False)
    for manager in (client, server):
        manager.install(0, 1, b"conn")
        manager.install(1, 1, b"conn")
    sizes = {0: 20, 1: 149}  # inner 21 and 150 bytes: a control frame, a request
    for index in range(150):
        stream_id = 0 if index % 3 == 2 else 1
        state = client.send_context(stream_id, 1)
        inner, aad = _inner_and_aad(index, sizes[stream_id])
        record = state.seal(inner, aad)
        state.advance()
        assert server.open_record(1, record) == (stream_id, inner[-1], inner[:-1])
    failed = 0
    for key, nonce, ciphertext, opened, generated in trials:
        aad = record_header(ContentType.APPLICATION_DATA, len(ciphertext))
        if opened is None:
            assert _theirs_rejects(key, nonce, ciphertext, aad)
            failed += not generated  # under a live window: no keystream at all
        else:
            plain = OpenSslAead(key).decrypt(nonce, ciphertext, aad)
            assert opened == (plain[-1], plain[:-1])
    assert len(trials) - 150 >= 90  # the failed trials
    assert failed >= 60


def test_flipped_bits_are_rejected_through_a_live_window(keystream_calls):
    """Tag, ciphertext and AAD bit flips of a record longer than its
    window slot: both sides reject every one, and ours generates no
    keystream doing so (the tag is checked from the slot's block 0)."""
    rng = random.Random(9)
    keys = TrafficKeys.from_secret(b"\x54" * 32)
    theirs = OpenSslAead(keys.key)
    sender, receiver = CipherState(keys), CipherState(keys)
    for sequence in range(40):
        inner, aad = _inner_and_aad(sequence, 149)
        receiver.open(sender.seal(inner, aad), aad)
        sender.advance()
        receiver.advance()
    inner, aad = _inner_and_aad(40, 600)
    sealed, nonce = sender.seal(inner, aad), keys.nonce_for(40)
    generated = len(keystream_calls)
    tag_at = (len(sealed) - TAG_LENGTH) * 8
    for _ in range(16):
        cases = {
            "tag": (_flip(sealed, tag_at + rng.randrange(TAG_LENGTH * 8)), aad),
            "ciphertext": (_flip(sealed, rng.randrange(tag_at)), aad),
            "aad": (sealed, _flip(aad, rng.randrange(len(aad) * 8))),
        }
        for name, (forged, forged_aad) in cases.items():
            with pytest.raises(CryptoError):
                receiver.open(forged, forged_aad)
            assert _theirs_rejects(keys.key, nonce, forged, forged_aad), name
    assert len(keystream_calls) == generated
    assert receiver.sequence == 40
    assert receiver.open(sealed, aad) == inner
    # The slot holds blocks 0-3 (150-byte records); one lane pass adds the rest.
    assert keystream_calls[generated:] == [("lanes", 4)]


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
