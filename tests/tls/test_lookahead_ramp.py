"""The keystream lookahead ramp, pinned by counts instead of timings.

``CipherState`` opens a numpy keystream window only on evidence of a
stream: never more records ahead than the current run of large records
on that key has already consumed.  These tests count the calls that
generate keystream (the window generator and the per-record lane pass,
both wrapped from outside) and compare every byte against the RFC 8439
reference.  CI's perf-smoke job fails if any of them is skipped.
"""

import pytest

from repro.crypto import aead as _aead
from repro.crypto.aead import TAG_LENGTH
from repro.crypto.keyschedule import TrafficKeys
from repro.scale.loadgen import ScaleConfig, run_scale
from repro.tls import record as _record
from repro.tls.record import LOOKAHEAD_RECORDS, CipherState, ContentType, record_header
from repro.utils.errors import CryptoError
from tests.crypto.test_fastpath_crypto import reference_records

FULL = (1 << 14) - 1  # payload of a full-size record


class _Counts:
    def __init__(self):
        self.windows = []  # (key, records, blocks per record)
        self.lane_blocks = 0

    @property
    def blocks_generated(self):
        return self.lane_blocks + sum(r * b for _, r, b in self.windows)


@pytest.fixture
def counts(monkeypatch):
    if not _aead.HAVE_NUMPY:
        pytest.skip("numpy unavailable: no lookahead window")
    seen = _Counts()
    window, lanes = _record.chacha20_keystream_multi, _aead.chacha20_keystream_lanes

    def counting_window(key, nonces, counter, blocks_per_nonce):
        seen.windows.append((key, len(nonces), blocks_per_nonce))
        return window(key, nonces, counter, blocks_per_nonce)

    def counting_lanes(key, counter, nonce, n_blocks):
        seen.lane_blocks += n_blocks
        return lanes(key, counter, nonce, n_blocks)

    monkeypatch.setattr(_record, "chacha20_keystream_multi", counting_window)
    monkeypatch.setattr(_aead, "chacha20_keystream_lanes", counting_lanes)
    return seen


def _keys(byte):
    return TrafficKeys.from_secret(bytes([byte]) * 32)


def _seal(state, size, fill=0xAB):
    inner = bytes([fill]) * size + bytes([ContentType.APPLICATION_DATA])
    aad = record_header(ContentType.APPLICATION_DATA, len(inner) + TAG_LENGTH)
    sealed = state.seal(inner, aad)
    state.advance()
    return sealed, aad, inner


def _open(state, sealed, aad):
    inner = state.open(sealed, aad)
    state.advance()
    return inner


def test_lone_large_record_between_small_ones_opens_no_window(counts):
    sender, receiver = CipherState(_keys(1)), CipherState(_keys(1))
    for size in (64, 200, 384, 2048, 384, 64, 2048, 100):
        sealed, aad, inner = _seal(sender, size)
        assert _open(receiver, sealed, aad) == inner
    assert counts.windows == []


def test_two_record_response_opens_no_window(counts):
    sender, receiver = CipherState(_keys(2)), CipherState(_keys(2))
    for size in (8192, 8192):
        sealed, aad, inner = _seal(sender, size)
        assert _open(receiver, sealed, aad) == inner
    assert counts.windows == []


def test_failed_trial_open_neither_opens_a_window_nor_extends_the_run(counts):
    """Trial decryption (paper section 2.3) offers every record to
    contexts that do not own it; those failures are not evidence of a
    stream on *their* key, however often they repeat."""
    owner_keys, other_keys = _keys(3), _keys(4)
    sender, owner, other = (
        CipherState(owner_keys), CipherState(owner_keys), CipherState(other_keys)
    )
    for _ in range(6):
        sealed, aad, inner = _seal(sender, FULL)
        for _ in range(3):  # the same sequence, again and again
            with pytest.raises(CryptoError):
                other.open(sealed, aad)
        assert other.sequence == 0
        assert _open(owner, sealed, aad) == inner
    assert {key for key, _, _ in counts.windows} == {owner_keys.key}
    # The other context's own stream starts its ramp from nothing.
    other_sender = CipherState(other_keys)
    for _ in range(2):
        sealed, aad, inner = _seal(other_sender, FULL)
        assert _open(other, sealed, aad) == inner
    assert {key for key, _, _ in counts.windows} == {owner_keys.key}
    sealed, aad, inner = _seal(other_sender, FULL)
    assert _open(other, sealed, aad) == inner
    assert counts.windows[-2:] == [(other_keys.key, 2, 257)] * 2  # seal, then open


def test_bulk_stream_ramps_to_full_windows(counts):
    state = CipherState(_keys(5))
    consumed = 0
    for _ in range(64):
        _seal(state, FULL)
        consumed += 257
        assert counts.blocks_generated <= 2 * consumed
    sizes = [records for _, records, _ in counts.windows]
    assert sizes == [2, 4, 8, 16, LOOKAHEAD_RECORDS]
    assert counts.lane_blocks == 2 * 257  # the two records before any evidence


def test_rekey_restarts_the_ramp(counts):
    state = CipherState(_keys(6))
    for _ in range(6):
        _seal(state, FULL)
    assert [records for _, records, _ in counts.windows] == [2, 4]
    state.rekey()
    for _ in range(2):
        _seal(state, FULL)
    assert len(counts.windows) == 2  # new key, no evidence yet
    _seal(state, FULL)
    assert counts.windows[-1] == (state.keys.key, 2, 257)


def test_mixed_series_is_byte_identical_to_the_scalar_reference(counts):
    sizes = (
        [100, 2048, 64] + [16000] * 9 + [50] + [4096] * 5 + [FULL] * 3
        + [1024] * 4 + [8192, 300, 8192, 8192, 8192, 1, 0, 1023, 1024] + [FULL] * 35
    )

    def series(state):
        return [_seal(state, size, fill=index & 0xFF) for index, size in enumerate(sizes)]

    fast = series(CipherState(_keys(7)))
    assert counts.windows  # the series does cross into windows
    assert [sealed for sealed, _, _ in fast] == reference_records(
        _keys(7), [inner for _, _, inner in fast], [aad for _, aad, _ in fast]
    )
    receiver = CipherState(_keys(7))
    for sealed, aad, inner in fast:
        assert _open(receiver, sealed, aad) == inner


def test_sixteen_session_churn_world_opens_no_window(counts):
    """Handshake flights and one 2 KiB response per request: no key ever
    carries a stream, so nothing is generated ahead."""
    result = run_scale(
        ScaleConfig(sessions=16, reuse_fraction=0.25, client_hosts=2, arrival_span=0.2)
    )
    assert result.requests_completed == result.requests_started == 20
    assert counts.windows == []
