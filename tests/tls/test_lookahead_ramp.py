"""The keystream window rule, pinned by counts instead of timings.

``CipherState`` opens a numpy keystream window, for records of every
size, only on evidence of a stream and only where ``window_pays``: never
more records ahead than the key has already consumed.  A record no
window covers takes one pass of its own: the lane-packed one, or from 60
blocks the single-record numpy one.  These tests count the calls that
generate keystream (the window generator, the per-record lane pass and
the per-record numpy pass, all wrapped from outside) and compare every
byte against the RFC 8439 reference.  CI's perf-smoke job fails if any
of them is skipped.
"""

import pytest

from repro.crypto import aead as _aead
from repro.crypto.aead import TAG_LENGTH
from repro.crypto.keyschedule import TrafficKeys
from repro.scale.loadgen import ScaleConfig, run_scale
from repro.tls import record as _record
from repro.tls.record import (
    LOOKAHEAD_RECORDS,
    CipherState,
    ContentType,
    record_header,
    window_pays,
)
from repro.utils.errors import CryptoError
from tests.crypto.test_fastpath_crypto import reference_records

FULL = (1 << 14) - 1  # payload of a full-size record


class _Counts:
    def __init__(self):
        self.windows = []  # (key, records, blocks per record)
        self.bases = []  # first sequence number of each window
        self.lane_blocks = 0
        self.single = []  # blocks of each single-record numpy pass

    @property
    def blocks_generated(self):
        windows = sum(r * b for _, r, b in self.windows)
        return self.lane_blocks + sum(self.single) + windows


@pytest.fixture
def counts(monkeypatch):
    seen = _Counts()
    window, lanes = _record.chacha20_keystream_multi, _aead.chacha20_keystream_lanes
    single = _aead.chacha20_keystream_multi

    def counting_window(key, nonces, counter, blocks_per_nonce):
        seen.windows.append((key, len(nonces), blocks_per_nonce))
        seen.bases.append(nonces[0])
        return window(key, nonces, counter, blocks_per_nonce)

    def counting_lanes(key, counter, nonce, n_blocks):
        seen.lane_blocks += n_blocks
        return lanes(key, counter, nonce, n_blocks)

    def counting_single(key, nonces, counter, blocks_per_nonce):
        assert len(nonces) == 1
        seen.single.append(blocks_per_nonce)
        return single(key, nonces, counter, blocks_per_nonce)

    monkeypatch.setattr(_record, "chacha20_keystream_multi", counting_window)
    monkeypatch.setattr(_aead, "chacha20_keystream_lanes", counting_lanes)
    monkeypatch.setattr(_aead, "chacha20_keystream_multi", counting_single)
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


def _base(keys, nonce):
    """The sequence number a window's first nonce (``iv XOR seq``) is for."""
    return int.from_bytes(nonce, "big") ^ int.from_bytes(keys.iv, "big")


def _first_window(blocks):
    """Smallest ``W`` the cost rule opens for slots of ``blocks``."""
    return next(w for w in range(1, LOOKAHEAD_RECORDS + 1) if window_pays(w, blocks))


def test_failed_trial_under_a_live_window_generates_no_keystream(counts):
    """Paper section 2.3's trial decryption under a window costs one MAC:
    the tag is checked from the slot's block 0 before any payload
    keystream, so neither a lane pass nor a window runs."""
    keys = _keys(1)
    sender, receiver = CipherState(keys), CipherState(keys)
    foreign = CipherState(_keys(11))
    for _ in range(40):
        sealed, aad, inner = _seal(sender, 150)
        assert _open(receiver, sealed, aad) == inner
    (_, records, _), base = counts.windows[-1], _base(keys, counts.bases[-1])
    assert base <= 40 < base + records  # the receiver's window covers the next record
    # Shorter, equal, longer than the slot.
    strays = [_seal(foreign, size)[:2] for size in (21, 150, 406, FULL)]
    before = (counts.lane_blocks, len(counts.windows))
    for stray, stray_aad in strays:
        with pytest.raises(CryptoError):
            receiver.open(stray, stray_aad)
    assert (counts.lane_blocks, len(counts.windows)) == before
    assert receiver.sequence == 40
    sealed, aad, inner = _seal(sender, 150)
    assert _open(receiver, sealed, aad) == inner


def test_failed_trial_at_an_uncovered_sequence_opens_no_window(counts):
    """overload_2x's shape: a key carries a two-record 16 KiB response,
    then a control record is tried on it first.  The sender would open
    a 2-slot window at that sequence, but a receiver opens one only after
    a tag verified there, so the failed trial pays its lane pass and no
    window is generated that nothing would use."""
    keys = _keys(16)
    sender, receiver = CipherState(keys), CipherState(keys)
    for _ in range(2):
        sealed, aad, inner = _seal(sender, 8192)
        assert _open(receiver, sealed, aad) == inner
    stray, stray_aad, _ = _seal(CipherState(_keys(17)), 20)
    lanes_before = counts.lane_blocks
    with pytest.raises(CryptoError):
        receiver.open(stray, stray_aad)
    assert counts.windows == []
    assert counts.lane_blocks - lanes_before == 2  # block 0 and the payload block


def test_no_window_covers_more_records_than_the_run_consumed(counts):
    """A window of W slots from sequence ``base`` opens once the key has
    sealed or authenticated ``base`` records (the receiver's opens after
    the record at ``base - 1`` verified), so W <= base always."""
    keys = _keys(12)
    sender, receiver = CipherState(keys), CipherState(keys)
    sizes = [(index * 37) % 601 for index in range(150)] + [FULL] * 70 + [21] * 40
    for size in sizes:
        sealed, aad, inner = _seal(sender, size)
        assert _open(receiver, sealed, aad) == inner
    assert len(counts.windows) > 10
    for (_, records, _), nonce in zip(counts.windows, counts.bases):
        assert 2 <= records <= min(LOOKAHEAD_RECORDS, _base(keys, nonce))


@pytest.mark.parametrize("size", [0, 21, 150, 406, 2048, 8192, FULL])
def test_windows_open_only_where_the_cost_rule_says(counts, size):
    """For a stream of one record size the sender opens its first window
    at the first sequence ``window_pays`` accepts, again after a key
    update, and every window opened on either side is one the rule
    accepts for its slot size."""
    keys = _keys(13)
    blocks = 1 + (size + 1 + 63) // 64
    first = _first_window(blocks)
    sender, receiver = CipherState(keys), CipherState(keys)
    for _ in range(first):
        _seal(sender, size)
    assert counts.windows == []
    _seal(sender, size)
    assert counts.windows == [(keys.key, first, blocks)]
    assert _base(keys, counts.bases[0]) == first
    sender.rekey()  # the run restarts with the new key's sequence numbers
    for _ in range(first):
        _seal(sender, size)
    assert len(counts.windows) == 1
    _seal(sender, size)
    assert counts.windows[-1] == (sender.keys.key, first, blocks)
    sender = CipherState(keys)
    for _ in range(3 * LOOKAHEAD_RECORDS):
        sealed, aad, inner = _seal(sender, size)
        assert _open(receiver, sealed, aad) == inner
    assert all(window_pays(records, b) for _, records, b in counts.windows)
    assert {b for _, _, b in counts.windows} == {blocks}


def test_small_record_series_reaches_full_windows(counts):
    """small_rpc's shape: 150-byte requests on one key, 21-byte control
    records on another.  Both reach full windows on both sides, and only
    the records before the first window take a lane pass."""
    data_keys, control_keys = _keys(14), _keys(15)
    for keys, size in ((data_keys, 150), (control_keys, 21)):
        sender, receiver = CipherState(keys), CipherState(keys)
        lane_before = counts.lane_blocks
        records = 4 * LOOKAHEAD_RECORDS
        sealed_series = [_seal(sender, size) for _ in range(records)]
        for sealed, aad, inner in sealed_series:
            assert _open(receiver, sealed, aad) == inner
        assert [s for s, _, _ in sealed_series] == reference_records(
            keys, [i for _, _, i in sealed_series], [a for _, a, _ in sealed_series]
        )
        blocks = 1 + (size + 1 + 63) // 64
        first = _first_window(blocks)
        # The sender's first ``first`` records and the receiver's first
        # ``first + 1`` (its window opens after a verified record).
        assert counts.lane_blocks - lane_before == (2 * first + 1) * blocks
        sizes = [r for key, r, _ in counts.windows if key == keys.key]
        assert sizes[-2:] == [LOOKAHEAD_RECORDS] * 2


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
    # The two records before any evidence: one numpy pass each, no lanes.
    assert (counts.single, counts.lane_blocks) == ([257, 257], 0)


@pytest.mark.parametrize(
    "size, lane_blocks, single",
    [(58 * 64 - 1, 2 * 59, []), (58 * 64, 0, [60, 60])],
    ids=["59-blocks", "60-blocks"],
)
def test_a_record_no_window_covers_takes_the_cheaper_pass(counts, size, lane_blocks, single):
    """Either side of the dispatch (``numpy_pass_us(1, b) < lane_pass_us(b)``
    from b = 60): one record sealed and opened, each in one pass of the
    kind the cost model picks, byte-identical to the RFC 8439 composition."""
    keys = _keys(9)
    sender, receiver = CipherState(keys), CipherState(keys)
    sealed, aad, inner = _seal(sender, size)
    assert sealed == reference_records(keys, [inner], [aad])[0]
    assert _open(receiver, sealed, aad) == inner
    assert (counts.lane_blocks, counts.single, counts.windows) == (lane_blocks, single, [])


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
