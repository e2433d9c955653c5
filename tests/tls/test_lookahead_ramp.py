"""The keystream window rule, pinned by counts instead of timings.

``CipherState`` (``repro/tls/record.py`` states the rule) gives a record
no window covers its keystream from a fresh-key window (a key's first
record of at most ``FRESH_BLOCKS`` blocks opens ``FRESH_RECORDS`` slots),
a run window (never more records ahead than the key has consumed, only
where ``window_pays``), or the open's own pass kept as a one-slot window
when its tag fails.  Each window is one pass,
lane-packed or numpy, whichever is cheaper.  These tests count the calls
that generate keystream (the record layer's numpy window, and the AEAD's
lane pass and one-record numpy pass, all wrapped from outside) and
compare every byte against the RFC 8439 reference.  CI's perf-smoke job
fails if any of them is skipped.
"""

import sys
from pathlib import Path

import pytest

from repro.crypto import aead as _aead
from repro.crypto.aead import TAG_LENGTH
from repro.crypto.keyschedule import TrafficKeys
from repro.scale.loadgen import ScaleConfig, run_scale
from repro.tls import record as _record
from repro.tls.record import (
    FRESH_RECORDS,
    LOOKAHEAD_RECORDS,
    CipherState,
    ContentType,
    record_header,
)
from repro.utils.errors import CryptoError
from tests.crypto.test_fastpath_crypto import reference_records

FULL = (1 << 14) - 1  # payload of a full-size record


class _Counts:
    def __init__(self):
        self.windows = []  # (key, records, blocks per record) of numpy windows
        self.bases = []  # first nonce of each numpy window
        self.lane_blocks = 0  # every block a lane pass made
        self.single = []  # blocks of each one-record numpy pass
        self.passes = []  # every pass in order: (kind, counter, first nonce, records, blocks)

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
        seen.passes.append(("N", counter, nonces[0], len(nonces), blocks_per_nonce))
        return window(key, nonces, counter, blocks_per_nonce)

    def counting_lanes(key, counter, nonces, n_blocks):
        seen.lane_blocks += n_blocks * (len(nonces) // 12)
        seen.passes.append(("L", counter, nonces[:12], len(nonces) // 12, n_blocks))
        return lanes(key, counter, nonces, n_blocks)

    def counting_single(key, nonces, counter, blocks_per_nonce):
        assert len(nonces) == 1
        seen.single.append(blocks_per_nonce)
        seen.passes.append(("N", counter, nonces[0], 1, blocks_per_nonce))
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


def _tokens(keys, passes, blocks):
    """Passes as ``L`` (lane) or ``N`` (numpy) + first sequence, then
    ``x<records>`` for a window, ``+<counter>`` when not from block 0 and
    ``/<blocks>`` when not the record's block count: ``L0x4`` is a 4-slot
    lane window at sequence 0, ``L2/1`` a lone block 0 at sequence 2."""
    tokens = []
    for kind, counter, nonce, records, n_blocks in passes:
        token = f"{kind}{_base(keys, nonce)}"
        token += f"x{records}" if records > 1 else ""
        token += f"+{counter}" if counter else ""
        token += f"/{n_blocks}" if n_blocks != blocks else ""
        tokens.append(token)
    return " ".join(tokens)


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


#: size -> (blocks per record, the sender's passes over 96 records, the
#: receiver's passes opening them), in ``_tokens`` notation.  Up to
#: ``FRESH_BLOCKS`` the first record opens a 4-slot fresh-key window; the
#: receiver then opens record 4 on its own pass, since a fresh-key window
#: is not followed by a run window until a record after it verified.
#: Run windows double up to ``LOOKAHEAD_RECORDS``: lane passes while
#: those cost less than a numpy pass, as one-record passes do below 60
#: blocks.
RAMPS = {
    0: (2, "L0x4 L4x4 L8x8 L16x16 N32x32 N64x32", "L0x4 L4 L5x4 L9x8 L17x16 N33x32 N65x32"),
    21: (2, "L0x4 L4x4 L8x8 L16x16 N32x32 N64x32", "L0x4 L4 L5x4 L9x8 L17x16 N33x32 N65x32"),
    150: (4, "L0x4 L4x4 L8x8 N16x16 N32x32 N64x32", "L0x4 L4 L5x4 L9x8 N17x16 N33x32 N65x32"),
    406: (
        8,
        "L0 L1 L2 L3 L4 L5 L6 L7 L8 N9x9 N18x18 N36x32 N68x32",
        "L0 L1 L2 L3 L4 L5 L6 L7 L8 L9 N10x9 N19x18 N37x32 N69x32",
    ),
    2048: (
        34,
        "L0 L1 L2 L3 N4x4 N8x8 N16x16 N32x32 N64x32",
        "L0 L1 L2 L3 L4 N5x4 N9x8 N17x16 N33x32 N65x32",
    ),
    8192: (
        130,
        "N0 N1 N2x2 N4x4 N8x8 N16x16 N32x32 N64x32",
        "N0 N1 N2 N3x2 N5x4 N9x8 N17x16 N33x32 N65x32",
    ),
    FULL: (
        257,
        "N0 N1 N2x2 N4x4 N8x8 N16x16 N32x32 N64x32",
        "N0 N1 N2 N3x2 N5x4 N9x8 N17x16 N33x32 N65x32",
    ),
}


@pytest.mark.parametrize("size", sorted(RAMPS))
def test_windows_open_only_where_the_cost_rule_says(counts, size):
    """For a stream of one record size, every pass each side makes: its
    kind, its first sequence and its slots, and the sender's again after
    a key update (the new key starts from nothing)."""
    keys = _keys(13)
    blocks, sender_passes, receiver_passes = RAMPS[size]
    assert blocks == 1 + (size + 1 + 63) // 64
    sender, receiver = CipherState(keys), CipherState(keys)
    sealed = [_seal(sender, size) for _ in range(3 * LOOKAHEAD_RECORDS)]
    assert _tokens(keys, counts.passes, blocks) == sender_passes
    del counts.passes[:]
    for record, aad, inner in sealed:
        assert _open(receiver, record, aad) == inner
    assert _tokens(keys, counts.passes, blocks) == receiver_passes
    del counts.passes[:]
    sender.rekey()
    for _ in range(5):
        _seal(sender, size)
    first_five = [t for t in sender_passes.split() if int(t[1:].split("x")[0]) < 5]
    assert _tokens(sender.keys, counts.passes, blocks) == " ".join(first_five)


def test_small_record_series_reaches_full_windows(counts):
    """small_rpc's shape: 150-byte requests on one key, 21-byte control
    records on another, byte-identical to the RFC 8439 reference.  Each
    key starts with a fresh-key window, ramps through lane windows and
    reaches full numpy windows on both sides; the receiver's only
    one-record pass is the record after its fresh-key window."""
    expected = {
        150: ("L0x4 L4x4 L8x8 N16x16 N32x32 N64x32 N96x32",
              "L0x4 L4 L5x4 L9x8 N17x16 N33x32 N65x32 N97x32"),
        21: ("L0x4 L4x4 L8x8 L16x16 N32x32 N64x32 N96x32",
             "L0x4 L4 L5x4 L9x8 L17x16 N33x32 N65x32 N97x32"),
    }
    for keys, size in ((_keys(14), 150), (_keys(15), 21)):
        blocks = 1 + (size + 1 + 63) // 64
        sender, receiver = CipherState(keys), CipherState(keys)
        sealed_series = [_seal(sender, size) for _ in range(4 * LOOKAHEAD_RECORDS)]
        assert _tokens(keys, counts.passes, blocks) == expected[size][0]
        del counts.passes[:]
        for sealed, aad, inner in sealed_series:
            assert _open(receiver, sealed, aad) == inner
        assert _tokens(keys, counts.passes, blocks) == expected[size][1]
        del counts.passes[:]
        assert [s for s, _, _ in sealed_series] == reference_records(
            keys, [i for _, _, i in sealed_series], [a for _, a, _ in sealed_series]
        )


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
    "size, passes",
    [(58 * 64 - 1, "L0 L0"), (58 * 64, "N0 N0")],
    ids=["59-blocks", "60-blocks"],
)
def test_a_record_no_window_covers_takes_the_cheaper_pass(counts, size, passes):
    """Either side of ``numpy_pays(1, b)`` (from b = 60): one record
    sealed and opened, each in one pass of the kind the cost model
    picks, byte-identical to the RFC 8439 composition."""
    keys = _keys(9)
    sender, receiver = CipherState(keys), CipherState(keys)
    sealed, aad, inner = _seal(sender, size)
    assert sealed == reference_records(keys, [inner], [aad])[0]
    assert _open(receiver, sealed, aad) == inner
    assert _tokens(keys, counts.passes, 1 + (size + 1 + 63) // 64) == passes
    assert counts.windows == []


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


def test_sixteen_session_churn_world_opens_only_lane_windows(counts):
    """Handshake flights and one 2 KiB response per request: the small
    records' keys open fresh-key windows, two reused keys reach an
    8-slot run window, and every window is a lane pass (no numpy window)."""
    result = run_scale(
        ScaleConfig(sessions=16, reuse_fraction=0.25, client_hosts=2, arrival_span=0.2)
    )
    assert result.requests_completed == result.requests_started == 20
    assert counts.windows == []
    shapes = {}
    for kind, counter, _, records, blocks in counts.passes:
        if records > 1:
            shapes[kind, counter, records, blocks] = shapes.get((kind, counter, records, blocks), 0) + 1
    assert shapes == {("L", 0, FRESH_RECORDS, 2): 76, ("L", 0, FRESH_RECORDS, 3): 64,
                      ("L", 0, 8, 2): 2}


#: workload -> (fresh-key windows opened, slots of them a seal or an open
#: read) on the benchmark's quarter-scale world (seed 1, first world).
FRESH_READ = {"handshake_churn": (128, 360), "overload_2x": (96, 312)}


@pytest.mark.parametrize("name", sorted(FRESH_READ))
def test_fresh_key_windows_are_mostly_read(monkeypatch, name):
    """The fresh-key window bets that a key carries ``FRESH_RECORDS``
    records; on the handshake workloads most of that keystream is read
    (70 % and 81 % of slots; the numpy run windows once opened there
    read ~2 %, EXPERIMENTS.md P12)."""
    root = str(Path(__file__).resolve().parent.parent.parent)
    if root not in sys.path:
        sys.path.insert(0, root)
    from bench.harness import WARMUP_SCALE, sub_seed
    from bench.trace import NoTrace
    from bench.workloads import WORKLOADS
    from repro.analysis.sanitizers import reset_process_globals

    opened, read = [], set()
    open_window, slot = CipherState._open_window, CipherState._slot

    def recording_open_window(state, base, records, blocks):
        open_window(state, base, records, blocks)
        if base == 0 and records == FRESH_RECORDS:
            opened.append(state)  # kept alive, so ids stay unique

    def recording_slot(state):
        served = slot(state)
        if served is not None and state._ks_base == 0 and state._ks_records == FRESH_RECORDS:
            read.add((id(state), state.keys.key, state.sequence))
        return served

    monkeypatch.setattr(CipherState, "_open_window", recording_open_window)
    monkeypatch.setattr(CipherState, "_slot", recording_slot)
    workload = WORKLOADS[name]
    reset_process_globals()
    outcome = workload.drive(workload.build(sub_seed(1, 0), WARMUP_SCALE), NoTrace())
    assert outcome.failures == []
    windows, slots_read = FRESH_READ[name]
    assert (len(opened), len(read)) == (windows, slots_read)
    assert slots_read >= FRESH_RECORDS * windows / 2
