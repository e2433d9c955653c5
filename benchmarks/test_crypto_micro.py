"""Microbenchmarks for the cryptographic substrate.

Not a paper artefact — engineering due diligence: the simulator pushes
megabytes through these primitives, so their throughput bounds every
experiment's wall-clock time.  Nothing here asserts a speed.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from repro.crypto.aead import ChaCha20Poly1305
from repro.crypto.chacha20 import chacha20_keystream_lanes
from repro.crypto.chacha20_fast import chacha20_keystream_multi
from repro.crypto.ed25519 import Ed25519PrivateKey, _key_powers, base_mul, ed25519_verify
from repro.crypto.keyschedule import KeySchedule, TrafficKeys
from repro.crypto import poly1305_fast as _poly_fast
from repro.crypto.x25519 import X25519PrivateKey, x25519_base
from repro.tls.record import (
    LOOKAHEAD_RECORDS,
    CipherState,
    ContentType,
    record_header,
    window_pays,
)
from repro.utils.errors import CryptoError
from tests.references import poly1305_mac

RECORD = b"\xab" * 16000  # one max-size TCPLS record payload

#: (W, blocks) where ``window_pays`` first opens a window, for slots of
#: 21-, 150- and 406-byte inner plaintexts (small_rpc's control, request
#: and response records), a 2 KiB response, the smallest slot a
#: two-record window takes, and a full-size record.
WINDOW_CROSSOVERS = [
    (next(w for w in range(2, LOOKAHEAD_RECORDS + 1) if window_pays(w, blocks)), blocks)
    for blocks in (2, 4, 8, 34, 67, 257)
]

#: One record's blocks (block 0 included): a ~1.9 KiB record, either side
#: of the single-record dispatch (59/60), an 8 KiB response, and the
#: largest record RFC 8446 allows.
SINGLE_RECORD_BLOCKS = [30, 59, 60, 130, 258]


def test_aead_seal_16k_record(benchmark):
    aead = ChaCha20Poly1305(b"\x01" * 32)
    out = benchmark(aead.encrypt, b"\x00" * 12, RECORD, b"header")
    assert len(out) == len(RECORD) + 16


def test_aead_open_16k_record(benchmark):
    aead = ChaCha20Poly1305(b"\x01" * 32)
    sealed = aead.encrypt(b"\x00" * 12, RECORD, b"header")
    out = benchmark(aead.decrypt, b"\x00" * 12, sealed, b"header")
    assert out == RECORD


def test_x25519_peer_share(benchmark):
    """The Montgomery ladder on a peer's u: one per key exchange."""
    alice = X25519PrivateKey(b"\x11" * 32)
    bob = X25519PrivateKey(b"\x22" * 32)
    shared = benchmark(alice.exchange, bob.public_bytes)
    assert shared == bob.exchange(alice.public_bytes)


def test_x25519_base(benchmark):
    """A key share's public key: the fixed-base table and the map to u."""
    public = benchmark(x25519_base, b"\x11" * 32)
    assert public == X25519PrivateKey(b"\x11" * 32).public_bytes


def test_base_mul(benchmark):
    """``r * B`` of signing, ``s * B`` of verifying: the fixed-base table walk."""
    scalar = (1 << 253) // 3  # 0b1010...: no zero digit, 37 additions
    base_mul(scalar)  # the table is built once per process, not in a round
    benchmark(base_mul, scalar)


def test_ed25519_sign_verify(benchmark):
    """Sign, then verify under a key seen before (its table is kept): a
    client re-dialling one server.  The first-contact price is the row
    below; read the two together."""
    key = Ed25519PrivateKey(b"\x33" * 32)

    def sign_and_verify():
        signature = key.sign(b"transcript hash stand-in")
        return ed25519_verify(key.public_bytes, b"transcript hash stand-in", signature)

    assert benchmark(sign_and_verify)


def test_ed25519_verify_cold_key(benchmark):
    """Verify under a key never seen: the per-key table is dropped before
    every round, so this row cannot become the cached number."""
    key = Ed25519PrivateKey(b"\x33" * 32)
    signature = key.sign(b"transcript hash stand-in")

    def forget():
        _key_powers.cache_clear()
        return (key.public_bytes, b"transcript hash stand-in", signature), {}

    assert benchmark.pedantic(ed25519_verify, setup=forget, rounds=50)
    assert _key_powers.cache_info().hits == 0  # no round found a table


def test_key_schedule_full_ladder(benchmark):
    def ladder():
        ks = KeySchedule()
        ks.update_transcript(b"ch")
        ks.update_transcript(b"sh")
        ks.input_ecdhe(b"\x44" * 32)
        ks.update_transcript(b"ee..fin")
        ks.derive_master()
        ks.update_transcript(b"cfin")
        ks.derive_resumption()
        return ks.export("tcpls context", b"\x00" * 21, 32)

    assert len(benchmark(ladder)) == 32


# ----------------------------------------------------------------------
# The keystream window rule's prices (reported, nothing asserted): one
# numpy window pass and one multi-nonce lane pass against the W one-record
# lane passes they replace, at the points where the rule opens a window,
# so its constants can be re-checked.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("records, blocks", WINDOW_CROSSOVERS)
def test_keystream_window_pass(benchmark, records, blocks):
    nonces = [bytes([i]) * 12 for i in range(records)]
    out = benchmark(chacha20_keystream_multi, b"\x01" * 32, nonces, 0, blocks)
    assert len(out) == 64 * records * blocks


@pytest.mark.parametrize("records, blocks", WINDOW_CROSSOVERS)
def test_keystream_lane_window_pass(benchmark, records, blocks):
    nonces = b"".join(bytes([i]) * 12 for i in range(records))
    out = benchmark(chacha20_keystream_lanes, b"\x01" * 32, 0, nonces, blocks)
    assert len(out) == 64 * records * blocks


@pytest.mark.parametrize("records, blocks", WINDOW_CROSSOVERS)
def test_keystream_lane_passes(benchmark, records, blocks):
    def lane_passes():
        return [chacha20_keystream_lanes(b"\x01" * 32, 0, bytes([i]) * 12, blocks)
                for i in range(records)]

    assert len(benchmark(lane_passes)) == records


# The same two cost lines at W = 1: the pass ``ChaCha20Poly1305`` picks
# for one record no window covers (numpy from 60 blocks, lanes below).

@pytest.mark.parametrize("blocks", SINGLE_RECORD_BLOCKS)
def test_keystream_one_numpy_pass(benchmark, blocks):
    out = benchmark(chacha20_keystream_multi, b"\x01" * 32, [b"\x02" * 12], 0, blocks)
    assert len(out) == 64 * blocks


@pytest.mark.parametrize("blocks", SINGLE_RECORD_BLOCKS)
def test_keystream_one_lane_pass(benchmark, blocks):
    out = benchmark(chacha20_keystream_lanes, b"\x01" * 32, 0, b"\x02" * 12, blocks)
    assert len(out) == 64 * blocks


# ----------------------------------------------------------------------
# Poly1305's one dispatch: the two-block fold alone against the group
# evaluator (whole groups, then the fold over the tail), either side of
# ``MIN_BATCH_BYTES`` and at a full record, with the RFC loop the tests
# hold both to.
# ----------------------------------------------------------------------

POLY1305_BYTES = [512, 1024, 1280, 1536, 2048, 3072, 16384]
_POLY_KEY = b"\x07" * 32


@pytest.mark.parametrize("size", POLY1305_BYTES)
@pytest.mark.parametrize("min_batch", [1 << 62, 0], ids=["fold", "grouped"])
def test_poly1305(benchmark, monkeypatch, size, min_batch):
    """``poly1305_mac_fast`` with its dispatch edge moved so that every
    size takes the fold alone, or the group evaluator and the tail fold."""
    monkeypatch.setattr(_poly_fast, "MIN_BATCH_BYTES", min_batch)
    message = b"\x5a" * size
    tag = benchmark(_poly_fast.poly1305_mac_fast, _POLY_KEY, message)
    assert tag == poly1305_mac(_POLY_KEY, message)


@pytest.mark.parametrize("size", POLY1305_BYTES)
def test_poly1305_rfc_reference(benchmark, size):
    assert len(benchmark(poly1305_mac, _POLY_KEY, b"\x5a" * size)) == 16


def _failed_trial(receiver):
    """A record of another context offered to ``receiver`` (paper
    section 2.3's trial decryption): the call fails and advances nothing."""
    inner = b"\x5a" * 149 + bytes([ContentType.APPLICATION_DATA])
    aad = record_header(ContentType.APPLICATION_DATA, len(inner) + 16)
    stray = CipherState(TrafficKeys.from_secret(b"\x02" * 32)).seal(inner, aad)

    def trial():
        try:
            receiver.open(stray, aad)
        except CryptoError:
            return True
        return False

    return trial


def test_failed_trial_without_window(benchmark):
    """One lane pass (one-time key and payload) plus the Poly1305."""
    assert benchmark(_failed_trial(CipherState(TrafficKeys.from_secret(b"\x03" * 32))))


def test_failed_trial_with_window(benchmark):
    """Under a live window: the Poly1305 alone."""
    keys = TrafficKeys.from_secret(b"\x03" * 32)
    sender, receiver = CipherState(keys), CipherState(keys)
    inner = b"\x5a" * 149 + bytes([ContentType.APPLICATION_DATA])
    aad = record_header(ContentType.APPLICATION_DATA, len(inner) + 16)
    for _ in range(40):
        receiver.open(sender.seal(inner, aad), aad)
        sender.advance()
        receiver.advance()
    assert benchmark(_failed_trial(receiver))
