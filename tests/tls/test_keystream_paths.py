"""Every keystream path of the record layer, one record at a time.

``CipherState`` serves a record from a run window, a fresh-key window, a
failed trial's kept slot, or a slot shorter than the record, and opens a
record no window covers from its own pass.  For each path the record is
sealed and opened there and compared with the RFC 8439 reference and
with OpenSSL; a copy with one tag bit flipped is offered first, and must
raise ``CryptoError`` having made no payload keystream under a slot (an
uncovered open makes its whole pass first, and keeps it for the owner's
record).  CI's perf-smoke job fails if any of these is skipped.
"""

import pytest

from repro.crypto import aead as _aead
from repro.crypto.aead import TAG_LENGTH
from repro.crypto.keyschedule import TrafficKeys
from repro.tls import record as _record
from repro.tls.record import CipherState, ContentType, record_header
from repro.utils.errors import CryptoError
from tests.crypto.test_fastpath_crypto import reference_records


@pytest.fixture
def passes(monkeypatch):
    """(kind, nonces, blocks per nonce) of every keystream pass, in order."""
    made = []
    window, lanes = _record.chacha20_keystream_multi, _aead.chacha20_keystream_lanes
    single = _aead.chacha20_keystream_multi

    def counting_numpy(generate):
        def counted(key, nonces, counter, blocks):
            made.append(("numpy", len(nonces), blocks))
            return generate(key, nonces, counter, blocks)
        return counted

    def counting_lanes(key, counter, nonces, blocks):
        made.append(("lane", len(nonces) // 12, blocks))
        return lanes(key, counter, nonces, blocks)

    monkeypatch.setattr(_record, "chacha20_keystream_multi", counting_numpy(window))
    monkeypatch.setattr(_aead, "chacha20_keystream_multi", counting_numpy(single))
    monkeypatch.setattr(_aead, "chacha20_keystream_lanes", counting_lanes)
    return made


def _record_at(size, fill):
    inner = bytes([fill]) * size + bytes([ContentType.APPLICATION_DATA])
    return inner, record_header(ContentType.APPLICATION_DATA, len(inner) + TAG_LENGTH)


#: path -> (sizes of the records one key carries, the sequence whose
#: open takes the path, sizes of records another key's sender puts there
#: first, the passes the flipped-tag open makes, the passes the real open
#: then makes).  A slot serves the record whole; an uncovered long record
#: takes one numpy pass, kept when its tag fails; the record longer than
#: its 2-block fresh-key slot makes the other 9 blocks in one lane pass.
PATHS = {
    "run-window-lane": ([21] * 12, 6, [], [], []),
    "run-window-numpy": ([600] * 12, 9, [], [], []),
    "fresh-key-window": ([150] * 3, 1, [], [], []),
    "failed-trial-slot": ([600] * 3, 1, [600], [], []),
    "uncovered-long-open": ([8192] * 2, 1, [], [("numpy", 1, 130)], []),
    "record-longer-than-slot": ([21, 21, 600, 21], 2, [], [], [("lane", 1, 9)]),
}


def _series(path):
    sizes, target = PATHS[path][:2]
    keys = TrafficKeys.from_secret(bytes([0x60 + sorted(PATHS).index(path)]) * 32)
    sender = CipherState(keys)
    records = []
    for sequence, size in enumerate(sizes):
        inner, aad = _record_at(size, sequence)
        records.append((sender.seal(inner, aad), aad, inner))
        sender.advance()
    return keys, records, target


@pytest.mark.parametrize("path", sorted(PATHS))
def test_each_path_is_the_reference_and_checks_the_tag_first(passes, path):
    keys, records, target = _series(path)
    _, _, strays, flipped_passes, open_passes = PATHS[path]
    assert [sealed for sealed, _, _ in records] == reference_records(
        keys, [inner for _, _, inner in records], [aad for _, aad, _ in records]
    )
    receiver, foreign = CipherState(keys), CipherState(TrafficKeys.from_secret(b"\x7f" * 32))
    for sequence, (sealed, aad, inner) in enumerate(records):
        if sequence == target:
            for size in strays:
                stray_inner, stray_aad = _record_at(size, 0xEE)
                with pytest.raises(CryptoError):
                    receiver.open(foreign.seal(stray_inner, stray_aad), stray_aad)
            flipped = bytearray(sealed)
            flipped[-1] ^= 0x01
            before = len(passes)
            with pytest.raises(CryptoError):
                receiver.open(bytes(flipped), aad)
            assert passes[before:] == flipped_passes
            assert receiver.sequence == target
            before = len(passes)
        assert receiver.open(sealed, aad) == inner
        if sequence == target:
            assert passes[before:] == open_passes
        receiver.advance()


@pytest.mark.parametrize("path", sorted(PATHS))
def test_each_path_agrees_with_openssl(path):
    openssl = pytest.importorskip("cryptography.hazmat.primitives.ciphers.aead")
    keys, records, _ = _series(path)
    theirs = openssl.ChaCha20Poly1305(keys.key)
    receiver = CipherState(keys)
    for sequence, (sealed, aad, inner) in enumerate(records):
        assert sealed == theirs.encrypt(keys.nonce_for(sequence), inner, aad)
        assert receiver.open(theirs.encrypt(keys.nonce_for(sequence), inner, aad), aad) == inner
        receiver.advance()
