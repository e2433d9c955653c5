"""Record layer unit tests: framing, fragmentation, key updates."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.keyschedule import TrafficKeys
from repro.tls.record import (
    CipherState,
    ContentType,
    MAX_PLAINTEXT,
    RecordDecoder,
    RecordEncoder,
    record_header,
    strip_padding,
)
from repro.utils.errors import CryptoError, MessageTooLarge, ProtocolViolation


def _pair():
    keys = TrafficKeys.from_secret(b"\x77" * 32)
    encoder = RecordEncoder()
    decoder = RecordDecoder()
    encoder.set_key(keys)
    decoder.set_key(TrafficKeys.from_secret(b"\x77" * 32))
    return encoder, decoder


def test_plaintext_records_roundtrip():
    encoder = RecordEncoder()
    decoder = RecordDecoder()
    decoder.feed(encoder.encode(ContentType.HANDSHAKE, b"client hello bytes"))
    records = list(decoder.records())
    assert records == [(ContentType.HANDSHAKE, b"client hello bytes")]


def test_encrypted_roundtrip_hides_content_type():
    encoder, decoder = _pair()
    wire = encoder.encode(ContentType.HANDSHAKE, b"finished message")
    assert wire[0] == ContentType.APPLICATION_DATA  # outer type hidden
    decoder.feed(wire)
    assert list(decoder.records()) == [(ContentType.HANDSHAKE, b"finished message")]


def test_large_payload_fragments_into_multiple_records():
    encoder, decoder = _pair()
    payload = b"\x55" * (3 * MAX_PLAINTEXT)
    decoder.feed(encoder.encode(ContentType.APPLICATION_DATA, payload))
    records = list(decoder.records())
    assert len(records) >= 3
    assert b"".join(body for _t, body in records) == payload


def test_partial_feed_buffers_until_complete():
    encoder, decoder = _pair()
    wire = encoder.encode(ContentType.APPLICATION_DATA, b"split me")
    decoder.feed(wire[:3])
    assert list(decoder.records()) == []
    decoder.feed(wire[3:10])
    assert list(decoder.records()) == []
    decoder.feed(wire[10:])
    assert list(decoder.records()) == [(ContentType.APPLICATION_DATA, b"split me")]


def test_sequence_numbers_advance_per_record():
    encoder, decoder = _pair()
    for i in range(5):
        decoder.feed(encoder.encode(ContentType.APPLICATION_DATA, bytes([i])))
    records = list(decoder.records())
    assert [body for _t, body in records] == [bytes([i]) for i in range(5)]
    assert encoder.cipher.sequence == 5
    assert decoder.cipher.sequence == 5


def test_reordered_records_fail_decryption():
    encoder, decoder = _pair()
    first = encoder.encode(ContentType.APPLICATION_DATA, b"one")
    second = encoder.encode(ContentType.APPLICATION_DATA, b"two")
    decoder.feed(second)  # wrong nonce for sequence 0
    with pytest.raises(CryptoError):
        list(decoder.records())


def test_key_update_resets_sequence():
    encoder, decoder = _pair()
    decoder.feed(encoder.encode(ContentType.APPLICATION_DATA, b"gen0"))
    list(decoder.records())
    encoder.cipher.rekey()
    decoder.cipher.rekey()
    assert encoder.cipher.sequence == 0
    decoder.feed(encoder.encode(ContentType.APPLICATION_DATA, b"gen1"))
    assert list(decoder.records()) == [(ContentType.APPLICATION_DATA, b"gen1")]


def test_rekey_derives_different_key():
    state = CipherState(TrafficKeys.from_secret(b"\x01" * 32))
    old_key = state.keys.key
    state.rekey()
    assert state.keys.key != old_key


def test_oversized_record_length_rejected():
    decoder = RecordDecoder()
    bogus = record_header(ContentType.APPLICATION_DATA, MAX_PLAINTEXT + 300 + 16)
    decoder.feed(bogus + b"\x00" * 10)
    with pytest.raises(ProtocolViolation):
        list(decoder.records())


def test_ciphertext_length_limit_is_rfc8446_5_2():
    """2^14 + 256 bytes of TLSCiphertext pass the framing; one more is
    record_overflow before the body is even buffered."""
    decoder = RecordDecoder()
    body = b"\x00" * (MAX_PLAINTEXT + 256)
    decoder.feed(record_header(ContentType.APPLICATION_DATA, len(body)) + body)
    assert list(decoder.raw_records()) == [(ContentType.APPLICATION_DATA, body)]
    decoder.feed(record_header(ContentType.APPLICATION_DATA, len(body) + 1))
    with pytest.raises(MessageTooLarge):
        list(decoder.raw_records())


def _sealed_inner(state, inner_length):
    """A record whose TLSInnerPlaintext is ``inner_length`` bytes long
    (content, then the type byte), sealed at ``state``'s sequence."""
    inner = b"\x42" * (inner_length - 1) + bytes([ContentType.APPLICATION_DATA])
    header = record_header(ContentType.APPLICATION_DATA, len(inner) + 16)
    sealed = state.seal(inner, header)
    state.advance()
    return header + sealed


def test_inner_plaintext_limit_is_rfc8446_5_4():
    """2^14 + 1 bytes of TLSInnerPlaintext open; one more is rejected
    through both ``records()`` and trial decryption's ``decrypt_with``."""
    keys = TrafficKeys.from_secret(b"\x78" * 32)
    sender, decoder = CipherState(keys), RecordDecoder()
    decoder.set_key(keys)
    receiver = CipherState(keys)
    limit = MAX_PLAINTEXT + 1
    accepted, rejected = _sealed_inner(sender, limit), _sealed_inner(sender, limit + 1)
    decoder.feed(accepted)
    assert list(decoder.records()) == [(ContentType.APPLICATION_DATA, b"\x42" * (limit - 1))]
    assert RecordDecoder.decrypt_with(receiver, accepted[5:])[1] == b"\x42" * (limit - 1)
    decoder.feed(rejected)
    with pytest.raises(MessageTooLarge):
        list(decoder.records())
    with pytest.raises(MessageTooLarge):
        RecordDecoder.decrypt_with(receiver, rejected[5:])
    assert receiver.sequence == 1


def test_plaintext_record_limit_is_rfc8446_5_1():
    """A record yielded undecrypted (outer type not application_data)
    carries at most 2^14 bytes, with or without keys installed."""
    for keyed in (False, True):
        decoder = RecordDecoder()
        if keyed:
            decoder.set_key(TrafficKeys.from_secret(b"\x79" * 32))
        body = b"\x16" * MAX_PLAINTEXT
        decoder.feed(record_header(ContentType.HANDSHAKE, len(body)) + body)
        assert list(decoder.records()) == [(ContentType.HANDSHAKE, body)]
        decoder.feed(record_header(ContentType.HANDSHAKE, len(body) + 1) + body + b"\x16")
        with pytest.raises(MessageTooLarge):
            list(decoder.records())


def test_strip_padding():
    assert strip_padding(b"data\x17\x00\x00\x00") == (0x17, b"data")
    assert strip_padding(b"\x17") == (0x17, b"")
    with pytest.raises(ProtocolViolation):
        strip_padding(b"\x00\x00\x00")


def test_decrypt_with_does_not_advance_on_failure():
    encoder, decoder = _pair()
    wire = encoder.encode(ContentType.APPLICATION_DATA, b"x")
    body = wire[5:]
    state = decoder.cipher
    with pytest.raises(CryptoError):
        RecordDecoder.decrypt_with(state, b"\x00" * len(body))
    assert state.sequence == 0  # unchanged
    assert RecordDecoder.decrypt_with(state, body) == (
        ContentType.APPLICATION_DATA, b"x",
    )
    assert state.sequence == 1


@settings(max_examples=30, deadline=None)
@given(st.lists(st.binary(min_size=0, max_size=5000), min_size=1, max_size=8))
def test_property_stream_of_records_roundtrips(payloads):
    encoder, decoder = _pair()
    wire = b"".join(
        encoder.encode(ContentType.APPLICATION_DATA, p) for p in payloads
    )
    # Feed in awkward chunks.
    for i in range(0, len(wire), 97):
        decoder.feed(wire[i : i + 97])
    got = b"".join(body for _t, body in decoder.records())
    assert got == b"".join(payloads)
