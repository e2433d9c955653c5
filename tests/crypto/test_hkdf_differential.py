"""HKDF, HKDF-Expand-Label and Derive-Secret against OpenSSL's HKDF
(through ``cryptography``), and the RFC 8446 section 7.1 key schedule of
one real handshake rebuilt step by step from OpenSSL's primitives.

``HkdfLabel`` is built here from section 7.1's definition, not imported,
so the label encoding is checked too.  CI's perf-smoke job fails if any
of these is skipped.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytest.importorskip("cryptography")

from cryptography.hazmat.primitives import hashes  # noqa: E402
from cryptography.hazmat.primitives.kdf.hkdf import HKDF, HKDFExpand  # noqa: E402

from repro.crypto import keyschedule as _keyschedule  # noqa: E402
from repro.crypto.hkdf import (  # noqa: E402
    derive_secret,
    hkdf_expand,
    hkdf_expand_label,
    hkdf_extract,
)
from repro.tls.certificates import CertificateAuthority, TrustStore  # noqa: E402
from tests.tls.tls_pipe import make_pair  # noqa: E402

ZEROS = bytes(32)
EMPTY_HASH = hashlib.sha256(b"").digest()


def _extract(salt: bytes, ikm: bytes) -> bytes:
    return HKDF.extract(hashes.SHA256(), salt, ikm)


def _expand(prk: bytes, info: bytes, length: int) -> bytes:
    return HKDFExpand(hashes.SHA256(), length, info).derive(prk)


def _hkdf_label(length: int, label: bytes, context: bytes) -> bytes:
    """``struct { uint16 length; opaque label<7..255>; opaque
    context<0..255>; } HkdfLabel`` with ``"tls13 "`` prefixed."""
    full = b"tls13 " + label
    return length.to_bytes(2, "big") + bytes([len(full)]) + full + bytes([len(context)]) + context


def _expand_label(secret: bytes, label: bytes, context: bytes, length: int) -> bytes:
    return _expand(secret, _hkdf_label(length, label, context), length)


def _derive_secret(secret: bytes, label: bytes, transcript_hash: bytes) -> bytes:
    return _expand_label(secret, label, transcript_hash, 32)


@settings(max_examples=100)
@given(salt=st.binary(max_size=80), ikm=st.binary(max_size=120))
def test_extract_agrees(salt, ikm):
    assert hkdf_extract(salt, ikm) == _extract(salt, ikm)


@settings(max_examples=100)
@given(
    prk=st.binary(min_size=32, max_size=64),
    info=st.binary(max_size=120),
    length=st.integers(1, 255 * 32),
)
def test_expand_agrees(prk, info, length):
    assert hkdf_expand(prk, info, length) == _expand(prk, info, length)


labels = st.text(st.sampled_from("abcdefghijklmnopqrstuvwxyz "), min_size=1, max_size=40)


@settings(max_examples=100)
@given(
    secret=st.binary(min_size=32, max_size=32),
    label=labels,
    context=st.binary(max_size=64),
    length=st.integers(1, 600),
)
def test_expand_label_agrees(secret, label, context, length):
    ours = hkdf_expand_label(secret, label, context, length)
    assert ours == _expand_label(secret, label.encode("ascii"), context, length)


@settings(max_examples=100)
@given(
    secret=st.binary(min_size=32, max_size=32),
    label=labels,
    transcript=st.binary(min_size=32, max_size=32),
)
def test_derive_secret_agrees(secret, label, transcript):
    ours = derive_secret(secret, label, transcript)
    assert ours == _derive_secret(secret, label.encode("ascii"), transcript)


def test_expand_refuses_more_than_255_blocks():
    with pytest.raises(ValueError):
        hkdf_expand(ZEROS, b"", 255 * 32 + 1)


def test_one_handshake_key_schedule_step_by_step(monkeypatch):
    """A full (EC)DHE handshake without PSK: every secret both sides hold,
    rebuilt from the shared secret and the transcript hashes the
    schedule saw when it mixed them in (RFC 8446 section 7.1)."""
    seen = {}
    schedule = _keyschedule.KeySchedule
    input_ecdhe, derive_master = schedule.input_ecdhe, schedule.derive_master

    def recording_ecdhe(self, shared_secret):
        seen.setdefault(id(self), {}).update(
            shared=shared_secret, hello_hash=self.transcript_hash()
        )
        input_ecdhe(self, shared_secret)

    def recording_master(self):
        seen[id(self)]["finished_hash"] = self.transcript_hash()
        derive_master(self)

    monkeypatch.setattr(schedule, "input_ecdhe", recording_ecdhe)
    monkeypatch.setattr(schedule, "derive_master", recording_master)
    ca = CertificateAuthority("Schedule CA", seed=b"schedule-ca")
    trust = TrustStore()
    trust.add_authority(ca)
    pipe = make_pair(ca.issue_identity("server.example", seed=b"schedule-server"), trust)
    pipe.client.start_handshake()
    pipe.pump()
    assert pipe.client.is_established and pipe.server.is_established
    client, server = pipe.client.keys, pipe.server.keys
    inputs = seen[id(client)]
    assert inputs == seen[id(server)]

    early = _extract(ZEROS, ZEROS)
    assert client.early_secret == server.early_secret == early
    handshake = _extract(_derive_secret(early, b"derived", EMPTY_HASH), inputs["shared"])
    assert client.handshake_secret == server.handshake_secret == handshake
    for side, label in (("client", b"c hs traffic"), ("server", b"s hs traffic")):
        expected = _derive_secret(handshake, label, inputs["hello_hash"])
        assert getattr(client, f"{side}_handshake_traffic") == expected
        assert getattr(server, f"{side}_handshake_traffic") == expected
    master = _extract(_derive_secret(handshake, b"derived", EMPTY_HASH), ZEROS)
    assert client.master_secret == server.master_secret == master
    for side, label in (("client", b"c ap traffic"), ("server", b"s ap traffic")):
        expected = _derive_secret(master, label, inputs["finished_hash"])
        assert getattr(client, f"{side}_application_traffic") == expected
        assert getattr(server, f"{side}_application_traffic") == expected


def test_early_stage_secrets_from_a_psk():
    """The early stage with a resumption PSK: both early traffic secrets
    (0-RTT data and exporter) and the binder key."""
    psk = random.Random(3).randbytes(32)
    schedule = _keyschedule.KeySchedule(psk=psk)
    schedule.update_transcript(b"\x01\x00\x00\x04abcd")  # a ClientHello stand-in
    hello_hash = hashlib.sha256(b"\x01\x00\x00\x04abcd").digest()
    early = _extract(ZEROS, psk)
    assert schedule.early_secret == early
    assert schedule.derive_early() == {
        "client_early_traffic": _derive_secret(early, b"c e traffic", hello_hash),
        "early_exporter": _derive_secret(early, b"e exp master", hello_hash),
        "binder_key": _derive_secret(early, b"res binder", EMPTY_HASH),
    }
