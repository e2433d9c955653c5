"""Certificate issuance and verification, and the trust store's memo of
what it has verified: keyed by every byte the signature check reads."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.tls import certificates
from repro.tls.certificates import Certificate, CertificateAuthority, TrustStore
from repro.utils.errors import DecodeError, ProtocolViolation


def test_issue_and_verify():
    ca = CertificateAuthority("Root", seed=b"seed")
    identity = ca.issue_identity("host.example")
    store = TrustStore()
    store.add_authority(ca)
    assert store.verify(identity.certificate)
    assert store.verify(identity.certificate, expected_subject="host.example")


def test_subject_mismatch_rejected():
    ca = CertificateAuthority("Root")
    identity = ca.issue_identity("host.example")
    store = TrustStore()
    store.add_authority(ca)
    assert not store.verify(identity.certificate, expected_subject="other.example")


def test_unknown_issuer_rejected():
    ca = CertificateAuthority("Root")
    identity = ca.issue_identity("host.example")
    assert not TrustStore().verify(identity.certificate)


def test_forged_signature_rejected():
    ca = CertificateAuthority("Root")
    cert = ca.issue_identity("host.example").certificate
    forged = Certificate(
        subject=cert.subject,
        public_key=cert.public_key,
        issuer=cert.issuer,
        signature=bytes(64),
    )
    store = TrustStore()
    store.add_authority(ca)
    assert not store.verify(forged)


def test_key_substitution_rejected():
    ca = CertificateAuthority("Root")
    cert = ca.issue_identity("host.example").certificate
    mallory = CertificateAuthority("Mallory").public_key
    swapped = Certificate(
        subject=cert.subject,
        public_key=mallory,
        issuer=cert.issuer,
        signature=cert.signature,
    )
    store = TrustStore()
    store.add_authority(ca)
    assert not store.verify(swapped)


def test_serialization_roundtrip():
    ca = CertificateAuthority("Root")
    cert = ca.issue_identity("αβγ.example").certificate  # unicode subject
    parsed = Certificate.from_bytes(cert.to_bytes())
    assert parsed == cert


def test_malformed_bytes_rejected():
    with pytest.raises(DecodeError):
        Certificate.from_bytes(b"\x00\x05trash")


def test_deterministic_issuance():
    a = CertificateAuthority("Root", seed=b"x").issue_identity("s", seed=b"k")
    b = CertificateAuthority("Root", seed=b"x").issue_identity("s", seed=b"k")
    assert a.certificate == b.certificate


@given(st.text(min_size=1, max_size=40))
def test_property_any_subject_roundtrips(subject):
    ca = CertificateAuthority("Root", seed=b"prop")
    cert = ca.issue(subject, b"\x07" * 32)
    assert Certificate.from_bytes(cert.to_bytes()).subject == subject


# ----------------------------------------------------------------------
# The verified-certificate memo
# ----------------------------------------------------------------------


@pytest.fixture
def counted(monkeypatch):
    """A store trusting ``Root``, a certificate it issued, and the list
    of ``ed25519_verify`` calls the store makes."""
    calls = []
    verify = certificates.ed25519_verify

    def counting(public, message, signature):
        calls.append(public)
        return verify(public, message, signature)

    monkeypatch.setattr(certificates, "ed25519_verify", counting)
    ca = CertificateAuthority("Root", seed=b"memo")
    store = TrustStore()
    store.add_authority(ca)
    return store, ca.issue_identity("host.example").certificate, calls


def test_repeat_of_an_accepted_certificate_is_not_verified_again(counted):
    store, cert, calls = counted
    assert store.verify(cert)
    assert len(calls) == 1
    assert store.verify(cert)
    assert store.verify(Certificate.from_bytes(cert.to_bytes()), "host.example")
    assert len(calls) == 1  # equal bytes, not the same object


def _variants(cert: Certificate):
    flipped = bytearray(cert.signature)
    flipped[17] ^= 0x04
    other_key = CertificateAuthority("Root").issue_identity("x").certificate.public_key
    return {
        "signature-bit": dataclasses.replace(cert, signature=bytes(flipped)),
        "subject": dataclasses.replace(cert, subject="host.exampl3"),
        "public-key": dataclasses.replace(cert, public_key=other_key),
    }


@pytest.mark.parametrize("field", ["signature-bit", "subject", "public-key"])
def test_a_certificate_differing_anywhere_is_verified_afresh(counted, field):
    store, cert, calls = counted
    assert store.verify(cert)
    changed = _variants(cert)[field]
    for attempt in (2, 3):  # a rejection is not remembered either way
        assert not store.verify(changed)
        assert len(calls) == attempt
    assert store.verify(cert) and len(calls) == 3


def test_replaced_ca_key_forgets_what_the_old_key_vouched_for(counted):
    store, cert, calls = counted
    assert store.verify(cert)
    impostor = CertificateAuthority("Root", seed=b"another key, same name")
    store.add("Root", impostor.public_key)
    assert not store.verify(cert)
    assert calls[-1] == impostor.public_key and len(calls) == 2
    theirs = impostor.issue_identity("host.example").certificate
    assert store.verify(theirs) and store.verify(theirs)
    assert len(calls) == 3
    assert not store.verify(cert)


def test_subject_check_stays_in_front_of_the_memo(counted):
    store, cert, calls = counted
    assert store.verify(cert, "host.example")
    assert not store.verify(cert, "other.example")
    assert len(calls) == 1


def test_rejected_certificate_is_never_answered_true_later(counted):
    store, cert, calls = counted
    forged = dataclasses.replace(cert, signature=bytes(64))
    assert not store.verify(forged)
    assert store.verify(cert)
    assert not store.verify(forged)
    assert not store.verify(forged, "host.example")
    assert len(calls) == 4
    assert not TrustStore().verify(cert)  # the memo is per store, not global
