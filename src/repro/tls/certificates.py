"""Minimal Ed25519 certificates: a subject bound to a key by a CA signature.

Not X.509 — a compact binary structure carrying exactly what the
handshake needs: subject name, Ed25519 public key, issuer name, validity
flag, and the issuer's signature over the to-be-signed portion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.crypto.ed25519 import Ed25519PrivateKey, ed25519_verify
from repro.utils.bytesio import ByteReader, ByteWriter
from repro.utils.errors import InvalidValue, decode_guard


@dataclass(frozen=True)
class Certificate:
    """A signed binding of ``subject`` to ``public_key``."""

    subject: str
    public_key: bytes  # Ed25519, 32 bytes
    issuer: str
    signature: bytes  # Ed25519 over the TBS bytes, 64 bytes

    def to_be_signed(self) -> bytes:
        writer = ByteWriter()
        writer.put_vec8(self.subject.encode("utf-8"))
        writer.put_vec8(self.public_key)
        writer.put_vec8(self.issuer.encode("utf-8"))
        return writer.getvalue()

    def to_bytes(self) -> bytes:
        writer = ByteWriter()
        writer.put_vec16(self.to_be_signed())
        writer.put_vec8(self.signature)
        return writer.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "Certificate":
        with decode_guard("Certificate"):
            outer = ByteReader(data)
            tbs = ByteReader(outer.get_vec16())
            subject = tbs.get_vec8().decode("utf-8")
            public_key = tbs.get_vec8()
            issuer = tbs.get_vec8().decode("utf-8")
            signature = outer.get_vec8()
            if len(public_key) != 32 or len(signature) != 64:
                raise InvalidValue("malformed certificate key or signature")
        return cls(
            subject=subject, public_key=public_key, issuer=issuer, signature=signature
        )


class CertificateAuthority:
    """Issues certificates with a deterministic (seeded) Ed25519 key."""

    def __init__(self, name: str, seed: bytes = b"") -> None:
        self.name = name
        seed_bytes = (seed or name.encode("utf-8")).ljust(32, b"\x00")[:32]
        self._key = Ed25519PrivateKey(seed_bytes)

    @property
    def public_key(self) -> bytes:
        return self._key.public_bytes

    def issue(self, subject: str, subject_public_key: bytes) -> Certificate:
        unsigned = Certificate(
            subject=subject,
            public_key=subject_public_key,
            issuer=self.name,
            signature=b"\x00" * 64,
        )
        signature = self._key.sign(unsigned.to_be_signed())
        return Certificate(
            subject=subject,
            public_key=subject_public_key,
            issuer=self.name,
            signature=signature,
        )

    def issue_identity(self, subject: str, seed: bytes = b"") -> "Identity":
        """Mint a key pair plus certificate for a server."""
        seed_bytes = (seed or subject.encode("utf-8")).ljust(32, b"\x00")[:32]
        key = Ed25519PrivateKey(seed_bytes)
        return Identity(key=key, certificate=self.issue(subject, key.public_bytes))


@dataclass
class Identity:
    """A private key and its certificate (what a server presents)."""

    key: Ed25519PrivateKey
    certificate: Certificate


class TrustStore:
    """The client's set of trusted CA keys, and the certificates it has
    already checked under them."""

    def __init__(self) -> None:
        self._cas: dict[str, bytes] = {}
        #: (CA key, certificate) pairs whose signature passed: every byte
        #: the Ed25519 check reads, so a repeat needs no second check.
        #: Grows only by certificates a trusted key really signed.
        self._verified: set[tuple[bytes, Certificate]] = set()

    def add(self, ca_name: str, ca_public_key: bytes) -> None:
        self._cas[ca_name] = ca_public_key

    def add_authority(self, ca: CertificateAuthority) -> None:
        self.add(ca.name, ca.public_key)

    def verify(self, certificate: Certificate, expected_subject: Optional[str] = None) -> bool:
        """Check the CA signature and (optionally) the subject name."""
        ca_key = self._cas.get(certificate.issuer)
        if ca_key is None:
            return False
        if expected_subject is not None and certificate.subject != expected_subject:
            return False
        checked = (ca_key, certificate)
        if checked in self._verified:
            return True
        if not ed25519_verify(ca_key, certificate.to_be_signed(), certificate.signature):
            return False
        self._verified.add(checked)
        return True
