"""The TLS 1.3 key schedule (RFC 8446 section 7.1) for SHA-256 suites.

The schedule is a three-stage HKDF ladder:

    0 -> Extract(0, PSK)          = early secret
      -> Extract(., ECDHE)        = handshake secret
      -> Extract(., 0)            = master secret

Each stage yields Derive-Secret outputs for client/server traffic keys.
TCPLS extends this at the application layer by deriving *per-stream*
traffic secrets from the exporter secret (see ``repro.core.stream``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.crypto.aead import ChaCha20Poly1305
from repro.crypto.hkdf import (
    HASH_LENGTH,
    derive_secret,
    hkdf_expand_label,
    hkdf_extract,
    sha256,
)

_EMPTY_HASH = hashlib.sha256(b"").digest()
_ZEROS = b"\x00" * HASH_LENGTH


@dataclass
class TrafficKeys:
    """AEAD key material derived from one traffic secret (RFC 8446 7.3)."""

    secret: bytes
    key: bytes
    iv: bytes

    @classmethod
    def from_secret(cls, secret: bytes) -> "TrafficKeys":
        return cls(
            secret=secret,
            key=hkdf_expand_label(secret, "key", b"", ChaCha20Poly1305.key_length),
            iv=hkdf_expand_label(secret, "iv", b"", ChaCha20Poly1305.nonce_length),
        )

    def nonce_for(self, sequence_number: int) -> bytes:
        """Per-record nonce: IV XOR left-padded sequence number (RFC 8446 5.3)."""
        iv = self.iv
        return (int.from_bytes(iv, "big") ^ sequence_number).to_bytes(len(iv), "big")

    def next_generation(self) -> "TrafficKeys":
        """Key update: traffic secret N+1 (RFC 8446 section 7.2)."""
        return TrafficKeys.from_secret(
            hkdf_expand_label(self.secret, "traffic upd", b"", HASH_LENGTH)
        )


class KeySchedule:
    """Drives the RFC 8446 key schedule as handshake inputs arrive."""

    def __init__(self, psk: bytes = b"") -> None:
        self._transcript = hashlib.sha256()
        self.early_secret = hkdf_extract(_ZEROS, psk or _ZEROS)
        self.handshake_secret = b""
        self.master_secret = b""
        self.client_handshake_traffic = b""
        self.server_handshake_traffic = b""
        self.client_application_traffic = b""
        self.server_application_traffic = b""
        self.exporter_secret = b""
        self.resumption_master_secret = b""

    # -- transcript management -------------------------------------------

    def update_transcript(self, handshake_bytes: bytes) -> None:
        self._transcript.update(handshake_bytes)

    def transcript_hash(self) -> bytes:
        return self._transcript.copy().digest()

    # -- stage derivations -------------------------------------------------

    def derive_early(self) -> dict:
        """Early-data secrets (0-RTT), bound to the ClientHello transcript."""
        transcript = self.transcript_hash()
        return {
            "client_early_traffic": derive_secret(
                self.early_secret, "c e traffic", transcript
            ),
            "early_exporter": derive_secret(
                self.early_secret, "e exp master", transcript
            ),
            "binder_key": derive_secret(
                self.early_secret, "res binder", _EMPTY_HASH
            ),
        }

    def input_ecdhe(self, shared_secret: bytes) -> None:
        """Mix the (EC)DHE shared secret in; call after ServerHello is hashed."""
        derived = derive_secret(self.early_secret, "derived", _EMPTY_HASH)
        self.handshake_secret = hkdf_extract(derived, shared_secret)
        transcript = self.transcript_hash()
        self.client_handshake_traffic = derive_secret(
            self.handshake_secret, "c hs traffic", transcript
        )
        self.server_handshake_traffic = derive_secret(
            self.handshake_secret, "s hs traffic", transcript
        )

    def derive_master(self) -> None:
        """Derive application secrets; call after server Finished is hashed."""
        derived = derive_secret(self.handshake_secret, "derived", _EMPTY_HASH)
        self.master_secret = hkdf_extract(derived, _ZEROS)
        transcript = self.transcript_hash()
        self.client_application_traffic = derive_secret(
            self.master_secret, "c ap traffic", transcript
        )
        self.server_application_traffic = derive_secret(
            self.master_secret, "s ap traffic", transcript
        )
        self.exporter_secret = derive_secret(
            self.master_secret, "exp master", transcript
        )

    def derive_resumption(self) -> None:
        """Resumption master secret; call after client Finished is hashed."""
        self.resumption_master_secret = derive_secret(
            self.master_secret, "res master", self.transcript_hash()
        )

    # -- helpers -------------------------------------------------------------

    def finished_key(self, base_secret: bytes) -> bytes:
        return hkdf_expand_label(base_secret, "finished", b"", HASH_LENGTH)

    def finished_verify_data(self, base_secret: bytes) -> bytes:
        import hmac as _hmac

        key = self.finished_key(base_secret)
        return _hmac.new(key, self.transcript_hash(), hashlib.sha256).digest()

    def export(self, label: str, context: bytes, length: int) -> bytes:
        """RFC 8446 section 7.5 exporter; TCPLS derives stream keys here."""
        if not self.exporter_secret:
            raise ValueError("exporter secret not yet available")
        derived = derive_secret(self.exporter_secret, label, _EMPTY_HASH)
        return hkdf_expand_label(derived, "exporter", sha256(context), length)

    @staticmethod
    def resumption_psk(resumption_master_secret: bytes, ticket_nonce: bytes) -> bytes:
        return hkdf_expand_label(
            resumption_master_secret, "resumption", ticket_nonce, HASH_LENGTH
        )
