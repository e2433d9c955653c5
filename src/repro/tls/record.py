"""The TLS 1.3 record layer (RFC 8446 section 5).

Encrypted records hide their true content type: the outer header always
says ``application_data`` (23) and the real type rides as the last
plaintext byte (``TLSInnerPlaintext.type``).  The paper's Figure 1 is
precisely this mechanism — TCPLS extends the inner-type space with its
own control types (``repro.core.framing``), so a middlebox sees only
opaque APPDATA records.

``RecordDecoder.decrypt_with`` exposes the per-record AEAD open so TCPLS
can do trial decryption across per-stream cryptographic contexts
(paper section 2.3).

Keystream lookahead: the nonce schedule is deterministic (``iv XOR
sequence``), so a ``CipherState`` can precompute the ChaCha20 keystream
for the next several record sequence numbers in one vectorized call and
hand slices of it to the AEAD layer.  Sealing/opening through a window
is bit-identical to sealing each record on its own, the sequence
numbers advance the same way, and any key change drops the window.  A
window opens only on evidence of a stream (see ``CipherState``); every
other record goes through ``ChaCha20Poly1305`` one at a time.
"""

from __future__ import annotations

import struct
from typing import Callable, Iterator, List, Optional, Tuple

from repro.crypto import aead as _aead
from repro.crypto.aead import ChaCha20Poly1305, TAG_LENGTH
from repro.crypto.keyschedule import TrafficKeys
from repro.utils.errors import CryptoError, InvalidValue, ProtocolViolation

if _aead.HAVE_NUMPY:
    from repro.crypto.chacha20_fast import chacha20_keystream_multi


class ContentType:
    CHANGE_CIPHER_SPEC = 20
    ALERT = 21
    HANDSHAKE = 22
    APPLICATION_DATA = 23

MAX_PLAINTEXT = 1 << 14  # RFC 8446: 2^14 bytes of plaintext per record
RECORD_HEADER_LEN = 5
LEGACY_RECORD_VERSION = 0x0303

# Per-record overhead once encrypted: header + inner type byte + AEAD tag.
ENCRYPTED_OVERHEAD = RECORD_HEADER_LEN + 1 + TAG_LENGTH

#: Most record sequence numbers covered per lookahead keystream generation.
#: numpy dispatch overhead is per-op, not per-element, so a wider window
#: amortizes the ~1000 vector ops of a ChaCha20 pass over more records;
#: 32 full-size records is ~0.5 MiB of cached keystream.
LOOKAHEAD_RECORDS = 32
#: Inner plaintexts of at least this size count towards the run of
#: large records that sizes a window (see ``CipherState``).  Shorter
#: ones end the run; they still use a window that is already there.
_LOOKAHEAD_MIN_INNER = 1024


def record_header(content_type: int, length: int) -> bytes:
    return struct.pack("!BHH", content_type, LEGACY_RECORD_VERSION, length)


class CipherState:
    """One direction's AEAD key material plus its record sequence number.

    Holds the keystream lookahead cache: because the per-record nonce is
    ``iv XOR sequence``, the keystream for sequences ``[base, base + R)``
    can be generated in one vectorized pass and sliced per record.

    The window ramps like file readahead, on evidence only this state
    sees: ``R = min(LOOKAHEAD_RECORDS, run)``, where ``run`` counts the
    consecutive large records already sealed/opened under this key, so
    no more keystream is ever generated ahead than the run has consumed.
    A lone large record, a two-record response and a failed trial
    decryption (which never reaches ``advance``) therefore cost one
    lane-packed pass each; a bulk stream takes two such passes, doubles
    its window 2, 4, 8, 16 and is at 32 from its 33rd record.
    """

    def __init__(self, keys: TrafficKeys) -> None:
        self.keys = keys
        self.aead = ChaCha20Poly1305(keys.key)
        self.sequence = 0
        self._run = 0
        self._large = False  # the record at ``sequence`` extends the run
        self._ks_cache: Optional[memoryview] = None
        self._ks_base = 0
        self._ks_records = 0
        self._ks_record_bytes = 0

    def next_nonce(self) -> bytes:
        return self.keys.nonce_for(self.sequence)

    def advance(self) -> None:
        self.sequence += 1
        self._run = self._run + 1 if self._large else 0

    def rekey(self) -> None:
        """RFC 8446 7.2 key update."""
        self.keys = self.keys.next_generation()
        self.aead = ChaCha20Poly1305(self.keys.key)
        self.sequence = 0
        self._run = 0
        self._ks_cache = None

    def _lookahead(self, payload_length: int) -> Optional[memoryview]:
        """Keystream slice (OTK block + payload blocks) for the current
        sequence, or ``None`` when the lookahead should not engage."""
        if not _aead.HAVE_NUMPY:
            return None
        self._large = payload_length >= _LOOKAHEAD_MIN_INNER
        needed = 64 * (1 + (payload_length + 63) // 64)
        seq = self.sequence
        if (
            self._ks_cache is None
            or needed > self._ks_record_bytes
            or not self._ks_base <= seq < self._ks_base + self._ks_records
        ):
            window = min(LOOKAHEAD_RECORDS, self._run)
            if not self._large or window < 2:  # one record looks nothing ahead
                return None
            nonces = [self.keys.nonce_for(s) for s in range(seq, seq + window)]
            self._ks_cache = memoryview(
                chacha20_keystream_multi(self.keys.key, nonces, 0, needed // 64)
            )
            self._ks_base = seq
            self._ks_records = window
            self._ks_record_bytes = needed
        start = (seq - self._ks_base) * self._ks_record_bytes
        return self._ks_cache[start : start + needed]

    def seal(self, inner: bytes, aad: bytes) -> bytes:
        """Encrypt one record at the current sequence (does not advance)."""
        keystream = self._lookahead(len(inner))
        if keystream is not None:
            return _aead.seal_with_keystream(keystream, inner, aad)
        return self.aead.encrypt(self.next_nonce(), inner, aad)

    def open(self, ciphertext: bytes, aad: bytes) -> bytes:
        """Verify + decrypt one record at the current sequence.

        The tag is checked before any plaintext is produced.  A failed
        trial decryption has paid the record's whole keystream pass by
        then: the one-time key and the payload stream come out of one
        lane-packed pass.
        """
        keystream = self._lookahead(len(ciphertext) - TAG_LENGTH)
        if keystream is not None:
            return _aead.open_with_keystream(keystream, ciphertext, aad)
        return self.aead.decrypt(self.next_nonce(), ciphertext, aad)


class RecordEncoder:
    """Serializes plaintext or encrypted records for one direction."""

    def __init__(self) -> None:
        self._cipher: Optional[CipherState] = None
        self.records_encrypted = 0
        # Optional observability hook: called with the on-wire record
        # length after each encrypted record is produced.  Recording
        # only — never alters the bytes.
        self.on_record_encrypted: Optional[Callable[[int], None]] = None

    @property
    def cipher(self) -> Optional[CipherState]:
        return self._cipher

    def set_key(self, keys: TrafficKeys) -> None:
        self._cipher = CipherState(keys)

    def encode(self, content_type: int, payload: bytes) -> bytes:
        """Produce one or more records carrying ``payload``."""
        out = []
        offset = 0
        while True:
            chunk = payload[offset : offset + MAX_PLAINTEXT - 1]
            out.append(self._encode_one(content_type, chunk))
            offset += len(chunk)
            if offset >= len(payload):
                break
        return b"".join(out)

    def _encode_one(self, content_type: int, chunk: bytes) -> bytes:
        if self._cipher is None:
            return record_header(content_type, len(chunk)) + chunk
        inner = chunk + bytes([content_type])
        sealed_length = len(inner) + TAG_LENGTH
        header = record_header(ContentType.APPLICATION_DATA, sealed_length)
        sealed = self._cipher.seal(inner, header)
        self._cipher.advance()
        self.records_encrypted += 1
        if self.on_record_encrypted is not None:
            self.on_record_encrypted(len(header) + len(sealed))
        return header + sealed


def strip_padding(inner: bytes) -> Tuple[int, bytes]:
    """Split TLSInnerPlaintext into (content_type, content)."""
    end = len(inner)
    while end > 0 and inner[end - 1] == 0:
        end -= 1
    if end == 0:
        raise InvalidValue("record with all-zero inner plaintext")
    return inner[end - 1], inner[: end - 1]


class RecordDecoder:
    """Reassembles a byte stream into records and decrypts them."""

    def __init__(self) -> None:
        self._cipher: Optional[CipherState] = None
        self._buffer = bytearray()
        self.records_decrypted = 0
        self.decrypt_failures = 0
        # Optional observability hook: ciphertext length of each record
        # successfully decrypted by this decoder.
        self.on_record_decrypted: Optional[Callable[[int], None]] = None

    @property
    def cipher(self) -> Optional[CipherState]:
        return self._cipher

    def set_key(self, keys: TrafficKeys) -> None:
        self._cipher = CipherState(keys)

    def feed(self, data: bytes) -> None:
        self._buffer.extend(data)

    def pending_bytes(self) -> int:
        return len(self._buffer)

    def records(self) -> Iterator[Tuple[int, bytes]]:
        """Yield complete (content_type, plaintext) records."""
        while True:
            record = self._next_raw_record()
            if record is None:
                return
            outer_type, ciphertext = record
            if self._cipher is None or outer_type != ContentType.APPLICATION_DATA:
                yield outer_type, ciphertext
                continue
            yield self._decrypt(ciphertext)

    def raw_records(self) -> Iterator[Tuple[int, bytes]]:
        """Yield records without decrypting (TCPLS trial decryption path)."""
        while True:
            record = self._next_raw_record()
            if record is None:
                return
            yield record

    def _next_raw_record(self) -> Optional[Tuple[int, bytes]]:
        if len(self._buffer) < RECORD_HEADER_LEN:
            return None
        # Header fields straight out of the reassembly buffer — one
        # struct call instead of a ByteReader over a copied slice.
        outer_type, _legacy_version, length = struct.unpack_from(
            "!BHH", self._buffer, 0
        )
        if length > MAX_PLAINTEXT + 256 + TAG_LENGTH:
            raise InvalidValue(f"record length {length} exceeds the limit")
        if len(self._buffer) < RECORD_HEADER_LEN + length:
            return None
        body = bytes(self._buffer[RECORD_HEADER_LEN : RECORD_HEADER_LEN + length])
        del self._buffer[: RECORD_HEADER_LEN + length]
        return outer_type, body

    def _decrypt(self, ciphertext: bytes) -> Tuple[int, bytes]:
        assert self._cipher is not None
        header = record_header(ContentType.APPLICATION_DATA, len(ciphertext))
        try:
            inner = self._cipher.open(ciphertext, header)
        except CryptoError:
            self.decrypt_failures += 1
            raise
        self._cipher.advance()
        self.records_decrypted += 1
        if self.on_record_decrypted is not None:
            self.on_record_decrypted(len(ciphertext))
        return strip_padding(inner)

    @staticmethod
    def decrypt_with(cipher: CipherState, ciphertext: bytes) -> Tuple[int, bytes]:
        """Open one record under an explicit cipher state.

        Raises ``CryptoError`` without touching the sequence number if the
        tag does not verify — the lightweight "check the authentication
        tag until we find the stream" probe from paper section 2.3.
        """
        header = record_header(ContentType.APPLICATION_DATA, len(ciphertext))
        inner = cipher.open(ciphertext, header)
        cipher.advance()
        return strip_padding(inner)
