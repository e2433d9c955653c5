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

Keystream windows: the nonce schedule is deterministic (``iv XOR
sequence``), so a ``CipherState`` can precompute the ChaCha20 keystream
for its next several record sequence numbers in one vectorized call and
hand a slot of it to the AEAD layer per record, whatever its size.
Sealing/opening through a window is bit-identical to sealing each
record on its own, and any key change drops the window.  Opens verify
the tag from the slot's block 0 first, so a failed trial decryption
under a window costs one Poly1305.  Records no window covers go through
``ChaCha20Poly1305`` one at a time, each in one pass of its own.
"""

from __future__ import annotations

import struct
from typing import Callable, Iterator, List, Optional, Tuple

from repro.crypto import aead as _aead
from repro.crypto.aead import ChaCha20Poly1305, TAG_LENGTH
from repro.crypto.chacha20_fast import chacha20_keystream_multi
from repro.crypto.keyschedule import TrafficKeys
from repro.utils.errors import CryptoError, InvalidValue, MessageTooLarge, ProtocolViolation


class ContentType:
    CHANGE_CIPHER_SPEC = 20
    ALERT = 21
    HANDSHAKE = 22
    APPLICATION_DATA = 23

MAX_PLAINTEXT = 1 << 14  # RFC 8446: 2^14 bytes of plaintext per record
MAX_INNER_PLAINTEXT = MAX_PLAINTEXT + 1  # section 5.4: content + type byte
MAX_CIPHERTEXT = MAX_PLAINTEXT + 256  # section 5.2; each limit raises MessageTooLarge
RECORD_HEADER_LEN = 5
LEGACY_RECORD_VERSION = 0x0303

# Per-record overhead once encrypted: header + inner type byte + AEAD tag.
ENCRYPTED_OVERHEAD = RECORD_HEADER_LEN + 1 + TAG_LENGTH

#: Most record sequence numbers one keystream window covers: 32
#: full-size records is ~0.5 MiB of keystream.
LOOKAHEAD_RECORDS = 32


def window_pays(records: int, blocks: int) -> bool:
    """Whether one numpy pass over ``records`` slots of ``blocks``
    keystream blocks costs less than the lane passes it saves when only
    half its slots are used (a window sized by the run bets on as many
    records ahead as behind).  The costs are the AEAD's own
    ``lane_pass_us`` and ``numpy_pass_us``.  A one-slot window looks
    nothing ahead and never opens.
    """
    saved_us = records / 2 * _aead.lane_pass_us(blocks)
    return records >= 2 and saved_us > _aead.numpy_pass_us(records, blocks)


def record_header(content_type: int, length: int) -> bytes:
    return struct.pack("!BHH", content_type, LEGACY_RECORD_VERSION, length)


class CipherState:
    """One direction's AEAD key material plus its record sequence number.

    Holds the keystream window for sequences ``[base, base + W)``, one
    slot per record, and the one rule for opening it.  The run is
    ``sequence``: every record sealed or opened and advanced past (a
    failed trial decryption never advances).  At a sequence no window
    covers, ``W = min(LOOKAHEAD_RECORDS, sequence)`` slots of the key's
    last record's block count open when ``window_pays``, so no more
    keystream is generated ahead than the run consumed.  A record longer
    than its slot is sealed by one pass of its own; it is opened MAC-first
    from the slot's block 0 and gets the rest from one pass.
    """

    def __init__(self, keys: TrafficKeys) -> None:
        self.keys = keys
        self.aead = ChaCha20Poly1305(keys.key)
        self.sequence = 0
        self._last_blocks = 0  # keystream blocks of the last record sealed/opened
        self._ks_cache: Optional[memoryview] = None
        self._ks_base = 0
        self._ks_records = 0
        self._ks_record_bytes = 0

    def next_nonce(self) -> bytes:
        return self.keys.nonce_for(self.sequence)

    def advance(self) -> None:
        self.sequence += 1

    def rekey(self) -> None:
        """RFC 8446 7.2 key update."""
        self.keys = self.keys.next_generation()
        self.aead = ChaCha20Poly1305(self.keys.key)
        self.sequence = 0
        self._ks_cache = None

    def _slot(self) -> Optional[memoryview]:
        """The current sequence's slot of the live window (block 0
        first), or ``None`` when no window covers it."""
        offset = self.sequence - self._ks_base
        if self._ks_cache is None or not 0 <= offset < self._ks_records:
            return None
        start = offset * self._ks_record_bytes
        return self._ks_cache[start : start + self._ks_record_bytes]

    def _open_window(self, base: int) -> None:
        """Generate ``min(LOOKAHEAD_RECORDS, sequence)`` slots from
        sequence ``base`` if ``window_pays``."""
        records, blocks = min(LOOKAHEAD_RECORDS, self.sequence), self._last_blocks
        if not window_pays(records, blocks):
            return
        nonces = [self.keys.nonce_for(s) for s in range(base, base + records)]
        self._ks_cache = memoryview(
            chacha20_keystream_multi(self.keys.key, nonces, 0, blocks)
        )
        self._ks_base = base
        self._ks_records = records
        self._ks_record_bytes = 64 * blocks

    def seal(self, inner: bytes, aad: bytes) -> bytes:
        """Encrypt one record at the current sequence (does not advance)."""
        slot = self._slot()
        if slot is None:
            self._open_window(self.sequence)
            slot = self._slot()
        self._last_blocks = 1 + (len(inner) + 63) // 64
        if slot is None or len(slot) < 64 * self._last_blocks:
            return self.aead.encrypt(self.next_nonce(), inner, aad)
        return _aead.seal_with_keystream(slot, inner, aad)

    def open(self, ciphertext: bytes, aad: bytes) -> bytes:
        """Verify + decrypt one record at the current sequence.

        The tag is checked before any plaintext is produced.  Under a
        window that check needs only the slot's block 0, so a failed
        trial decryption generates no keystream; without one it has
        paid a whole keystream pass.  A receiver's window opens right
        after a tag verified, at the next sequence if no window covers
        it: a trial decryption is no evidence that this key has a
        record there.
        """
        slot = self._slot()
        if slot is None:
            inner = self.aead.decrypt(self.next_nonce(), ciphertext, aad)
        else:
            inner = _aead.open_with_keystream(
                slot, ciphertext, aad, key=self.keys.key, nonce=self.next_nonce()
            )
        self._last_blocks = 1 + (len(inner) + 63) // 64
        following = self.sequence + 1
        if self._ks_cache is None or following >= self._ks_base + self._ks_records:
            self._open_window(following)
        return inner


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


def _check_inner_length(ciphertext: bytes) -> None:
    """RFC 8446 5.4: the TLSInnerPlaintext (ciphertext less the tag) is
    at most 2^14 + 1 bytes; checked before any AEAD work is spent."""
    if len(ciphertext) - TAG_LENGTH > MAX_INNER_PLAINTEXT:
        raise MessageTooLarge(f"inner plaintext of {len(ciphertext) - TAG_LENGTH} bytes")


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
                if outer_type != ContentType.APPLICATION_DATA and len(ciphertext) > MAX_PLAINTEXT:
                    raise MessageTooLarge(f"plaintext record of {len(ciphertext)} bytes")
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
        if length > MAX_CIPHERTEXT:
            raise MessageTooLarge(f"record length {length} exceeds the limit")
        if len(self._buffer) < RECORD_HEADER_LEN + length:
            return None
        body = bytes(self._buffer[RECORD_HEADER_LEN : RECORD_HEADER_LEN + length])
        del self._buffer[: RECORD_HEADER_LEN + length]
        return outer_type, body

    def _decrypt(self, ciphertext: bytes) -> Tuple[int, bytes]:
        assert self._cipher is not None
        _check_inner_length(ciphertext)
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
        _check_inner_length(ciphertext)
        header = record_header(ContentType.APPLICATION_DATA, len(ciphertext))
        inner = cipher.open(ciphertext, header)
        cipher.advance()
        return strip_padding(inner)
