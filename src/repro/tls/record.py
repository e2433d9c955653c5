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
sequence``), so a ``CipherState`` makes the keystream of its next few
records in one pass, lane-packed or numpy as ``aead.numpy_pays`` says,
and hands the AEAD one slot of it per record.  A record no window covers
gets its slot from the first of these rules that applies:

- fresh-key window: a key's first record of at most ``FRESH_BLOCKS``
  blocks opens ``FRESH_RECORDS`` slots of its block count;
- run window: ``min(LOOKAHEAD_RECORDS, run)`` slots of the last record's
  block count if ``window_pays``, the run being the records sealed, or
  opened and verified, so far.  A receiver opens it at the next sequence
  right after a tag verified, except at the end of a fresh-key window
  (most keys that fill one carry no more records);
- failed-trial slot: any other open makes its own pass as a one-slot
  window, which stays if the tag fails, so re-trying a record there
  (paper section 2.3) costs one Poly1305 and no pass.

Every open checks the tag from its slot's block 0 before it reads the
payload keystream or makes any, so a failed trial under a slot makes
none.  A record longer than its slot is sealed in one pass of its own and
opened with the rest made in one pass.  Output is bit-identical to
sealing each record on its own; a key change drops the window.
"""

from __future__ import annotations

import struct
from typing import Callable, Iterator, List, Optional, Tuple

from repro.crypto import aead as _aead
from repro.crypto.aead import ChaCha20Poly1305, TAG_LENGTH
from repro.crypto.chacha20_fast import chacha20_keystream_multi
from repro.crypto.keyschedule import TrafficKeys
from repro.utils.errors import InvalidValue, MessageTooLarge, ProtocolViolation


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

#: Most record sequence numbers one keystream window covers: 32
#: full-size records is ~0.5 MiB of keystream.
LOOKAHEAD_RECORDS = 32
#: A fresh-key window: JOIN, per-stream and resumed keys carry few records.
FRESH_RECORDS = 4
FRESH_BLOCKS = 4


def window_pays(records: int, blocks: int) -> bool:
    """Whether one pass over ``records`` slots of ``blocks`` blocks (lane
    or numpy, the cheaper) costs less than the per-record lane passes it
    saves when half its slots are used; never for one slot."""
    saved_us = records / 2 * _aead.lane_pass_us(blocks)
    cost_us = min(_aead.lane_pass_us(records * blocks), _aead.numpy_pass_us(records, blocks))
    return records >= 2 and saved_us > cost_us


def record_header(content_type: int, length: int) -> bytes:
    return struct.pack("!BHH", content_type, LEGACY_RECORD_VERSION, length)


class CipherState:
    """One direction's AEAD key material, its record sequence number and
    its keystream window (sequences ``[base, base + W)``, one slot per
    record), opened by the rule in the module docstring."""

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
        """The current sequence's slot (block 0 first), or ``None``."""
        offset = self.sequence - self._ks_base
        if self._ks_cache is None or not 0 <= offset < self._ks_records:
            return None
        start = offset * self._ks_record_bytes
        return self._ks_cache[start : start + self._ks_record_bytes]

    def _open_window(self, base: int, records: int, blocks: int) -> None:
        """``records`` slots of ``blocks`` from ``base`` in the cheaper pass."""
        nonces = [self.keys.nonce_for(s) for s in range(base, base + records)]
        if records == 1:  # a record's own pass, as the AEAD makes it
            keystream = _aead.keystream_pass(self.keys.key, 0, nonces[0], blocks)
        elif _aead.numpy_pays(records, blocks):
            keystream = chacha20_keystream_multi(self.keys.key, nonces, 0, blocks)
        else:
            keystream = _aead.chacha20_keystream_lanes(self.keys.key, 0, b"".join(nonces), blocks)
        self._ks_cache = memoryview(keystream)
        self._ks_base = base
        self._ks_records = records
        self._ks_record_bytes = 64 * blocks

    def _run_window(self, base: int) -> None:
        records, blocks = min(LOOKAHEAD_RECORDS, self.sequence), self._last_blocks
        if window_pays(records, blocks):
            self._open_window(base, records, blocks)

    def seal(self, inner: bytes, aad: bytes) -> bytes:
        """Encrypt one record at the current sequence (does not advance)."""
        blocks = 1 + (len(inner) + 63) // 64
        slot = self._slot()
        if slot is None:
            if self.sequence == 0 and blocks <= FRESH_BLOCKS:
                self._open_window(0, FRESH_RECORDS, blocks)
            else:
                self._run_window(self.sequence)
            slot = self._slot()
        self._last_blocks = blocks
        if slot is None or len(slot) < 64 * blocks:
            return self.aead.encrypt(self.next_nonce(), inner, aad)
        return _aead.seal_with_keystream(slot, inner, aad)

    def open(self, ciphertext: bytes, aad: bytes) -> bytes:
        """Verify + decrypt one record at the current sequence, tag first."""
        slot = self._slot()
        if slot is None:
            blocks = 1 + (len(ciphertext) - TAG_LENGTH + 63) // 64
            if self.sequence == 0 and blocks <= FRESH_BLOCKS:
                self._open_window(0, FRESH_RECORDS, blocks)
            else:  # kept as a failed-trial slot if the tag fails
                self._open_window(self.sequence, 1, blocks)
            slot = self._slot()
        inner = _aead.open_with_keystream(
            slot, ciphertext, aad, key=self.keys.key, nonce=self.next_nonce()
        )
        self._last_blocks = 1 + (len(inner) + 63) // 64
        fresh = self._ks_base == 0 and self._ks_records > 1  # run windows never start at 0
        if self.sequence + 1 >= self._ks_base + self._ks_records and not fresh:
            self._run_window(self.sequence + 1)
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
        inner = self._cipher.open(ciphertext, header)
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
