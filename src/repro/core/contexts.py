"""Per-stream / per-connection cryptographic contexts (paper section 2.3).

Every (stream, TCP connection, direction) triple gets its own AEAD keys,
derived from the TLS exporter secret, so:

- concurrent encryption/decryption between streams stays correct
  (independent nonce sequences — the paper's "nonce-misuse cannot
  happen while the record sequence number starts at 0");
- usage limits on a single AEAD key are divided by N streams;
- the receiver discovers which stream a record belongs to by *trial
  decryption*: check the authentication tag against each candidate
  context until one verifies.  A failed tag check is counted as a
  potential forgery (section 2.3's security note).

Binding the context to the connection as well as the stream keeps every
context's records in-order (TCP delivers each connection in order), so
trial decryption never needs nonce searching.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.crypto.keyschedule import TrafficKeys
from repro.tls.record import CipherState, RecordDecoder
from repro.utils.errors import CryptoError

CONTROL_STREAM_ID = 0

_EXPORTER_LABEL = "tcpls context"


class ContextManager:
    """Derives and caches cipher states for one TCPLS session endpoint."""

    def __init__(self, exporter, is_client: bool) -> None:
        """``exporter(label, context, length)`` — the TLS exporter."""
        self._exporter = exporter
        self._is_client = is_client
        self._send: Dict[Tuple[int, int], CipherState] = {}
        self._recv: Dict[Tuple[int, int], CipherState] = {}
        self.forgery_suspects = 0
        self.trial_decryptions = 0
        # Per-connection affinity: the stream whose context authenticated
        # the most recent record.  Bulk transfers land on one stream, so
        # trying it first collapses trial decryption to ~1 MAC per record.
        self._last_stream: Dict[int, int] = {}

    # -- derivation ---------------------------------------------------------

    def _derive(self, stream_id: int, conn_token: bytes, sender_is_client: bool) -> CipherState:
        direction = b"client" if sender_is_client else b"server"
        context = (
            stream_id.to_bytes(4, "big") + conn_token + b"/" + direction
        )
        secret = self._exporter(_EXPORTER_LABEL, context, 32)
        return CipherState(TrafficKeys.from_secret(secret))

    def install(self, stream_id: int, conn_id: int, conn_token: bytes) -> None:
        """Create both directions' contexts for a stream on a connection."""
        send_key = (stream_id, conn_id)
        if send_key in self._send:
            return
        self._send[send_key] = self._derive(stream_id, conn_token, self._is_client)
        self._recv[send_key] = self._derive(stream_id, conn_token, not self._is_client)

    def install_external(
        self, stream_id: int, conn_id: int, send: CipherState, recv: CipherState
    ) -> None:
        """Adopt externally-owned cipher states (the TLS application keys
        become the primary connection's control context, keeping one
        sequence-number space with post-handshake TLS messages)."""
        self._send[(stream_id, conn_id)] = send
        self._recv[(stream_id, conn_id)] = recv

    def remove_stream(self, stream_id: int) -> None:
        for key in [k for k in self._send if k[0] == stream_id]:
            del self._send[key]
        for key in [k for k in self._recv if k[0] == stream_id]:
            del self._recv[key]
        for conn_id, last in list(self._last_stream.items()):
            if last == stream_id:
                del self._last_stream[conn_id]

    def remove_connection(self, conn_id: int) -> None:
        for key in [k for k in self._send if k[1] == conn_id]:
            del self._send[key]
        for key in [k for k in self._recv if k[1] == conn_id]:
            del self._recv[key]
        self._last_stream.pop(conn_id, None)

    # -- access -----------------------------------------------------------------

    def send_context(self, stream_id: int, conn_id: int) -> Optional[CipherState]:
        return self._send.get((stream_id, conn_id))

    def recv_context(self, stream_id: int, conn_id: int) -> Optional[CipherState]:
        return self._recv.get((stream_id, conn_id))

    def recv_candidates(self, conn_id: int) -> List[Tuple[int, CipherState]]:
        """Receive contexts active on a connection (control first)."""
        candidates = [
            (stream_id, state)
            for (stream_id, context_conn), state in self._recv.items()
            if context_conn == conn_id
        ]
        candidates.sort(key=lambda item: item[0])
        return candidates

    def streams_on(self, conn_id: int) -> List[int]:
        return sorted(
            {stream_id for (stream_id, c) in self._send if c == conn_id}
        )

    # -- trial decryption ------------------------------------------------------------

    def open_record(
        self, conn_id: int, ciphertext: bytes
    ) -> Optional[Tuple[int, int, bytes]]:
        """Find the stream whose context authenticates this record.

        Returns (stream_id, inner_type, plaintext) or None when no
        context verifies — which the session counts as a forgery attempt.

        The context that authenticated the previous record on this
        connection is tried first — a pure reordering of the candidate
        scan, so the accepted (stream, plaintext) outcome is unchanged
        (exactly one context can verify a given tag) and only the number
        of wasted MACs drops.
        """
        candidates = self.recv_candidates(conn_id)
        last = self._last_stream.get(conn_id)
        if last is not None:
            # Affinity context first, the rest in stream-id order.
            for index, candidate in enumerate(candidates):
                if candidate[0] == last:
                    candidates.insert(0, candidates.pop(index))
                    break
        for stream_id, state in candidates:
            self.trial_decryptions += 1
            try:
                inner_type, plaintext = RecordDecoder.decrypt_with(state, ciphertext)
            except CryptoError:
                continue
            self._last_stream[conn_id] = stream_id
            return stream_id, inner_type, plaintext
        self.forgery_suspects += 1
        return None
