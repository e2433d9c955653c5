"""The TLS 1.3 connection driver (sans-io).

``TlsSession`` consumes transport bytes via ``receive`` and emits
transport bytes through the ``transport_write`` callback, so it runs
unchanged over simulated TCP.  It implements:

- the full 1-RTT handshake (certificates + Finished);
- PSK resumption via self-encrypted session tickets (stateless server);
- 0-RTT early data with binder verification and the EndOfEarlyData
  transition;
- post-handshake application data with key-updates available;
- the RFC 8446 exporter interface (TCPLS's source of stream keys).

TCPLS hooks in through ``extra_client_extensions`` (ClientHello) and
``extra_encrypted_extensions`` (EncryptedExtensions), plus the
``peer_*_extensions`` results after the handshake.
"""

from __future__ import annotations

import hmac as _hmac
import hashlib
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.crypto.aead import ChaCha20Poly1305
from repro.crypto.ed25519 import ed25519_verify
from repro.crypto.hkdf import hkdf_expand_label, sha256
from repro.crypto.keyschedule import KeySchedule, TrafficKeys
from repro.crypto.x25519 import X25519PrivateKey
from repro.tls import alerts
from repro.tls.alerts import TlsAlertError
from repro.tls.certificates import Certificate, Identity, TrustStore
from repro.tls import messages as m
from repro.tls.record import ContentType, RecordDecoder, RecordEncoder
from repro.tls.replay import AntiReplayRegister
from repro.utils.bytesio import ByteReader, ByteWriter
from repro.utils.errors import (
    CryptoError,
    DecodeError,
    GuardLimitExceeded,
    MessageTooLarge,
    ProtocolViolation,
)
from repro.utils.rng import random_bytes

_CERT_VERIFY_CONTEXT_SERVER = b" " * 64 + b"TLS 1.3, server CertificateVerify" + b"\x00"

#: Sealed-ticket plaintext layout: PSK(32) + issued-at-ms(8) + lifetime-s(4).
_TICKET_PLAINTEXT_LEN = 32 + 8 + 4


class _TicketDecline(Exception):
    """A presented ticket we cannot (or will not) resume from.

    Raised internally by the server's ticket unsealing/validation.  It is
    *not* an attack signal: a ticket sealed under a rotated key, an
    expired ticket, or a blob from a different deployment are all normal
    operational events — the handshake continues as a full 1-RTT
    handshake rather than dying with a fatal alert.  (A *valid* ticket
    with a wrong binder stays fatal; see ``_server_handle_client_hello``.)
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass
class ClientTicket:
    """A resumption ticket as cached by the client.

    ``issued_at`` is the client's clock when the ticket arrived (-1 when
    the session has no clock: no client-side expiry is enforced then);
    ``lifetime`` is the server-advertised ticket_lifetime in seconds.
    """

    server_name: str
    identity: bytes
    psk: bytes
    max_early_data: int
    age_add: int
    issued_at: float = -1.0
    lifetime: int = 0


class SessionTicketStore:
    """Client-side cache of resumption tickets, keyed by server name.

    Tickets are handed out oldest-first (single-use, FIFO — the oldest
    ticket dies first anyway), expired tickets are skipped and evicted on
    the way out, and the whole store is bounded: past ``max_tickets`` the
    oldest ticket of the least-recently-used server name is evicted, so
    a long soak run dialling many farms cannot grow the cache without
    bound.

    ``early_expiry`` is a safety factor on the advertised lifetime: a
    ticket is treated as dead after ``lifetime * early_expiry`` seconds,
    so the client never presents a ticket moments before its server-side
    death (clock skew + flight time would turn that into a guaranteed
    full-handshake fallback).
    """

    def __init__(
        self,
        max_tickets: int = 256,
        clock: Optional[Callable[[], float]] = None,
        early_expiry: float = 0.9,
    ) -> None:
        # dict ordering doubles as the LRU list: least-recently-used
        # server name first (every add/take re-appends its name).
        self._tickets: Dict[str, List[ClientTicket]] = {}
        self.max_tickets = max_tickets
        self.clock = clock
        self.early_expiry = early_expiry
        self.expired_evicted = 0
        self.lru_evicted = 0

    def _touch(self, server_name: str) -> None:
        queue = self._tickets.pop(server_name, None)
        if queue is not None:
            self._tickets[server_name] = queue

    def _expired(self, ticket: ClientTicket, now: Optional[float]) -> bool:
        if now is None or ticket.lifetime <= 0 or ticket.issued_at < 0:
            return False
        return now >= ticket.issued_at + ticket.lifetime * self.early_expiry

    def add(self, ticket: ClientTicket) -> None:
        self._tickets.setdefault(ticket.server_name, []).append(ticket)
        self._touch(ticket.server_name)
        while self.max_tickets and self.total_count() > self.max_tickets:
            lru_name = next(iter(self._tickets))
            queue = self._tickets[lru_name]
            queue.pop(0)
            self.lru_evicted += 1
            if not queue:
                del self._tickets[lru_name]

    def take(
        self, server_name: str, now: Optional[float] = None
    ) -> Optional[ClientTicket]:
        """Pop the oldest still-fresh ticket (single-use against replay).

        Expired tickets encountered on the way are evicted, not
        returned — presenting one would only buy a guaranteed decline.
        """
        if now is None and self.clock is not None:
            now = self.clock()
        queue = self._tickets.get(server_name)
        if not queue:
            return None
        self._touch(server_name)
        taken: Optional[ClientTicket] = None
        while queue:
            ticket = queue.pop(0)
            if self._expired(ticket, now):
                self.expired_evicted += 1
                continue
            taken = ticket
            break
        if not queue:
            self._tickets.pop(server_name, None)
        return taken

    def count(self, server_name: str) -> int:
        return len(self._tickets.get(server_name, []))

    def total_count(self) -> int:
        return sum(len(queue) for queue in self._tickets.values())


@dataclass
class TlsConfig:
    """Configuration shared by client and server sessions."""

    # Server side.
    identity: Optional[Identity] = None
    ticket_key: bytes = b"\x00" * 32
    send_tickets: int = 1
    max_early_data: int = 1 << 16
    ticket_lifetime: int = 7200
    anti_replay: Optional[AntiReplayRegister] = None
    extra_encrypted_extensions: List[Tuple[int, bytes]] = field(default_factory=list)

    # Client side.
    trust_store: Optional[TrustStore] = None
    server_name: str = ""
    ticket_store: Optional[SessionTicketStore] = None
    extra_client_extensions: List[Tuple[int, bytes]] = field(default_factory=list)

    # Shared.  ``clock`` enables ticket lifetime enforcement (issue
    # stamping on the server, early expiry on the client); without it
    # tickets never expire, preserving the pre-clock behaviour.
    rng: random.Random = field(default_factory=lambda: random.Random(0))
    clock: Optional[Callable[[], float]] = None


class TlsSession:
    """One endpoint of a TLS 1.3 connection."""

    def __init__(
        self,
        config: TlsConfig,
        is_server: bool,
        transport_write: Callable[[bytes], None],
    ) -> None:
        self.config = config
        self.is_server = is_server
        self._write = transport_write
        self.encoder = RecordEncoder()
        self.decoder = RecordDecoder()
        self.keys = KeySchedule()
        self._handshake_buffer = bytearray()
        self._ecdh: Optional[X25519PrivateKey] = None

        self.state = "START"
        self.is_established = False
        self.can_send_application_data = False
        self.used_psk = False
        self.early_data_sent = False
        self.early_data_accepted = False
        self._pending_early_data = b""
        self._skipping_early_data = False
        self._psk_ticket: Optional[ClientTicket] = None
        self._sent_client_hello = b""
        self._early_data_limit = 0
        # Resumption outcomes, recorded here only (the recovery storm
        # and tests read them).  ``psk_offered`` is set on both ends;
        # ``psk_declined`` on the client when it fell back to a full
        # handshake; ``psk_decline_reason`` on the server explains *why*
        # it declined ("unseal", "expired", ...); ``early_replay_rejected``
        # marks 0-RTT refused by the anti-replay register specifically.
        self.psk_offered = False
        self.psk_declined = False
        self.psk_decline_reason: Optional[str] = None
        self.early_replay_rejected = False
        self.peer_certificate: Optional[Certificate] = None
        self.peer_client_hello_extensions: List[Tuple[int, bytes]] = []
        self.peer_encrypted_extensions: List[Tuple[int, bytes]] = []
        self.peer_closed = False
        self.key_updates_sent = 0
        self.key_updates_received = 0

        # Fail-closed accounting (the guard tests and the TCPLS
        # session's ``decode_rejected``/``guard_tripped`` stats read
        # these).  ``max_handshake_message`` bounds a single message's
        # declared length; ``max_handshake_buffer`` bounds the reassembly
        # buffer so a peer cannot stall us mid-message forever while we
        # hoard its bytes.
        self.decode_rejected = 0
        self.guard_tripped = 0
        self.max_handshake_message = m.MAX_HANDSHAKE_BODY
        self.max_handshake_buffer = 1 << 17
        self.on_decode_rejected: Optional[Callable[[str], None]] = None
        self.on_guard_tripped: Optional[Callable[[str], None]] = None

        # Events.
        self.on_handshake_complete: Optional[Callable[[], None]] = None
        self.on_application_data: Optional[Callable[[bytes], None]] = None
        self.on_early_data: Optional[Callable[[bytes], None]] = None
        self.on_ticket: Optional[Callable[[ClientTicket], None]] = None
        self.on_close: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------
    # Client start
    # ------------------------------------------------------------------

    def start_handshake(self, early_data: bytes = b"") -> None:
        if self.is_server:
            raise RuntimeError("start_handshake is client-only")
        if self.state != "START":
            raise RuntimeError(f"handshake already started ({self.state})")
        self._ecdh = X25519PrivateKey(random_bytes(self.config.rng, 32))
        extensions: List[Tuple[int, bytes]] = [
            (m.EXT_SUPPORTED_VERSIONS, m.build_supported_versions_client()),
            (m.EXT_KEY_SHARE, m.build_key_share_client(self._ecdh.public_bytes)),
        ]
        if self.config.server_name:
            extensions.append(
                (m.EXT_SERVER_NAME, m.build_server_name(self.config.server_name))
            )
        extensions.extend(self.config.extra_client_extensions)

        ticket = None
        if self.config.ticket_store is not None and self.config.server_name:
            now = self.config.clock() if self.config.clock is not None else None
            ticket = self.config.ticket_store.take(self.config.server_name, now=now)
        if early_data and ticket is None:
            raise ProtocolViolation("0-RTT requires a resumption ticket")
        if ticket is not None:
            self._psk_ticket = ticket
            self.psk_offered = True
            self._early_data_limit = ticket.max_early_data
            if early_data:
                extensions.append((m.EXT_EARLY_DATA, b""))
            # pre_shared_key must be the last extension (RFC 8446 4.2.11).
            extensions.append(
                (
                    m.EXT_PRE_SHARED_KEY,
                    m.build_psk_offer(ticket.identity, ticket.age_add, 32),
                )
            )

        hello = m.ClientHello(
            random=random_bytes(self.config.rng, 32),
            session_id=random_bytes(self.config.rng, 32),
            extensions=extensions,
        )
        raw = hello.to_bytes()
        if ticket is not None:
            self.keys = KeySchedule(psk=ticket.psk)
            raw = self._patch_binder(raw, ticket.psk)
        # Kept verbatim so a PSK decline can replay the transcript into a
        # fresh (PSK-less) key schedule without re-sending the hello.
        self._sent_client_hello = raw
        self.keys.update_transcript(raw)
        self._send_record(ContentType.HANDSHAKE, raw)
        self.state = "WAIT_SH"

        if early_data and ticket is not None:
            early = self.keys.derive_early()
            self.encoder.set_key(TrafficKeys.from_secret(early["client_early_traffic"]))
            self._send_record(ContentType.APPLICATION_DATA, early_data)
            self.early_data_sent = True
            self._pending_early_data = early_data

    def send_early_data(self, data: bytes) -> None:
        """Stream more 0-RTT data while the handshake is still in flight.

        Only valid after ``start_handshake(early_data=...)`` and before
        the handshake completes.  The bytes ride under the early traffic
        key; if the server rejects 0-RTT (or declines the PSK entirely)
        every early byte — including these — is replayed under 1-RTT keys
        once established, so data queued behind early data is never lost.
        """
        if self.is_server:
            raise RuntimeError("send_early_data is client-only")
        if not self.early_data_sent:
            raise ProtocolViolation("no 0-RTT flight open; use send()")
        if self.is_established:
            raise ProtocolViolation("handshake complete; use send()")
        if (
            self._early_data_limit
            and len(self._pending_early_data) + len(data) > self._early_data_limit
        ):
            raise GuardLimitExceeded(
                "early data exceeds the ticket's max_early_data "
                f"({self._early_data_limit} bytes)"
            )
        if data:
            self._send_record(ContentType.APPLICATION_DATA, data)
            self._pending_early_data += data

    def _patch_binder(self, raw_client_hello: bytes, psk: bytes) -> bytes:
        """Fill in the PSK binder over the truncated ClientHello."""
        binders_len = m.psk_binders_length(32)
        truncated = raw_client_hello[:-binders_len]
        binder = _compute_binder(psk, truncated)
        return raw_client_hello[:-32] + binder

    # ------------------------------------------------------------------
    # Transport input
    # ------------------------------------------------------------------

    def receive(self, data: bytes) -> None:
        self.decoder.feed(data)
        while True:
            try:
                for content_type, payload in self.decoder.records():
                    if self._skipping_early_data:
                        self._skipping_early_data = False
                    self._on_record(content_type, payload)
                return
            except CryptoError:
                if self._skipping_early_data:
                    # RFC 8446 4.2.10: a server that rejected 0-RTT skips
                    # records that fail to decrypt (the client's early
                    # data under keys we refused to derive).
                    continue
                self._fatal(alerts.BAD_RECORD_MAC, "record authentication failed")
            except GuardLimitExceeded as exc:
                self._note_guard_trip(str(exc))
                self._fatal(alerts.DECODE_ERROR, f"guard tripped: {exc}")
            except DecodeError as exc:
                # Fail closed: a malformed peer message becomes a fatal
                # decode_error alert and connection teardown, never a
                # stray exception through the event loop.
                self._note_decode_rejected(str(exc))
                self._fatal(alerts.DECODE_ERROR, f"malformed peer message: {exc}")

    def _note_decode_rejected(self, detail: str) -> None:
        self.decode_rejected += 1
        if self.on_decode_rejected:
            self.on_decode_rejected(detail)

    def _note_guard_trip(self, detail: str) -> None:
        self.guard_tripped += 1
        if self.on_guard_tripped:
            self.on_guard_tripped(detail)

    def _on_record(self, content_type: int, payload: bytes) -> None:
        if content_type == ContentType.HANDSHAKE:
            self._handshake_buffer.extend(payload)
            self._drain_handshake_messages()
        elif content_type == ContentType.APPLICATION_DATA:
            if self.is_server and self.state == "WAIT_EOED":
                if self.on_early_data:
                    self.on_early_data(payload)
                return
            if not self.is_established:
                raise TlsAlertError(
                    alerts.UNEXPECTED_MESSAGE, "application data before handshake"
                )
            if payload and self.on_application_data:
                self.on_application_data(payload)
        elif content_type == ContentType.ALERT:
            level, description = alerts.decode_alert(payload)
            if description == alerts.CLOSE_NOTIFY:
                self.peer_closed = True
                if self.on_close:
                    self.on_close()
            else:
                raise TlsAlertError(description, f"peer alert: {alerts.alert_name(description)}")
        elif content_type == ContentType.CHANGE_CIPHER_SPEC:
            pass  # compatibility records are ignored
        else:
            raise TlsAlertError(alerts.UNEXPECTED_MESSAGE, f"record type {content_type}")

    def _drain_handshake_messages(self) -> None:
        while True:
            if len(self._handshake_buffer) < 4:
                return
            length = int.from_bytes(self._handshake_buffer[1:4], "big")
            if length > self.max_handshake_message:
                # A length lie this large would have us buffer forever
                # waiting for bytes that never come; reject it outright.
                raise MessageTooLarge(
                    f"handshake message {self._handshake_buffer[0]} claims "
                    f"{length}B (limit {self.max_handshake_message}B)"
                )
            total = 4 + length
            if len(self._handshake_buffer) < total:
                if len(self._handshake_buffer) > self.max_handshake_buffer:
                    raise GuardLimitExceeded(
                        f"handshake reassembly buffer exceeds "
                        f"{self.max_handshake_buffer}B"
                    )
                return
            raw = bytes(self._handshake_buffer[:total])
            del self._handshake_buffer[:total]
            self._on_handshake_message(raw[0], raw[4:], raw)

    # ------------------------------------------------------------------
    # Handshake state machine
    # ------------------------------------------------------------------

    def _on_handshake_message(self, msg_type: int, body: bytes, raw: bytes) -> None:
        if self.is_server:
            self._server_message(msg_type, body, raw)
        else:
            self._client_message(msg_type, body, raw)

    # -- client ------------------------------------------------------------

    def _client_message(self, msg_type: int, body: bytes, raw: bytes) -> None:
        if self.state == "WAIT_SH" and msg_type == m.SERVER_HELLO:
            self._client_handle_server_hello(m.ServerHello.from_body(body), raw)
        elif self.state == "WAIT_EE" and msg_type == m.ENCRYPTED_EXTENSIONS:
            msg = m.EncryptedExtensionsMsg.from_body(body)
            self.peer_encrypted_extensions = msg.extensions
            self.early_data_accepted = (
                self.early_data_sent
                and m.get_extension(msg.extensions, m.EXT_EARLY_DATA) is not None
            )
            self.keys.update_transcript(raw)
            self.state = "WAIT_FINISHED" if self.used_psk else "WAIT_CERT"
        elif self.state == "WAIT_CERT" and msg_type == m.CERTIFICATE:
            msg = m.CertificateMsg.from_body(body)
            self.peer_certificate = Certificate.from_bytes(msg.certificate_bytes)
            self.keys.update_transcript(raw)
            self.state = "WAIT_CV"
        elif self.state == "WAIT_CV" and msg_type == m.CERTIFICATE_VERIFY:
            self._client_handle_certificate_verify(
                m.CertificateVerifyMsg.from_body(body), raw
            )
        elif self.state == "WAIT_FINISHED" and msg_type == m.FINISHED:
            self._client_handle_finished(m.FinishedMsg.from_body(body), raw)
        elif msg_type == m.NEW_SESSION_TICKET and self.is_established:
            self._client_handle_ticket(m.NewSessionTicketMsg.from_body(body))
        elif msg_type == m.KEY_UPDATE and self.is_established:
            self._handle_key_update(m.KeyUpdateMsg.from_body(body))
        else:
            raise TlsAlertError(
                alerts.UNEXPECTED_MESSAGE,
                f"client got message {msg_type} in state {self.state}",
            )

    def _client_handle_server_hello(self, hello: m.ServerHello, raw: bytes) -> None:
        if hello.cipher_suite != m.CIPHER_CHACHA20_POLY1305_SHA256:
            raise TlsAlertError(alerts.ILLEGAL_PARAMETER, "unexpected cipher suite")
        selected_psk = m.get_extension(hello.extensions, m.EXT_PRE_SHARED_KEY)
        if selected_psk is not None and self._psk_ticket is not None:
            self.used_psk = True
        elif self._psk_ticket is not None:
            # The server declined our PSK — a ticket sealed under a
            # rotated key, expired, or from another deployment.  That is
            # an operational event, not an attack: restart the key
            # schedule without the PSK, replay our ClientHello into the
            # fresh transcript, and continue as a full 1-RTT handshake.
            # Any early data we sent was implicitly rejected; it is
            # replayed under 1-RTT keys at Finished time, so nothing the
            # application queued behind 0-RTT is dropped.
            self.psk_declined = True
            self._psk_ticket = None
            self.keys = KeySchedule()
            self.keys.update_transcript(self._sent_client_hello)
        key_share = m.get_extension(hello.extensions, m.EXT_KEY_SHARE)
        if key_share is None:
            raise TlsAlertError(alerts.MISSING_EXTENSION, "no key_share in ServerHello")
        server_public = m.parse_key_share_server(key_share)
        self.keys.update_transcript(raw)
        self.keys.input_ecdhe(self._ecdhe_shared(server_public))
        self.decoder.set_key(
            TrafficKeys.from_secret(self.keys.server_handshake_traffic)
        )
        self.state = "WAIT_EE"

    def _client_handle_certificate_verify(
        self, msg: m.CertificateVerifyMsg, raw: bytes
    ) -> None:
        if msg.algorithm != m.SIG_ED25519:
            raise TlsAlertError(alerts.ILLEGAL_PARAMETER, "unexpected sig algorithm")
        if self.config.trust_store is None:
            raise TlsAlertError(alerts.BAD_CERTIFICATE, "client has no trust store")
        expected = self.config.server_name or None
        if not self.config.trust_store.verify(self.peer_certificate, expected):
            raise TlsAlertError(alerts.BAD_CERTIFICATE, "certificate not trusted")
        signed = _CERT_VERIFY_CONTEXT_SERVER + self.keys.transcript_hash()
        if not ed25519_verify(self.peer_certificate.public_key, signed, msg.signature):
            raise TlsAlertError(alerts.DECRYPT_ERROR, "CertificateVerify failed")
        self.keys.update_transcript(raw)
        self.state = "WAIT_FINISHED"

    def _client_handle_finished(self, msg: m.FinishedMsg, raw: bytes) -> None:
        expected = self.keys.finished_verify_data(self.keys.server_handshake_traffic)
        if not _hmac.compare_digest(expected, msg.verify_data):
            raise TlsAlertError(alerts.DECRYPT_ERROR, "server Finished mismatch")
        self.keys.update_transcript(raw)
        self.keys.derive_master()

        if self.early_data_sent and self.early_data_accepted:
            eoed = m.EndOfEarlyDataMsg().to_bytes()
            self._send_record(ContentType.HANDSHAKE, eoed)  # still early key
            self.keys.update_transcript(eoed)
        self.encoder.set_key(
            TrafficKeys.from_secret(self.keys.client_handshake_traffic)
        )
        finished = m.FinishedMsg(
            verify_data=self.keys.finished_verify_data(
                self.keys.client_handshake_traffic
            )
        ).to_bytes()
        self._send_record(ContentType.HANDSHAKE, finished)
        self.keys.update_transcript(finished)
        self.keys.derive_resumption()

        self.encoder.set_key(
            TrafficKeys.from_secret(self.keys.client_application_traffic)
        )
        self.decoder.set_key(
            TrafficKeys.from_secret(self.keys.server_application_traffic)
        )
        self.is_established = True
        self.can_send_application_data = True
        self.state = "CONNECTED"
        if self.early_data_sent and not self.early_data_accepted:
            # Rejected 0-RTT: replay the early data under 1-RTT keys.
            self.send(self._pending_early_data)
        if self.on_handshake_complete:
            self.on_handshake_complete()

    def _client_handle_ticket(self, msg: m.NewSessionTicketMsg) -> None:
        psk = KeySchedule.resumption_psk(self.keys.resumption_master_secret, msg.nonce)
        issued_at = self.config.clock() if self.config.clock is not None else -1.0
        ticket = ClientTicket(
            server_name=self.config.server_name,
            identity=msg.ticket,
            psk=psk,
            max_early_data=msg.max_early_data,
            age_add=msg.age_add,
            issued_at=issued_at,
            lifetime=msg.lifetime,
        )
        if self.config.ticket_store is not None:
            self.config.ticket_store.add(ticket)
        if self.on_ticket:
            self.on_ticket(ticket)

    # -- server -----------------------------------------------------------------

    def _server_message(self, msg_type: int, body: bytes, raw: bytes) -> None:
        if self.state == "START" and msg_type == m.CLIENT_HELLO:
            self._server_handle_client_hello(m.ClientHello.from_body(body), raw)
        elif self.state == "WAIT_EOED" and msg_type == m.END_OF_EARLY_DATA:
            self.keys.update_transcript(raw)
            self.decoder.set_key(
                TrafficKeys.from_secret(self.keys.client_handshake_traffic)
            )
            self.state = "WAIT_FINISHED"
        elif self.state == "WAIT_FINISHED" and msg_type == m.FINISHED:
            self._server_handle_finished(m.FinishedMsg.from_body(body), raw)
        elif msg_type == m.KEY_UPDATE and self.is_established:
            self._handle_key_update(m.KeyUpdateMsg.from_body(body))
        else:
            raise TlsAlertError(
                alerts.UNEXPECTED_MESSAGE,
                f"server got message {msg_type} in state {self.state}",
            )

    def _server_handle_client_hello(self, hello: m.ClientHello, raw: bytes) -> None:
        if m.CIPHER_CHACHA20_POLY1305_SHA256 not in hello.cipher_suites:
            raise TlsAlertError(alerts.HANDSHAKE_FAILURE, "no common cipher suite")
        key_share = m.get_extension(hello.extensions, m.EXT_KEY_SHARE)
        if key_share is None:
            raise TlsAlertError(alerts.MISSING_EXTENSION, "ClientHello without key_share")
        client_public = m.parse_key_share_client(key_share)
        if client_public is None:
            raise TlsAlertError(alerts.HANDSHAKE_FAILURE, "no X25519 key share")
        self.peer_client_hello_extensions = hello.extensions

        # PSK / 0-RTT processing.
        psk: bytes = b""
        binder = b""
        psk_body = m.get_extension(hello.extensions, m.EXT_PRE_SHARED_KEY)
        early_requested = (
            m.get_extension(hello.extensions, m.EXT_EARLY_DATA) is not None
        )
        if psk_body is not None:
            self.psk_offered = True
            identity, _age, binder = m.parse_psk_offer(psk_body)
            try:
                psk, issued_at, lifetime = self._unseal_ticket(identity)
            except _TicketDecline as exc:
                # Unsealing failure is *expected* after a ticket-key
                # rotation or restart with fresh keys: decline the PSK
                # and continue as a full handshake.  The client falls
                # back (see _client_handle_server_hello) instead of
                # paying a torn-down connection.
                self.psk_decline_reason = exc.reason
                psk = b""
            else:
                truncated = raw[: -m.psk_binders_length(len(binder))]
                if not _hmac.compare_digest(_compute_binder(psk, truncated), binder):
                    # A ticket that unseals under *our* key but whose
                    # binder does not match its PSK is an active attack
                    # (a spliced or tampered offer), not a stale cache —
                    # this path stays fatal.
                    raise TlsAlertError(alerts.DECRYPT_ERROR, "PSK binder mismatch")
                if self._ticket_expired(issued_at, lifetime):
                    self.psk_decline_reason = "expired"
                    psk = b""
                else:
                    self.used_psk = True

        self.keys = KeySchedule(psk=psk)
        self.keys.update_transcript(raw)
        early_keys = self.keys.derive_early() if self.used_psk else None
        accept_early = (
            early_requested and self.used_psk and self.config.max_early_data > 0
        )
        if accept_early and self.config.anti_replay is not None:
            # RFC 8446 section 8: the binder is the replay key — a
            # replayed flight carries the identical binder.  On a second
            # sighting (or a full register: fail closed) refuse the early
            # data but keep the PSK resumption; the replayed flight
            # cannot complete the handshake anyway without the client's
            # live Finished.
            if not self.config.anti_replay.observe(binder):
                accept_early = False
                self.early_replay_rejected = True

        self._ecdh = X25519PrivateKey(random_bytes(self.config.rng, 32))
        extensions: List[Tuple[int, bytes]] = [
            (m.EXT_SUPPORTED_VERSIONS, m.build_supported_versions_server()),
            (m.EXT_KEY_SHARE, m.build_key_share_server(self._ecdh.public_bytes)),
        ]
        if self.used_psk:
            extensions.append((m.EXT_PRE_SHARED_KEY, m.build_psk_selected(0)))
        server_hello = m.ServerHello(
            random=random_bytes(self.config.rng, 32),
            session_id=hello.session_id,
            extensions=extensions,
        )
        sh_raw = server_hello.to_bytes()
        self.keys.update_transcript(sh_raw)
        self.keys.input_ecdhe(self._ecdhe_shared(client_public))
        self._send_record(ContentType.HANDSHAKE, sh_raw)
        self.encoder.set_key(
            TrafficKeys.from_secret(self.keys.server_handshake_traffic)
        )

        # EncryptedExtensions — TCPLS's secure control data rides here.
        ee_extensions = list(self.config.extra_encrypted_extensions)
        if accept_early:
            ee_extensions.append((m.EXT_EARLY_DATA, b""))
        ee = m.EncryptedExtensionsMsg(extensions=ee_extensions).to_bytes()
        self.keys.update_transcript(ee)
        self._send_record(ContentType.HANDSHAKE, ee)

        if not self.used_psk:
            if self.config.identity is None:
                raise TlsAlertError(alerts.HANDSHAKE_FAILURE, "server has no identity")
            cert = m.CertificateMsg(
                certificate_bytes=self.config.identity.certificate.to_bytes()
            ).to_bytes()
            self.keys.update_transcript(cert)
            self._send_record(ContentType.HANDSHAKE, cert)
            signed = _CERT_VERIFY_CONTEXT_SERVER + self.keys.transcript_hash()
            cert_verify = m.CertificateVerifyMsg(
                algorithm=m.SIG_ED25519,
                signature=self.config.identity.key.sign(signed),
            ).to_bytes()
            self.keys.update_transcript(cert_verify)
            self._send_record(ContentType.HANDSHAKE, cert_verify)

        finished = m.FinishedMsg(
            verify_data=self.keys.finished_verify_data(
                self.keys.server_handshake_traffic
            )
        ).to_bytes()
        self.keys.update_transcript(finished)
        self._send_record(ContentType.HANDSHAKE, finished)
        self.keys.derive_master()
        # 0.5-RTT: the server may send application data from here on.
        self.encoder.set_key(
            TrafficKeys.from_secret(self.keys.server_application_traffic)
        )
        self.can_send_application_data = True

        if accept_early:
            self.early_data_accepted = True
            self.decoder.set_key(
                TrafficKeys.from_secret(early_keys["client_early_traffic"])
            )
            self.state = "WAIT_EOED"
        else:
            if early_requested:
                self._skipping_early_data = True
            self.decoder.set_key(
                TrafficKeys.from_secret(self.keys.client_handshake_traffic)
            )
            self.state = "WAIT_FINISHED"

    def _server_handle_finished(self, msg: m.FinishedMsg, raw: bytes) -> None:
        expected = self.keys.finished_verify_data(self.keys.client_handshake_traffic)
        if not _hmac.compare_digest(expected, msg.verify_data):
            raise TlsAlertError(alerts.DECRYPT_ERROR, "client Finished mismatch")
        self.keys.update_transcript(raw)
        self.keys.derive_resumption()
        self.decoder.set_key(
            TrafficKeys.from_secret(self.keys.client_application_traffic)
        )
        self.is_established = True
        self.can_send_application_data = True
        self.state = "CONNECTED"
        # Tickets go out before the completion callback: the application
        # may close the transport from inside the callback.
        for _ in range(self.config.send_tickets):
            self._send_new_session_ticket()
        if self.on_handshake_complete:
            self.on_handshake_complete()

    # -- tickets ----------------------------------------------------------------------

    def _send_new_session_ticket(self) -> None:
        nonce = random_bytes(self.config.rng, 8)
        psk = KeySchedule.resumption_psk(self.keys.resumption_master_secret, nonce)
        lifetime = self.config.ticket_lifetime
        ticket_blob = self._seal_ticket(psk, lifetime)
        msg = m.NewSessionTicketMsg(
            lifetime=lifetime,
            age_add=int.from_bytes(random_bytes(self.config.rng, 4), "big"),
            nonce=nonce,
            ticket=ticket_blob,
            max_early_data=self.config.max_early_data,
        )
        raw = msg.to_bytes()
        self._send_record(ContentType.HANDSHAKE, raw)

    def _seal_ticket(self, psk: bytes, lifetime: int) -> bytes:
        """Stateless ticket: AEAD-seal PSK + issue time + lifetime.

        The issue timestamp rides *inside* the sealed blob so the server
        enforces its own lifetime without trusting the client's clock;
        without a configured clock it seals 0 and expiry is disabled.
        """
        issued = self.config.clock() if self.config.clock is not None else 0.0
        plaintext = (
            psk
            + int(max(issued, 0.0) * 1000).to_bytes(8, "big")
            + int(lifetime).to_bytes(4, "big")
        )
        nonce = random_bytes(self.config.rng, 12)
        aead = ChaCha20Poly1305(self.config.ticket_key)
        return nonce + aead.encrypt(nonce, plaintext, b"repro-ticket")

    def _unseal_ticket(self, blob: bytes) -> Tuple[bytes, float, int]:
        """Open a presented ticket; ``_TicketDecline`` on any failure.

        Declines (never fatal alerts): a blob too short to carry the
        AEAD envelope, an authentication failure (rotated or foreign
        ticket key), or a plaintext of the wrong shape (older sealing
        format).  Returns ``(psk, issued_at_seconds, lifetime_seconds)``.
        """
        if len(blob) < 12 + 16:
            raise _TicketDecline("short")
        aead = ChaCha20Poly1305(self.config.ticket_key)
        try:
            plaintext = aead.decrypt(blob[:12], blob[12:], b"repro-ticket")
        except CryptoError as exc:
            raise _TicketDecline("unseal") from exc
        if len(plaintext) != _TICKET_PLAINTEXT_LEN:
            raise _TicketDecline("format")
        psk = plaintext[:32]
        issued_at = int.from_bytes(plaintext[32:40], "big") / 1000.0
        lifetime = int.from_bytes(plaintext[40:44], "big")
        return psk, issued_at, lifetime

    def _ticket_expired(self, issued_at: float, lifetime: int) -> bool:
        if lifetime <= 0 or self.config.clock is None:
            return False
        return self.config.clock() > issued_at + lifetime

    # ------------------------------------------------------------------
    # Application phase
    # ------------------------------------------------------------------

    def send(self, data: bytes) -> None:
        if not self.can_send_application_data:
            raise RuntimeError("send() before handshake completion")
        self._send_record(ContentType.APPLICATION_DATA, data)

    def send_key_update(self, request_peer: bool = False) -> None:
        """RFC 8446 7.2: roll our sending keys (and optionally ask the
        peer to roll theirs).  The AEAD usage limits the paper cites
        (section 2.3) make periodic updates part of long-lived sessions.
        """
        if not self.is_established:
            raise RuntimeError("key update before handshake completion")
        self._send_record(
            ContentType.HANDSHAKE,
            m.KeyUpdateMsg(request_update=request_peer).to_bytes(),
        )
        self.encoder.cipher.rekey()
        self.key_updates_sent += 1

    def _handle_key_update(self, msg: "m.KeyUpdateMsg") -> None:
        # Everything the peer sends after its KeyUpdate uses the next
        # generation; our decoder must roll now (record order preserved).
        self.decoder.cipher.rekey()
        self.key_updates_received += 1
        if msg.request_update:
            self.send_key_update(request_peer=False)

    def send_close_notify(self) -> None:
        self._send_record(
            ContentType.ALERT,
            alerts.encode_alert(alerts.LEVEL_WARNING, alerts.CLOSE_NOTIFY),
        )

    def export(self, label: str, context: bytes, length: int) -> bytes:
        """RFC 8446 exporter — TCPLS derives stream/connection keys here."""
        return self.keys.export(label, context, length)

    def process_handshake_bytes(self, payload: bytes) -> None:
        """Feed already-decrypted post-handshake message bytes.

        TCPLS takes over record decryption after the handshake (it owns
        the per-stream cryptographic contexts); when a record's inner
        type turns out to be HANDSHAKE (e.g. NewSessionTicket), it hands
        the plaintext back to the TLS layer through this entry point.
        """
        self._handshake_buffer.extend(payload)
        try:
            self._drain_handshake_messages()
        except GuardLimitExceeded as exc:
            self._note_guard_trip(str(exc))
            self._fatal(alerts.DECODE_ERROR, f"guard tripped: {exc}")
        except DecodeError as exc:
            self._note_decode_rejected(str(exc))
            self._fatal(alerts.DECODE_ERROR, f"malformed peer message: {exc}")

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _send_record(self, content_type: int, payload: bytes) -> None:
        self._write(self.encoder.encode(content_type, payload))

    def _fatal(self, description: int, message: str) -> None:
        try:
            self._send_record(
                ContentType.ALERT,
                alerts.encode_alert(alerts.LEVEL_FATAL, description),
            )
        except Exception:  # repro: noqa-SEC003 - best-effort alert on a dying connection
            pass
        raise TlsAlertError(description, message)

    def _ecdhe_shared(self, peer_public: bytes) -> bytes:
        """The (EC)DHE input from the peer's key share.  A low-order
        share gives the all-zero secret, which RFC 7748 section 6.1 and
        RFC 8446 section 7.4.2 say to abort on: a peer-made protocol
        violation, so it must leave as one."""
        try:
            return self._ecdh.exchange(peer_public)
        except ValueError as exc:
            raise TlsAlertError(alerts.ILLEGAL_PARAMETER, str(exc)) from exc


def _compute_binder(psk: bytes, truncated_client_hello: bytes) -> bytes:
    """PSK binder (RFC 8446 4.2.11.2)."""
    schedule = KeySchedule(psk=psk)
    binder_key = schedule.derive_early()["binder_key"]
    finished_key = hkdf_expand_label(binder_key, "finished", b"", 32)
    return _hmac.new(
        finished_key, sha256(truncated_client_hello), hashlib.sha256
    ).digest()
