"""The deterministic fuzz campaign driver.

``run_campaign(seed, iterations)`` replays structured mutations of the
seed corpus against every registered parser target and enforces the
fail-closed contract: a target handed attacker bytes either parses, or
raises an exception inside the typed ``ProtocolViolation`` / ``CryptoError``
hierarchy.  Anything else — ``struct.error``, ``IndexError``, an
``AssertionError``, a hang-shaped ``RecursionError`` — is recorded as a
crasher with the exact reproducing bytes.

Determinism contract: the only entropy is ``random.Random(seed)``, and
the report carries a SHA-256 digest over every (format, mutation,
input bytes, outcome) tuple — two runs with the same seed and iteration
count must produce identical digests, which is how CI replays are
checked bit-for-bit.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core import framing
from repro.obs import keys as obs_keys
from repro.core import join as joinmod
from repro.core.framing import TType
from repro.quic import packet as quicpkt
from repro.tcp.options import decode_options
from repro.tcp.segment import TcpSegment
from repro.tls import messages as m
from repro.tls.record import RecordDecoder
from repro.tls.session import TlsAlertError
from repro.utils.errors import CryptoError, ProtocolViolation

from repro.fuzz.corpus import FORMATS, seed_corpus
from repro.fuzz.mutate import mutate

# The fail-closed contract: parsers may raise these (DecodeError and
# GuardLimitExceeded are ProtocolViolation subclasses; TlsAlertError is
# the record/handshake layers' teardown signal) and nothing else.
ALLOWED_EXCEPTIONS = (ProtocolViolation, TlsAlertError, CryptoError)

DEFAULT_ITERATIONS = 7000


def _target_tcp_segment(data: bytes) -> None:
    TcpSegment.from_bytes(data)


def _target_tcp_options(data: bytes) -> None:
    decode_options(data)


def _target_tls_record(data: bytes) -> None:
    decoder = RecordDecoder()
    decoder.feed(data)
    for _outer_type, _body in decoder.raw_records():
        pass


_HANDSHAKE_BODY_PARSERS: Dict[int, Callable[[bytes], object]] = {
    m.CLIENT_HELLO: m.ClientHello.from_body,
    m.SERVER_HELLO: m.ServerHello.from_body,
    m.ENCRYPTED_EXTENSIONS: m.EncryptedExtensionsMsg.from_body,
    m.CERTIFICATE: m.CertificateMsg.from_body,
    m.CERTIFICATE_VERIFY: m.CertificateVerifyMsg.from_body,
    m.NEW_SESSION_TICKET: m.NewSessionTicketMsg.from_body,
}


def _target_tls_handshake(data: bytes) -> None:
    for msg_type, body, _raw in m.parse_handshake_frames(data):
        parser = _HANDSHAKE_BODY_PARSERS.get(msg_type)
        if parser is None:
            continue
        message = parser(body)
        # Chase the extension parsers the sessions actually call, so a
        # length lie inside key_share/server_name/PSK is exercised too.
        extensions = getattr(message, "extensions", None) or []
        for ext_type, ext_body in extensions:
            if ext_type == m.EXT_KEY_SHARE and msg_type == m.CLIENT_HELLO:
                m.parse_key_share_client(ext_body)
            elif ext_type == m.EXT_KEY_SHARE:
                m.parse_key_share_server(ext_body)
            elif ext_type == m.EXT_SERVER_NAME:
                m.parse_server_name(ext_body)
            elif ext_type == m.EXT_PRE_SHARED_KEY and msg_type == m.CLIENT_HELLO:
                m.parse_psk_offer(ext_body)
            elif ext_type == m.EXT_TCPLS:
                joinmod.parse_tcpls_marker(ext_body)


_FRAME_BODY_DECODERS: Dict[int, Callable[[bytes], object]] = {
    TType.STREAM_DATA: framing.decode_stream_data,
    TType.TCP_OPTION: framing.decode_tcp_option,
    TType.ACK: framing.decode_ack,
    TType.STREAM_OPEN: framing.decode_stream_open,
    TType.STREAM_CLOSE: framing.decode_stream_close,
    TType.JOIN_ACK: framing.decode_join_ack,
    TType.NEW_COOKIES: framing.decode_new_cookies,
    TType.PLUGIN: framing.decode_plugin,
    TType.PROBE: framing.decode_probe,
    TType.PROBE_REPORT: framing.decode_probe_report,
    TType.SESSION_CLOSE: framing.decode_session_close,
    TType.ADDRESS_ADVERT: framing.decode_address_advert,
}


def _target_tcpls_frame(data: bytes) -> None:
    # Mirrors TcplsSession dispatch: leading TType byte, then
    # seq-prefixed plaintext, then the per-type body decoder.
    if not data:
        return
    ttype, plaintext = data[0], data[1:]
    frame = framing.decode_frame(ttype, plaintext)
    decoder = _FRAME_BODY_DECODERS.get(frame.ttype)
    if decoder is not None:
        decoder(frame.body)


def _target_join(data: bytes) -> None:
    # The same bytes are offered to every JOIN-adjacent parser (which
    # one runs depends on where an attacker lands them).  If none
    # accepts, re-raise the last typed rejection so the campaign counts
    # the input as rejected rather than parsed.
    last_rejection: Optional[BaseException] = None
    accepted = False
    for parser in (
        joinmod.parse_tcpls_marker,
        joinmod.TcplsServerParams.from_bytes,
        joinmod.parse_join_body,
    ):
        try:
            parser(data)
            accepted = True
        except ALLOWED_EXCEPTIONS as exc:
            last_rejection = exc
    if not accepted and last_rejection is not None:
        raise last_rejection


def _target_quic_packet(data: bytes) -> None:
    try:
        quicpkt.parse_header(data)
    except ALLOWED_EXCEPTIONS:
        pass
    quicpkt.decode_frames(data)


TARGETS: Dict[str, Callable[[bytes], None]] = {
    "tcp_segment": _target_tcp_segment,
    "tcp_options": _target_tcp_options,
    "tls_record": _target_tls_record,
    "tls_handshake": _target_tls_handshake,
    "tcpls_frame": _target_tcpls_frame,
    "join": _target_join,
    "quic_packet": _target_quic_packet,
}

assert set(TARGETS) == set(FORMATS)


@dataclass
class Crasher:
    """One input that escaped the typed exception hierarchy."""

    format: str
    mutation: str
    data: bytes
    exception: str

    def repro_hex(self) -> str:
        return self.data.hex()


@dataclass
class CampaignReport:
    seed: int
    iterations: int
    accepted: int = 0
    rejected: int = 0
    per_format: Dict[str, int] = field(default_factory=dict)
    rejected_per_format: Dict[str, int] = field(default_factory=dict)
    crashers: List[Crasher] = field(default_factory=list)
    digest: str = ""

    @property
    def clean(self) -> bool:
        return not self.crashers

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "iterations": self.iterations,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "per_format": dict(self.per_format),
            "rejected_per_format": dict(self.rejected_per_format),
            "crashers": [
                {
                    "format": crasher.format,
                    "mutation": crasher.mutation,
                    "data": crasher.repro_hex(),
                    "exception": crasher.exception,
                }
                for crasher in self.crashers
            ],
            "digest": self.digest,
        }


def run_campaign(
    seed: int = 0,
    iterations: int = DEFAULT_ITERATIONS,
    formats: Optional[List[str]] = None,
    obs=None,
) -> CampaignReport:
    """Replay ``iterations`` mutated inputs round-robin over the formats.

    The first pass over each format replays its committed seeds
    unmutated (the corpus itself must always parse or reject cleanly);
    every subsequent input is a fresh mutation of a seed chosen by the
    campaign RNG.  ``obs`` is an optional ``repro.obs.Observability``
    hub: the campaign runs under a ``fuzz`` tracer span and bumps
    ``fuzz.inputs`` / ``fuzz.rejected`` / ``fuzz.crashers`` counters.
    """
    rng = random.Random(seed)
    corpus = seed_corpus()
    chosen = list(formats) if formats else list(FORMATS)
    report = CampaignReport(seed=seed, iterations=iterations)
    digest = hashlib.sha256()

    span = None
    counter_inputs = counter_rejected = counter_crashers = None
    if obs is not None:
        span = obs.tracer.span("fuzz", "campaign", seed=seed, iterations=iterations)
        counter_inputs = obs.telemetry.counter(obs_keys.COMP_FUZZ, obs_keys.FUZZ_INPUTS)
        counter_rejected = obs.telemetry.counter(
            obs_keys.COMP_FUZZ, obs_keys.FUZZ_REJECTED
        )
        counter_crashers = obs.telemetry.counter(
            obs_keys.COMP_FUZZ, obs_keys.FUZZ_CRASHERS
        )

    def drive(format_name: str, mutation: str, data: bytes) -> None:
        target = TARGETS[format_name]
        outcome = "ok"
        try:
            target(data)
            report.accepted += 1
        except ALLOWED_EXCEPTIONS as exc:
            outcome = f"rejected:{type(exc).__name__}"
            report.rejected += 1
            report.rejected_per_format[format_name] = (
                report.rejected_per_format.get(format_name, 0) + 1
            )
            if counter_rejected is not None:
                counter_rejected.inc()
        except Exception as exc:  # repro: noqa-SEC003 - catching everything IS the crash detector
            outcome = f"CRASH:{type(exc).__name__}"
            report.crashers.append(
                Crasher(
                    format=format_name,
                    mutation=mutation,
                    data=data,
                    exception=f"{type(exc).__name__}: {exc}",
                )
            )
            if counter_crashers is not None:
                counter_crashers.inc()
        report.per_format[format_name] = report.per_format.get(format_name, 0) + 1
        if counter_inputs is not None:
            counter_inputs.inc()
        digest.update(format_name.encode())
        digest.update(mutation.encode())
        digest.update(len(data).to_bytes(4, "big"))
        digest.update(data)
        digest.update(outcome.encode())

    done = 0
    # Pass 1: the committed seeds verbatim.
    for format_name in chosen:
        for entry in corpus[format_name]:
            if done >= iterations:
                break
            drive(format_name, "seed", entry)
            done += 1
    # Pass 2: seeded mutations, round-robin so every format gets an
    # equal share of the budget regardless of corpus size.
    while done < iterations:
        format_name = chosen[done % len(chosen)]
        base = rng.choice(corpus[format_name])
        mutation, data = mutate(rng, base)
        drive(format_name, mutation, data)
        done += 1

    report.digest = digest.hexdigest()
    if span is not None:
        span.end()
    return report


def save_crashers(report: CampaignReport, directory: str) -> List[str]:
    """Write each crasher's repro bytes + metadata; returns the paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for index, crasher in enumerate(report.crashers):
        path = os.path.join(
            directory, f"crash-{report.seed}-{index:03d}-{crasher.format}.txt"
        )
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(f"format: {crasher.format}\n")
            handle.write(f"mutation: {crasher.mutation}\n")
            handle.write(f"exception: {crasher.exception}\n")
            handle.write(f"data: {crasher.repro_hex()}\n")
        paths.append(path)
    return paths
