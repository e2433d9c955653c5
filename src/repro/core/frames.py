"""What a TCPLS session does with each sequenced control frame it opens.

``TcplsSession._on_raw_record`` authenticates a record, decodes its
frame and deduplicates it by session sequence number; then it calls
``HANDLERS[frame.ttype](session, conn, frame)``.  Each handler applies
one frame type's rule to the session (paper sections 2.1-3.2): stream
data into reassembly under the receiver's guards, TCPLS ACKs into the
replay buffer, a TCP option onto its connection, cookies into the purse,
credit grants into the stream, and so on.

The receiver's resource guards live here too, because the frames they
refuse arrive here: each trip raises ``GuardLimitExceeded``, and the
session fails the connection that carried the frame.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core import framing
from repro.core.events import Event
from repro.core.framing import Frame, TType
from repro.core.streams import TcplsStream
from repro.tcp.options import (
    MAX_USER_TIMEOUT_SECONDS,
    UserTimeout,
    decode_single_option,
)
from repro.utils.errors import GuardLimitExceeded

if TYPE_CHECKING:
    from repro.core.connection import TcplsConnection
    from repro.core.session import TcplsSession

# Resource-exhaustion guards (fail closed; each trip increments the
# session's ``stats["guard_tripped"]``).  MAX_STREAMS caps the stream
# table a peer can grow by implicit creation; MAX_REASSEMBLY_BYTES caps
# one stream's out-of-order buffer (a peer striping far ahead of a hole
# is hoarding our memory); MAX_SESSION_MEMORY caps the session-wide
# buffered bytes (every stream's send, reassembly and read queues plus
# the replay buffer), so many streams each under their own cap cannot
# sum to a hoard.
MAX_STREAMS = 64
MAX_REASSEMBLY_BYTES = 4 << 20
MAX_SESSION_MEMORY = 16 << 20


def on_stream_data(session: TcplsSession, conn: TcplsConnection, frame: Frame) -> None:
    stream_id, offset, fin, data = framing.decode_stream_data(frame.body)
    stream = ensure_stream(session, stream_id, conn)
    if data and stream.overruns_credit(offset + len(data)):
        # Flow-control violation: a compliant sender can never hit this.
        session.stats["flow_violations"] += 1
        raise GuardLimitExceeded(
            f"stream {stream_id} data past flow-control limit "
            f"{stream.granted_limit}"
        )
    if stream.reassembly_bytes() + len(data) > MAX_REASSEMBLY_BYTES:
        # A peer striping far past an unfilled hole is making us
        # hoard memory; cap the out-of-order buffer.
        raise GuardLimitExceeded(
            f"stream {stream_id} reassembly buffer over "
            f"{MAX_REASSEMBLY_BYTES}B"
        )
    if session.session_memory_bytes() + len(data) > MAX_SESSION_MEMORY:
        # Session-wide budget: many streams each under their own cap
        # can still sum to a hoard; fail the connection, not the
        # process.
        raise GuardLimitExceeded(
            f"session buffered memory over {MAX_SESSION_MEMORY}B"
        )
    session.delivery_log.append((session.sim.now, conn.conn_id, len(data)))
    conn.bytes_delivered += len(data)
    stream.on_segment(offset, data, fin)


def on_stream_open(session: TcplsSession, conn: TcplsConnection, frame: Frame) -> None:
    stream_id, _pinned_conn = framing.decode_stream_open(frame.body)
    ensure_stream(session, stream_id, conn)
    session.events.emit(Event.STREAM_OPENED, stream_id=stream_id, conn_id=conn.conn_id)


def ensure_stream(
    session: TcplsSession, stream_id: int, conn: TcplsConnection
) -> TcplsStream:
    """The stream ``stream_id``, created attached if the peer opened it."""
    stream = session.streams.get(stream_id)
    if stream is None:
        if len(session.streams) >= MAX_STREAMS:
            # Implicit stream creation is peer-controlled: cap it so
            # a hostile sender can't grow the table without bound.
            raise GuardLimitExceeded(
                f"stream table full ({MAX_STREAMS}); "
                f"refusing stream {stream_id}"
            )
        stream = session._add_stream(stream_id, conn)
        stream.attached = True
        session._install_contexts([stream], session._active_conns())
    return stream


def on_stream_close(session: TcplsSession, conn: TcplsConnection, frame: Frame) -> None:
    stream_id, final_offset = framing.decode_stream_close(frame.body)
    stream = session.streams.get(stream_id)
    if stream is None:
        return
    stream.on_segment(final_offset, b"", True)
    session._flush_ack()


def on_ack(session: TcplsSession, conn: TcplsConnection, frame: Frame) -> None:
    cumulative, _conn_id = framing.decode_ack(frame.body)
    session.stats["acks_received"] += 1
    session.replay.on_ack(cumulative)


def on_tcp_option(session: TcplsSession, conn: TcplsConnection, frame: Frame) -> None:
    kind, target_conn, option_body = framing.decode_tcp_option(frame.body)
    option = decode_single_option(kind, option_body)
    # Apply the option to the requested connection — the simulated
    # equivalent of "the server extracts it and performs the required
    # setsockopt" (paper section 3.1).
    targets = (
        [session.connections[target_conn]]
        if target_conn in session.connections
        else session._active_conns()
    )
    if isinstance(option, UserTimeout):
        # The option arrives over the secure channel but its value is
        # still peer-chosen: clamp to local policy before it becomes a
        # timer, or a peer could pin connection state for ~23 days.
        for target in targets:
            target.tcp.set_user_timeout(
                min(option.timeout_seconds(), MAX_USER_TIMEOUT_SECONDS)
            )
    session.events.emit(
        Event.TCP_OPTION_RECEIVED,
        kind=kind,
        option=option,
        conn_id=conn.conn_id,
    )


def on_new_cookies(session: TcplsSession, conn: TcplsConnection, frame: Frame) -> None:
    session.cookie_purse.deposit(framing.decode_new_cookies(frame.body))


def on_plugin(session: TcplsSession, conn: TcplsConnection, frame: Frame) -> None:
    target, bytecode = framing.decode_plugin(frame.body)
    from repro.core.plugins.runtime import install_plugin

    result = install_plugin(session, target, bytecode)
    session.events.emit(
        Event.PLUGIN_INSTALLED, target=target, ok=result, conn_id=conn.conn_id
    )


def on_probe(session: TcplsSession, conn: TcplsConnection, frame: Frame) -> None:
    from repro.core.middlebox_detect import compare_syns

    probe_conn_id, syn_as_sent = framing.decode_probe(frame.body)
    differences = compare_syns(syn_as_sent, conn.tcp.received_syn_bytes)
    reply = framing.encode_probe_report(probe_conn_id, differences)
    session._send_reliable(TType.PROBE_REPORT, reply, conn=conn)


def on_probe_report(session: TcplsSession, conn: TcplsConnection, frame: Frame) -> None:
    probe_conn_id, differences = framing.decode_probe_report(frame.body)
    session.events.emit(
        Event.PROBE_REPORT, conn_id=probe_conn_id, differences=differences
    )


def on_session_close(session: TcplsSession, conn: TcplsConnection, frame: Frame) -> None:
    session._end_session(session._flush_ack)


def on_address_advert(session: TcplsSession, conn: TcplsConnection, frame: Frame) -> None:
    v4, v6 = framing.decode_address_advert(frame.body)
    session.peer_v4_addresses.extend(a for a in v4 if a not in session.peer_v4_addresses)
    session.peer_v6_addresses.extend(a for a in v6 if a not in session.peer_v6_addresses)
    session.events.emit(Event.ADDRESS_ADVERTISED, v4=v4, v6=v6)


def on_address_remove(session: TcplsSession, conn: TcplsConnection, frame: Frame) -> None:
    v4, v6 = framing.decode_address_advert(frame.body)
    session.peer_v4_addresses = [a for a in session.peer_v4_addresses if a not in v4]
    session.peer_v6_addresses = [a for a in session.peer_v6_addresses if a not in v6]
    session.events.emit(Event.ADDRESS_REMOVED, v4=v4, v6=v6)


def on_window_update(session: TcplsSession, conn: TcplsConnection, frame: Frame) -> None:
    stream_id, max_offset = framing.decode_window_update(frame.body)
    stream = session.streams.get(stream_id)
    session.stats["flow_window_updates_received"] += 1
    if stream is not None and stream.on_grant(max_offset):
        session._pump()


def on_ping(session: TcplsSession, conn: TcplsConnection, frame: Frame) -> None:
    session._flush_ack()


#: TType -> handler(session, conn, frame).  JOIN_ACK is absent: the
#: joining client matches it by type before the connection is active.
HANDLERS = {
    TType.STREAM_DATA: on_stream_data,
    TType.STREAM_OPEN: on_stream_open,
    TType.STREAM_CLOSE: on_stream_close,
    TType.ACK: on_ack,
    TType.TCP_OPTION: on_tcp_option,
    TType.NEW_COOKIES: on_new_cookies,
    TType.PLUGIN: on_plugin,
    TType.PROBE: on_probe,
    TType.PROBE_REPORT: on_probe_report,
    TType.SESSION_CLOSE: on_session_close,
    TType.ADDRESS_ADVERT: on_address_advert,
    TType.ADDRESS_REMOVE: on_address_remove,
    TType.WINDOW_UPDATE: on_window_update,
    TType.PING: on_ping,
}
