"""Oracles for the three per-packet shortcuts, written from their specs.

* **The carried segment.**  A receiving ``TcpStack`` may hand on the
  segment object the sender built instead of parsing the datagram's
  bytes.  :func:`parse_oracle` watches every segment the stack hands on
  (to a connection, to a listener, to the RST path) and demands that
  it equals, field for field, options and wire cache included, what
  ``TcpSegment.from_bytes`` makes of that datagram's bytes.
* **The pump gate.**  A TCPLS connection's send progress pumps the
  session only when that connection has room for a record.
  :func:`pump_gate_oracle` watches every progress that did not pump and
  demands that a pump then would have done nothing: the pump's own
  early returns, or for every attached stream with pending data either
  a stall already counted or a ``scheduler.pick`` dry run that returns
  ``None``, and a session-close check that would return.

* **The unbuilt payload.**  A sent segment's datagram may leave its
  bytes unbuilt until something reads them.
  :func:`materialize_oracle` serializes every sent segment eagerly at
  send time, through ``TcpSegment._serialize`` (the codec, not the
  shortcut), and demands that every payload built later on read equals
  those bytes and that the datagram's size was their size: a segment
  changed after it was sent cannot leak into what the wire carried.

All patch the classes, so install them before the world is built (a
stack registers its bound receive method when it is made).  Each yields
its counts, so a caller can check that the shortcut ran at all.
"""

from __future__ import annotations

import contextlib

from repro.core.connection import TcplsConnection
from repro.core.session import TcplsSession
from repro.netsim.packet import Datagram
from repro.tcp.connection import TcpConnection
from repro.tcp.segment import TcpSegment
from repro.tcp.stack import Listener, TcpStack


def _patched(patches):
    """Install ``(owner, name, replacement)`` patches; returns the undo."""
    saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
    for owner, name, replacement in patches:
        setattr(owner, name, replacement)

    def undo():
        for owner, name, original in saved:
            setattr(owner, name, original)
    return undo


@contextlib.contextmanager
def parse_oracle():
    """Every segment a stack hands on equals the parse of its datagram.

    Yields ``{"used": n, "carried": m}``: segments handed on, and how
    many of them were the sender's own object.
    """
    counts = {"used": 0, "carried": 0}
    receiving = []  # the datagram each stack is receiving (innermost last)
    on_datagram = TcpStack._on_datagram
    on_segment = TcpConnection.on_segment
    handle_syn = Listener.handle_syn
    send_reset_for = TcpStack._send_reset_for

    def check(segment):
        datagram = receiving[-1]
        parsed = TcpSegment.from_bytes(
            datagram.payload, datagram.src, datagram.dst, verify_checksum=True
        )
        assert type(segment.payload) is bytes
        assert segment.__dict__ == parsed.__dict__, (segment.summary(), parsed.summary())
        counts["used"] += 1
        counts["carried"] += segment is datagram.segment

    def watched_on_datagram(self, datagram, interface):
        receiving.append(datagram)
        try:
            on_datagram(self, datagram, interface)
        finally:
            receiving.pop()

    def watched_on_segment(self, segment):
        if receiving:
            check(segment)
        on_segment(self, segment)

    def watched_handle_syn(self, datagram, segment, raw_payload):
        check(segment)
        handle_syn(self, datagram, segment, raw_payload)

    def watched_send_reset_for(self, datagram, segment):
        check(segment)
        send_reset_for(self, datagram, segment)

    undo = _patched([
        (TcpStack, "_on_datagram", watched_on_datagram),
        (TcpConnection, "on_segment", watched_on_segment),
        (Listener, "handle_syn", watched_handle_syn),
        (TcpStack, "_send_reset_for", watched_send_reset_for),
    ])
    try:
        yield counts
    finally:
        undo()


def _check_pump_would_do_nothing(session):
    """Dry-run ``TcplsSession._pump`` now: it must send nothing, count no
    new stall and not close the session."""
    if not session.handshake_complete or session.contexts is None:
        return
    conns = [conn for conn in session.connections.values() if conn.usable()]
    if not conns:
        return
    for stream in session.streams.values():
        pending = bool(stream.send_buffer) or (stream.fin_pending and not stream.fin_sent)
        if not stream.attached or not pending:
            continue
        if stream.send_buffer and stream.send_offset >= stream.send_limit:
            # Credit-blocked: the pump would only count the stall edge.
            assert stream.stalled, f"stream {stream.stream_id}'s stall uncounted"
            continue
        picked = session.scheduler.pick(stream, conns)
        assert picked is None, f"stream {stream.stream_id} had room on {picked.conn_id}"
    # ``_maybe_session_close`` would return before ending the session.
    streams = session.streams.values()
    assert (
        not session._closing
        or session.session_closed
        or any(s.send_buffer or (s.fin_pending and not s.fin_sent) for s in streams)
        or not all(s.fin_sent for s in streams)
    ), "a skipped pump would have closed the session"


@contextlib.contextmanager
def pump_gate_oracle():
    """Every send progress that did not pump would have pumped for nothing.

    Yields ``{"progress": n, "skipped": m}``.
    """
    counts = {"progress": 0, "skipped": 0}
    pumped = []
    on_send_progress = TcplsConnection._on_send_progress
    pump = TcplsSession._pump

    def watched_pump(self):
        pumped.append(True)
        pump(self)

    def watched_on_send_progress(self):
        counts["progress"] += 1
        pumped.clear()
        on_send_progress(self)
        if not pumped:
            counts["skipped"] += 1
            _check_pump_would_do_nothing(self.session)

    undo = _patched([
        (TcplsSession, "_pump", watched_pump),
        (TcplsConnection, "_on_send_progress", watched_on_send_progress),
    ])
    try:
        yield counts
    finally:
        undo()


@contextlib.contextmanager
def materialize_oracle():
    """Every payload built on read is what the segment serialized to
    when it was sent.

    Yields ``{"unbuilt": n, "built": m}``: datagrams sent with their
    bytes unbuilt, and reads that built one.
    """
    counts = {"unbuilt": 0, "built": 0}
    sent = {}  # id(segment) -> (segment, its bytes when sent)
    to_datagram = TcpSegment.to_datagram
    build = Datagram.__dict__["payload"].__get__

    def watched_to_datagram(self, src, dst):
        wire = self._serialize(src, dst)
        datagram = to_datagram(self, src, dst)
        if "payload" in datagram.__dict__:
            assert datagram.payload == wire
        else:
            counts["unbuilt"] += 1
            sent[id(self)] = (self, wire)
        assert datagram.size == datagram.header_length + len(wire)
        return datagram

    class WatchedBuild:
        def __get__(self, datagram, owner=None):
            payload = build(datagram, owner)
            if datagram is not None:
                counts["built"] += 1
                assert payload == sent[id(datagram.segment)][1], datagram.segment.summary()
            return payload

    undo = _patched([
        (TcpSegment, "to_datagram", watched_to_datagram),
        (Datagram, "payload", WatchedBuild()),
    ])
    try:
        yield counts
    finally:
        undo()
