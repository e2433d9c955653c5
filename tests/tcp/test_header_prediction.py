"""Header prediction against the general path it stands in front of.

``TcpConnection.on_segment`` hands established-state ``ACK`` /
``ACK|PSH`` segments whose sole option is Timestamps to
``_predicted``, which handles four shapes in a straight line — a pure
ACK advancing ``snd_una``, a duplicate ACK short of the third, and
in-order data that acknowledges nothing new or advances ``snd_una`` —
and returns False for everything else.
The general path below it is the specification: every scripted world
here runs twice — prediction live, and with ``_predicted`` replaced by
"never" *for the test only* — and both runs must agree on every wire
byte, every event's (time, seq), and every piece of connection state.

The O(1) ``_first_unacked_time`` (first scoreboard entry while nothing
outstanding was re-sent) is held to the ``min()`` scan it replaced at
every assignment of a lossy transfer.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizers import DeterminismProbe, reset_process_globals
from repro.netsim.packet import PROTO_TCP, Datagram
from repro.netsim.scenarios import simple_duplex_network
from repro.tcp.connection import TcpConnection
from repro.tcp.options import SackBlocks, Timestamps
from repro.tcp.segment import Flags, TcpSegment
from repro.tcp.stack import TcpStack

SERVER = "10.0.0.2"
_original_predicted = TcpConnection._predicted


class World:
    """One client/server pair on one link, fully observed."""

    def __init__(self, shake=None, client_iss=None, **link_options):
        reset_process_globals()
        self.net, client, server, self.link = simple_duplex_network(**link_options)
        self.sim = self.net.sim
        self.probe = DeterminismProbe(shake_seed=shake)
        self.probe.watch(self.sim)
        for index in (0, 1):
            self.probe.tap(self.link, self.link.endpoint(index))
        self.client_tcp = TcpStack(client, seed=11)
        self.server_tcp = TcpStack(server, seed=1011)
        if client_iss is not None:
            self.client_tcp.allocate_iss = lambda: client_iss
            self.server_tcp.allocate_iss = lambda: (client_iss + 0x4000) & 0xFFFFFFFF
        self.conns = []       # every connection, client side first
        self.received = {}    # id(conn) -> bytearray
        self.progress = {}    # id(conn) -> sender state after each new ACK
        self.notes = []       # scenario-specific observations

    def track(self, conn):
        buffer = self.received.setdefault(id(conn), bytearray())
        conn.on_data = buffer.extend
        # Called by both paths right after an ACK freed send window: the
        # sender's state after every such ACK, not just at the end.
        progress = self.progress.setdefault(id(conn), [])
        conn.on_send_progress = lambda: progress.append(
            (self.sim.now, conn.snd_una, conn._first_unacked_time, conn.cc.cwnd,
             conn.rto.rto, conn.snd_wnd)
        )
        self.conns.append(conn)
        return conn

    def listen(self, on_connection=None, **options):
        def accept(conn):
            self.track(conn)
            if on_connection is not None:
                on_connection(conn)

        return self.server_tcp.listen(443, accept, **options)

    def connect(self, **options):
        return self.track(self.client_tcp.connect(SERVER, 443, **options))

    def inject(self, to_stack, sender, **fields):
        """Deliver a forged segment, as if ``sender``'s host had sent it,
        straight into ``to_stack`` (valid checksum, never on the link)."""
        segment = TcpSegment(
            src_port=sender.local_port, dst_port=sender.remote_port,
            options=[Timestamps(value=sender._ts_now(), echo_reply=sender._ts_recent)],
            **fields,
        )
        wire = segment.to_bytes(sender.local_addr, sender.remote_addr)
        to_stack._on_datagram(
            Datagram(src=sender.local_addr, dst=sender.remote_addr,
                     protocol=PROTO_TCP, payload=wire),
            None,
        )

    def fingerprint(self):
        digest = self.probe.digest()
        return {
            "wire+events": digest,
            "events_processed": self.sim.events_processed,
            "notes": self.notes,
            "stacks": [
                (s.segments_dropped_checksum, s.segments_dropped_malformed,
                 s.rsts_sent, s.connection_count())
                for s in (self.client_tcp, self.server_tcp)
            ],
            "connections": [
                {
                    "state": c.state,
                    "delivered": bytes(self.received[id(c)]),
                    "pending": bytes(c._pending_delivery),
                    "stats": dict(c.stats),
                    "cc": (c.cc.cwnd, c.cc.ssthresh),
                    "rto": (c.rto.srtt, c.rto.rttvar, c.rto.rto, c.rto.samples),
                    "seq": (c.snd_una, c.snd_nxt, c.rcv_nxt, c.snd_wnd),
                    "progress": self.progress[id(c)],
                    "first_unacked_time": c._first_unacked_time,
                    "episodes": (c._recovery_point, c._rto_point, c._dup_acks,
                                 c._retries, c._highest_sacked, c._peer_fin_seq,
                                 c._resent_below),
                    "inflight": [(e.seq, e.send_time, e.retransmitted, e.sacked)
                                 for e in c._inflight.values()],
                    "delivered_bytes": c.delivered_bytes,
                    "sacked_segments": c.sacked_segments,
                    "ts_recent": c._ts_recent,
                    "queue": len(c._send_queue),
                }
                for c in self.conns
            ],
        }


def _pattern(tag, size):
    block = bytes((tag + i) % 251 for i in range(997))
    return (block * (size // len(block) + 1))[:size]


# ----------------------------------------------------------------------
# Scripted worlds.  Each takes a World, drives it, and may leave notes.
# ----------------------------------------------------------------------

def clean_bulk_both_directions(world):
    world.listen(lambda conn: conn.send(_pattern(3, 300_000)))
    world.connect().send(_pattern(7, 300_000))
    world.sim.run(until=20.0)


def one_way_bulk(world):
    world.listen()
    world.connect().send(_pattern(1, 400_000))
    world.sim.run(until=60.0)


def request_response(world, reply_factor=3, delayed_ack=False, on_client=None):
    """Small closed-loop exchanges: every data segment also carries a new
    ACK for the previous message, and the ACK of the request behind it
    duplicates that."""
    def serve(conn):
        buffer = world.received[id(conn)]
        conn.delayed_ack = delayed_ack
        pending = bytearray()

        def on_data(data):
            buffer.extend(data)
            pending.extend(data)
            while len(pending) >= 128:
                conn.send(bytes(pending[:128]) * reply_factor)
                del pending[:128]

        conn.on_data = on_data

    world.listen(serve)
    client = world.connect()
    client.delayed_ack = delayed_ack
    if on_client is not None:
        on_client(client)
    replies = world.received[id(client)]
    reply_bytes = 128 * reply_factor

    def on_reply(data):
        answered = len(replies) // reply_bytes
        replies.extend(data)
        if answered < len(replies) // reply_bytes < 40:
            client.send(_pattern(len(replies) % 200, 128))

    client.on_data = on_reply
    client.send(_pattern(0, 128))
    world.sim.run(until=30.0)


def request_response_under_loss(world):
    """8 KiB replies, so a lost segment has enough behind it for three
    duplicate ACKs (which carry SACK, so the general path handles them)."""
    request_response(world, reply_factor=64)


def request_response_with_delayed_acks(world):
    request_response(world, delayed_ack=True)


def abort_inside_an_acking_reply(world):
    """The client aborts from ``on_send_progress``, which the ACK half of
    the eleventh reply calls: its data half must not be delivered."""
    def hook(client):
        progress, replies = client.on_send_progress, world.received[id(client)]

        def on_send_progress():
            progress()
            if len(replies) >= 10 * 384:
                client.abort()

        client.on_send_progress = on_send_progress

    request_response(world, on_client=hook)


def forged_resets(world):
    world.listen()
    client = world.connect()
    client.send(_pattern(5, 600_000))

    def forge(offset):
        server = world.conns[1]
        world.notes.append(("before reset", offset, server.state, server.rcv_nxt))
        world.inject(world.server_tcp, client, flags=Flags.RST,
                     seq=(server.rcv_nxt + offset) & 0xFFFFFFFF)
        world.notes.append(("after reset", offset, server.state))

    world.sim.schedule(0.030, forge, 1 << 30)        # far outside the window
    world.sim.schedule(0.031, forge, -1)             # just below it
    world.sim.schedule(0.045, forge, 5_000)          # inside: kills it
    world.sim.run(until=30.0)


def fin_from_sender_mid_transfer(world):
    world.listen(lambda conn: conn.send(_pattern(9, 250_000)))
    client = world.connect()
    client.send(_pattern(2, 150_000))
    world.sim.schedule(0.020, client.close)  # FIN queues behind the data
    world.sim.run(until=30.0)


def fin_from_receiver_mid_transfer(world):
    world.listen()
    client = world.connect()
    client.send(_pattern(4, 300_000))
    # The receiving side half-closes while data is still arriving, then
    # the sender finishes and closes too.
    world.sim.schedule(0.025, lambda: world.conns[1].close())
    world.sim.schedule(0.400, client.close)
    world.sim.run(until=30.0)


def zero_window_and_persist_probe(world):
    def accept(conn):
        conn.rcv_wnd_limit = 20_000
        conn.pause_reading()

    world.listen(accept)
    world.connect().send(_pattern(6, 100_000))
    world.sim.schedule(3.0, lambda: world.conns[1].resume_reading())
    world.sim.run(until=30.0)


def pause_and_resume_reading(world):
    world.listen()
    world.connect().send(_pattern(8, 400_000))
    for at in (0.020, 0.060, 0.120):
        world.sim.schedule(at, lambda: world.conns[1].pause_reading())
        world.sim.schedule(at + 0.015, lambda: world.conns[1].resume_reading())
    world.sim.run(until=30.0)


def delayed_acks(world):
    def accept(conn):
        conn.delayed_ack = True
        conn.send(_pattern(12, 90_001))

    world.listen(accept)
    client = world.connect()
    client.delayed_ack = True
    client.send(_pattern(13, 250_000))
    world.sim.run(until=30.0)


def forged_acks(world):
    """An ACK for data never sent and a stale duplicate ACK, both shaped
    exactly like the segments prediction accepts."""
    world.listen()
    client = world.connect()
    client.send(_pattern(10, 500_000))

    def forge(offset_from, offset):
        server = world.conns[1]
        base = client.snd_nxt if offset_from == "snd_nxt" else client.snd_una
        world.notes.append(("forged ack", offset_from, offset, client.snd_una,
                            client.snd_nxt))
        world.inject(world.client_tcp, server, flags=Flags.ACK,
                     seq=server.snd_nxt, ack=(base + offset) & 0xFFFFFFFF,
                     window=server._advertised_window() >> server.rcv_ws_shift)

    world.sim.schedule(0.030, forge, "snd_nxt", 5_000)   # beyond snd_nxt
    world.sim.schedule(0.033, forge, "snd_una", -3_000)  # old duplicate
    world.sim.schedule(0.036, forge, "snd_una", 0)       # plain duplicate
    world.sim.schedule(0.039, forge, "snd_nxt", 1 << 31)
    world.sim.run(until=30.0)


def fin_overtakes_the_data_before_it(world):
    """A FIN arrives ahead of the data it closes.  It carries no payload,
    so the reassembly queue stays empty: only ``_peer_fin_seq`` tells the
    in-order data behind it that it is not the plain case."""
    world.listen()
    client = world.connect()
    client.send(_pattern(18, 60_000))

    def early_fin():
        server = world.conns[1]
        fin_seq = (client.iss + 1 + 60_000) & 0xFFFFFFFF
        world.notes.append(("early FIN", server.rcv_nxt != fin_seq))
        world.inject(world.server_tcp, client, flags=Flags.FIN | Flags.ACK,
                     seq=fin_seq, ack=server.snd_nxt)

    world.sim.schedule(0.0165, early_fin)
    world.sim.schedule(0.500, client.close)
    world.sim.run(until=10.0)


def window_opened_by_a_data_segment(world):
    """The receiver's window grows without an ACK of its own; the news
    reaches the stalled sender on a data segment that acknowledges
    nothing new."""
    def accept(conn):
        conn.rcv_wnd_limit = 6_000
        conn.send(_pattern(19, 400_000))

    world.listen(accept)
    world.connect().send(_pattern(20, 100_000))

    def open_window():
        client, server = world.conns
        world.notes.append(("stalled", client.send_queue_length() > 0,
                            client.bytes_in_flight()))
        server.rcv_wnd_limit = 1 << 20

    world.sim.schedule(0.060, open_window)
    world.sim.run(until=30.0)


def resent_segment_outstanding_outside_recovery(world):
    """The second segment in flight is re-sent while no recovery episode
    is open (in the wild: a SACK-driven retransmission above the
    recovery point that outlives the episode).  Its send time is now the
    newest on the scoreboard although it is about to be the first."""
    world.listen()
    client = world.connect()
    client.send(_pattern(21, 300_000))

    def resend():
        entry = list(client._inflight.values())[1]
        world.notes.append(("re-sent", client._recovery_point, client._rto_point,
                            len(client._inflight)))
        client._note_retransmission(entry)
        client._transmit(client._make_segment(
            flags=Flags.ACK | Flags.PSH, seq=entry.seq, payload=entry.data))

    world.sim.schedule(0.0301, resend)
    world.sim.run(until=30.0)


def rto_with_everything_sacked_by_a_lying_peer(world):
    """A forged SACK covers the whole flight and the ACK direction dies:
    the RTO opens an episode (``_rto_point``) in which nothing is left to
    re-send, so ``_resent_below`` stays clear.  The window update that
    ends it is a pure ACK shaped exactly like a predictable one."""
    world.listen()
    client = world.connect()
    client.send(_pattern(22, 200_000))

    def forge_sack():
        server = world.conns[1]
        segment = TcpSegment(
            src_port=server.local_port, dst_port=server.remote_port,
            seq=server.snd_nxt, ack=client.snd_una, flags=Flags.ACK,
            window=server._advertised_window() >> server.rcv_ws_shift,
            options=[Timestamps(server._ts_now(), server._ts_recent),
                     SackBlocks(((client.snd_una, client.snd_nxt),))],
        )
        world.link.set_down(direction=1)  # server -> client
        world.client_tcp._on_datagram(
            Datagram(src=server.local_addr, dst=server.remote_addr,
                     protocol=PROTO_TCP,
                     payload=segment.to_bytes(server.local_addr, server.remote_addr)),
            None,
        )
        world.notes.append(
            ("all sacked", all(e.sacked for e in client._inflight.values())))

    def restore():
        server = world.conns[1]
        world.notes.append(("timeouts while down", client.stats["timeouts"],
                            client._rto_point is not None,
                            client._resent_below is not None))
        world.link.set_up(direction=1)
        server.pause_reading()
        server.resume_reading()  # sends the window update

    world.sim.schedule(0.0301, forge_sack)
    world.sim.schedule(0.9, restore)
    world.sim.run(until=60.0)


def fast_open_data_in_syn(world):
    world.listen(lambda conn: conn.send(_pattern(15, 20_000)), fast_open=True)
    world.connect(fast_open=True).send(_pattern(14, 3_000))
    world.sim.run(until=1.0)
    early = world.connect(fast_open=True, fast_open_data=_pattern(16, 1_000))
    early.send(_pattern(17, 50_000))
    world.sim.run(until=10.0)
    world.notes.append(("tfo used", early.tfo_used))


SCENARIOS = {
    "clean bulk, both directions at once": (clean_bulk_both_directions, {}),
    "request/response (data that also acknowledges)": (request_response, {}),
    "request/response under loss": (request_response_under_loss,
                                    dict(loss_rate=0.03, seed=12)),
    "request/response with delayed ACKs": (request_response_with_delayed_acks, {}),
    "abort from on_send_progress inside a reply": (abort_inside_an_acking_reply, {}),
    "1 % loss, SACK": (one_way_bulk, dict(loss_rate=0.01, seed=3)),
    "5 % loss, SACK": (one_way_bulk, dict(loss_rate=0.05, seed=4)),
    "5 % loss, both directions": (clean_bulk_both_directions,
                                  dict(loss_rate=0.05, seed=9)),
    "reordering": (one_way_bulk, dict(reorder_rate=0.05, seed=5)),
    "loss and reordering, small queue": (
        one_way_bulk,
        dict(loss_rate=0.02, reorder_rate=0.03, queue_packets=20, seed=6)),
    "forged RST out of and in window": (forged_resets, {}),
    "FIN from the sender mid-transfer": (fin_from_sender_mid_transfer, {}),
    "FIN from the receiver mid-transfer": (fin_from_receiver_mid_transfer, {}),
    "zero window + persist probe": (zero_window_and_persist_probe, {}),
    "pause_reading / resume_reading": (pause_and_resume_reading, {}),
    "delayed ACKs": (delayed_acks, {}),
    "sequence wrap across 2^32": (clean_bulk_both_directions,
                                  dict(client_iss=0xFFFFFFFF - 100_000)),
    "sequence wrap under loss": (
        one_way_bulk, dict(client_iss=0xFFFFFFFF - 150_000, loss_rate=0.03, seed=8)),
    "ACK beyond snd_nxt, old duplicate ACK": (forged_acks, {}),
    "TFO data in SYN": (fast_open_data_in_syn, {}),
    "FIN overtakes the data before it": (fin_overtakes_the_data_before_it, {}),
    "window opened by a data segment": (window_opened_by_a_data_segment, {}),
    "re-sent segment outstanding outside recovery": (
        resent_segment_outstanding_outside_recovery, {}),
    "RTO with everything SACKed by a lying peer": (
        rto_with_everything_sacked_by_a_lying_peer, {}),
    "schedule shake 1": (clean_bulk_both_directions, dict(shake=1)),
    "schedule shake 7": (clean_bulk_both_directions, dict(shake=7)),
    "schedule shake 1 under loss": (one_way_bulk,
                                    dict(shake=1, loss_rate=0.02, seed=3)),
    "schedule shake 7 under loss": (one_way_bulk,
                                    dict(shake=7, loss_rate=0.02, seed=3)),
}


class _Tally:
    """Wraps the live predicate: counts verdicts by shape and checks, at
    the moment of each verdict, what the specification says about it."""

    def __init__(self):
        self.new_acks = self.dup_acks = self.data = self.acking_data = 0
        self.declined = 0

    def install(self, monkeypatch):
        tally = self

        def predicted(conn, segment, timestamps):
            before = (conn.snd_una, conn.rcv_nxt, conn.snd_wnd, conn._dup_acks,
                      dict(conn.stats))
            snd_una, snd_nxt, rcv_nxt = conn.snd_una, conn.snd_nxt, conn.rcv_nxt
            episodes = (conn._recovery_point, conn._rto_point, conn._resent_below)
            clean_scoreboard = not conn._reassembly and conn._peer_fin_seq is None
            dup_acks, in_flight = conn._dup_acks, bool(conn._inflight)
            handled = _original_predicted(conn, segment, timestamps)
            advance = (segment.ack - snd_una) & 0xFFFFFFFF
            if not handled:
                tally.declined += 1
                # Declining must leave the segment's processing entirely
                # to the general path.
                assert (conn.snd_una, conn.rcv_nxt, conn.snd_wnd, conn._dup_acks,
                        conn.stats) == before
                return handled
            if segment.payload:
                # In-order data, nothing buffered, no FIN behind a hole.
                assert segment.seq == rcv_nxt and clean_scoreboard
            if advance:
                # A new ACK within snd_nxt, outside every recovery episode.
                assert 0 < advance <= (snd_nxt - snd_una) & 0xFFFFFFFF
                assert episodes == (None, None, None)
                assert conn.snd_una == segment.ack and conn._dup_acks == 0
                if segment.payload:
                    tally.acking_data += 1
                else:
                    tally.new_acks += 1
            elif segment.payload:
                tally.data += 1
                assert conn.snd_una == snd_una and conn._dup_acks == dup_acks
            else:
                # A duplicate outside fast recovery, short of the third.
                tally.dup_acks += 1
                assert episodes[0] is None and dup_acks < 2
                assert conn._dup_acks == dup_acks + in_flight < 3
            return handled

        monkeypatch.setattr(TcpConnection, "_predicted", predicted)


def _run(name, monkeypatch, live):
    scenario, options = SCENARIOS[name]
    tally = _Tally()
    with monkeypatch.context() as patch:
        if live:
            tally.install(patch)
        else:
            patch.setattr(TcpConnection, "_predicted", lambda *args: False)
        world = World(**options)
        scenario(world)
    return world.fingerprint(), tally


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_prediction_is_indistinguishable_from_the_general_path(name, monkeypatch):
    predicted, tally = _run(name, monkeypatch, live=True)
    general, _ = _run(name, monkeypatch, live=False)
    for key in general:
        if key != "connections":
            assert predicted[key] == general[key], key
    assert len(predicted["connections"]) == len(general["connections"])
    for index, (got, want) in enumerate(
        zip(predicted["connections"], general["connections"])
    ):
        for key in want:
            assert got[key] == want[key], (index, key)
    # The comparison is not vacuous: prediction advanced snd_una and took
    # in-order data (both are branches ``acking_data`` runs).
    assert tally.new_acks + tally.acking_data > 0 and tally.data + tally.acking_data > 0


def test_the_scripted_worlds_reach_the_paths_they_are_named_for(monkeypatch):
    """Guards the scenarios themselves: each must actually exercise what
    its name claims, or the equivalence above proves less than it says."""
    def run(name):
        fingerprint, tally = _run(name, monkeypatch, live=True)
        return fingerprint, fingerprint["connections"], tally

    _, conns, tally = run("clean bulk, both directions at once")
    assert all(len(c["delivered"]) == 300_000 for c in conns)
    assert all(c["stats"]["retransmissions"] == 0 for c in conns)
    assert tally.new_acks > 400 and tally.data > 400 and tally.declined == 0
    assert tally.dup_acks == tally.acking_data == 0

    # A reply sent from inside ``on_data`` leaves before the ACK of the
    # request does, so it is data that advances snd_una, and the pure
    # ACK behind it is a duplicate: both are predicted, end to end.
    for name, acks_per_request in (
        ("request/response (data that also acknowledges)", 2),
        ("request/response with delayed ACKs", 1),
    ):
        _, conns, tally = run(name)
        assert len(conns[0]["delivered"]) == 40 * 384, name
        assert tally.declined == 0, name
        assert tally.acking_data >= 79 and tally.dup_acks >= 39 * acks_per_request, name
        assert all(c["stats"]["dup_acks_received"] >= 19 for c in conns), name

    _, conns, tally = run("abort from on_send_progress inside a reply")
    assert len(conns[0]["delivered"]) == 10 * 384 and conns[0]["state"] == "CLOSED"
    assert tally.acking_data == 21 and tally.declined == 0

    # Under loss the third duplicate ACK still reaches fast retransmit,
    # on the general path.
    _, conns, tally = run("request/response under loss")
    assert len(conns[0]["delivered"]) == 40 * 128 * 64
    assert conns[1]["stats"]["fast_retransmits"] > 0
    assert tally.declined > 0 and tally.dup_acks > 0 and tally.acking_data > 0

    for name in ("1 % loss, SACK", "5 % loss, SACK", "sequence wrap under loss"):
        _, conns, tally = run(name)
        assert conns[0]["stats"]["retransmissions"] > 0, name
        assert conns[0]["sacked_segments"] > 0, name
        assert len(conns[1]["delivered"]) == 400_000, name
        assert tally.declined > 0, name
        # Once everything re-sent is acknowledged the scoreboard is back
        # in send order and says so.
        assert conns[0]["episodes"][-1] is None, name

    _, conns, _ = run("reordering")
    assert conns[0]["stats"]["dup_acks_received"] > 0

    fingerprint, conns, _ = run("forged RST out of and in window")
    states = [note[2] for note in fingerprint["notes"] if note[0] == "after reset"]
    assert states == ["ESTABLISHED", "ESTABLISHED", "CLOSED"]
    assert 0 < len(conns[1]["delivered"]) < 600_000

    _, conns, _ = run("FIN from the sender mid-transfer")
    assert [c["state"] for c in conns] == ["FIN_WAIT_2", "CLOSE_WAIT"]
    assert [len(c["delivered"]) for c in conns] == [250_000, 150_000]

    _, conns, _ = run("FIN from the receiver mid-transfer")
    assert {c["state"] for c in conns} <= {"CLOSED", "TIME_WAIT"}
    assert len(conns[1]["delivered"]) == 300_000

    _, conns, _ = run("zero window + persist probe")
    assert len(conns[1]["delivered"]) == 100_000
    assert conns[0]["stats"]["segments_sent"] > 100_000 // 1400 + 2  # probes

    _, conns, _ = run("delayed ACKs")
    assert conns[1]["stats"]["segments_sent"] < conns[0]["stats"]["segments_sent"]

    for name in ("sequence wrap across 2^32", "sequence wrap under loss"):
        _, conns, _ = run(name)
        assert conns[0]["seq"][0] < 1 << 20 and conns[1]["seq"][2] < 1 << 20, name

    fingerprint, conns, _ = run("ACK beyond snd_nxt, old duplicate ACK")
    assert len(fingerprint["notes"]) == 4
    assert len(conns[1]["delivered"]) == 500_000

    fingerprint, conns, _ = run("TFO data in SYN")
    assert fingerprint["notes"] == [("tfo used", True)]
    assert len(conns[3]["delivered"]) == 51_000

    fingerprint, conns, _ = run("FIN overtakes the data before it")
    assert fingerprint["notes"] == [("early FIN", True)]
    assert len(conns[1]["delivered"]) == 60_000 and conns[1]["state"] == "CLOSE_WAIT"

    fingerprint, conns, _ = run("window opened by a data segment")
    (note,) = fingerprint["notes"]
    assert note[:2] == ("stalled", True) and note[2] <= 6_000
    assert [len(c["delivered"]) for c in conns] == [400_000, 100_000]

    fingerprint, conns, _ = run("re-sent segment outstanding outside recovery")
    ((_, recovery_point, rto_point, in_flight),) = fingerprint["notes"]
    assert recovery_point is None and rto_point is None and in_flight > 3
    assert conns[0]["stats"]["retransmissions"] == 1
    assert len(conns[1]["delivered"]) == 300_000

    fingerprint, conns, _ = run("RTO with everything SACKed by a lying peer")
    assert fingerprint["notes"][0] == ("all sacked", True)
    _, timeouts, rto_episode, resent = fingerprint["notes"][1]
    assert timeouts >= 1 and rto_episode and not resent
    assert len(conns[1]["delivered"]) == 200_000

    shaken = {name: run(name)[0]["wire+events"].event_hash
              for name in ("clean bulk, both directions at once",
                           "schedule shake 1", "schedule shake 7")}
    assert len(set(shaken.values())) == 3  # the shake did reorder ties


# ----------------------------------------------------------------------
# O(1) _first_unacked_time == the min() scan, at every assignment
# ----------------------------------------------------------------------

class _CheckedFirstUnackedTime:
    """Data descriptor standing in for the plain attribute: every value
    ACK processing assigns must be what the O(in-flight) scan gives."""

    def __init__(self):
        self.checked = self.with_resent_outstanding = 0

    def __get__(self, conn, owner=None):
        return conn.__dict__.get("_first_unacked_time_value")

    def __set__(self, conn, value):
        if sys._getframe(1).f_code.co_name in ("_handle_new_ack", "_predicted"):
            inflight = conn._inflight.values()
            assert value == (
                min(entry.send_time for entry in inflight) if inflight else None
            )
            self.checked += 1
            times = [entry.send_time for entry in inflight]
            if times != sorted(times):
                # Retransmission reordered the send times: the case the
                # shortcut must detect, not assume away.
                self.with_resent_outstanding += 1
        conn.__dict__["_first_unacked_time_value"] = value


@settings(max_examples=12, deadline=None)
@given(
    loss=st.sampled_from([0.01, 0.03, 0.08]),
    reorder=st.sampled_from([0.0, 0.04]),
    seed=st.integers(1, 10_000),
    both_ways=st.booleans(),
)
def test_first_unacked_time_equals_the_scan_after_every_ack(
    loss, reorder, seed, both_ways
):
    checker = _CheckedFirstUnackedTime()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TcpConnection, "_first_unacked_time", checker, raising=False)
        world = World(loss_rate=loss, reorder_rate=reorder, seed=seed,
                      queue_packets=40)
        (clean_bulk_both_directions if both_ways else one_way_bulk)(world)
    assert checker.checked > 100


def test_first_unacked_time_check_sees_reordered_send_times():
    """The property test's hard case does occur in its worlds."""
    checker = _CheckedFirstUnackedTime()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TcpConnection, "_first_unacked_time", checker, raising=False)
        world = World(loss_rate=0.05, seed=4, queue_packets=40)
        one_way_bulk(world)
    assert checker.with_resent_outstanding > 0
    assert world.conns[0].stats["retransmissions"] > 0
