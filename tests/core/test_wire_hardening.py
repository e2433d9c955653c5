"""Caps on wire-derived values.

Each test here fails on the pre-hardening code, which let an
attacker-influenced value become protocol state uncapped; the fix
clamps it at that point.  No lint rule checks these caps: these tests
are their only guard.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from helpers import tcp_pair

from repro.core.plugins.assembler import assemble
from repro.core.plugins.runtime import (
    MAX_PLUGIN_WINDOW,
    BytecodeCongestionControl,
)
from repro.tcp.congestion import make as make_congestion_control
from repro.tcp.options import MAX_USER_TIMEOUT_SECONDS, UserTimeout
from repro.tcp.segment import Flags, TcpSegment
from tests.core.conftest import establish

# A malicious-but-verifiable plugin: on every event, cwnd = mss * 100000
# (~140 MB) and ssthresh likewise — congestion control disabled.
GREEDY_ASM = """
    mov  r0, r4
    muli r0, 100000
    st   15, r0
    ret
"""


def _established_conn():
    net, client_tcp, server_tcp, link = tcp_pair()
    server_tcp.listen(443, lambda c: None)
    conn = client_tcp.connect("10.0.0.2", 443)
    net.sim.run(until=1.0)
    assert conn.state == "ESTABLISHED"
    return conn


def test_secure_channel_user_timeout_is_capped(duplex_world):
    """A peer advertising the RFC 5482 maximum (32767 minutes, ~23 days)
    must not be able to pin connection state that long: the applied
    timeout is clamped to local policy."""
    world = duplex_world
    establish(world)
    world.client.send_tcp_option(
        UserTimeout(granularity_minutes=True, timeout=32767)
    )
    world.run(until=2.0)
    applied = world.server_session.connections[0].tcp.user_timeout
    assert applied == MAX_USER_TIMEOUT_SECONDS


def test_secure_channel_user_timeout_below_cap_unchanged(duplex_world):
    world = duplex_world
    establish(world)
    world.client.send_tcp_option(UserTimeout(timeout=30))
    world.run(until=2.0)
    assert world.server_session.connections[0].tcp.user_timeout == 30.0


def test_syn_negotiated_user_timeout_is_capped():
    """The SYN-option negotiation path applies the same policy cap."""
    conn = _established_conn()
    syn = TcpSegment(
        src_port=443,
        dst_port=conn.local_port,
        flags=Flags.SYN,
        options=[UserTimeout(granularity_minutes=True, timeout=32767)],
    )
    conn._negotiate_from_options(syn)
    assert conn.user_timeout == MAX_USER_TIMEOUT_SECONDS


def test_syn_negotiated_user_timeout_below_cap_unchanged():
    conn = _established_conn()
    syn = TcpSegment(
        src_port=443,
        dst_port=conn.local_port,
        flags=Flags.SYN,
        options=[UserTimeout(timeout=300)],
    )
    conn._negotiate_from_options(syn)
    assert conn.user_timeout == 300.0


def test_plugin_cwnd_is_capped():
    """Verified bytecode can still compute hostile values; the runtime
    clamps cwnd before it becomes window state."""
    cc = BytecodeCongestionControl(1400, assemble(GREEDY_ASM))
    cc.on_ack(1400, rtt=0.05, now=0.0)
    assert cc.cwnd == MAX_PLUGIN_WINDOW


def test_plugin_ssthresh_is_capped():
    cc = BytecodeCongestionControl(1400, assemble(GREEDY_ASM))
    cc.on_ack(1400, rtt=0.05, now=0.0)
    assert cc.ssthresh <= MAX_PLUGIN_WINDOW


def test_controller_swap_clamps_preserved_window():
    """Swapping controllers preserves the current window — but clamped,
    so a plugin-inflated cwnd dies with the plugin."""
    conn = _established_conn()
    conn.cc.cwnd = 1e12  # what an uncapped greedy plugin would leave
    conn.set_congestion_control(make_congestion_control("reno", conn.mss))
    assert conn.cc.cwnd <= 16 * 1024 * 1024
    assert (
        conn.cc.ssthresh == float("inf")
        or conn.cc.ssthresh <= 16 * 1024 * 1024
    )


def test_controller_swap_preserves_sane_window():
    conn = _established_conn()
    before = conn.cc.cwnd
    conn.set_congestion_control(make_congestion_control("reno", conn.mss))
    assert conn.cc.cwnd == max(before, conn.cc.mss)
