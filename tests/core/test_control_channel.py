"""The secure control channel: TCP options, plugins, probes, cookies."""

import json

import pytest

from repro.core.events import Event
from repro.core.plugins.library import (
    aimd_conservative_program,
    fixed_window_program,
)
from repro.netsim.middlebox import Nat44, OptionStripper, TransparentProxyMangler
from repro.tcp.options import KIND_USER_TIMEOUT, UserTimeout
from tests.core.conftest import collect_stream_data, establish


def test_user_timeout_applied_via_secure_channel(duplex_world):
    """Section 3.1: the client sends UTO inside a TLS record; the server
    'extracts it and performs the required setsockopt'."""
    world = duplex_world
    establish(world)
    options = []
    world.server_session.on(
        Event.TCP_OPTION_RECEIVED, lambda **kw: options.append(kw)
    )
    world.client.send_tcp_option(UserTimeout(timeout=30))
    world.run(until=2.0)
    assert options and options[0]["kind"] == KIND_USER_TIMEOUT
    assert options[0]["option"].timeout == 30
    # The server applied it to its TCP connection.
    server_tcp = world.server_session.connections[0].tcp
    assert server_tcp.user_timeout == 30.0


def test_user_timeout_minutes_granularity(duplex_world):
    world = duplex_world
    establish(world)
    world.client.send_tcp_option(UserTimeout(granularity_minutes=True, timeout=2))
    world.run(until=2.0)
    assert world.server_session.connections[0].tcp.user_timeout == 120.0


def test_option_survives_option_stripping_middlebox(duplex_world):
    """The whole point: a middlebox that strips the UTO option from TCP
    headers cannot touch it inside an encrypted record."""
    world = duplex_world
    stripper = OptionStripper([KIND_USER_TIMEOUT])
    client_iface = list(world.client_stack.host.interfaces.values())[0]
    world.link.add_transformer(client_iface, stripper)
    establish(world)
    world.client.send_tcp_option(UserTimeout(timeout=45))
    world.run(until=2.0)
    # The middlebox never even saw a UTO option to strip...
    assert stripper.stripped_count == 0
    # ...yet the server applied it.
    assert world.server_session.connections[0].tcp.user_timeout == 45.0


def test_plugin_upgrades_congestion_control(duplex_world):
    """Section 3 item iii: the server ships bytecode; the client's TCP
    congestion controller is replaced."""
    world = duplex_world
    establish(world)
    installs = []
    world.client.on(Event.PLUGIN_INSTALLED, lambda **kw: installs.append(kw))
    before = world.client.connections[0].tcp.cc.name
    world.server_session.send_plugin("cc", fixed_window_program().to_bytes())
    world.run(until=2.0)
    assert installs and installs[0]["ok"]
    after = world.client.connections[0].tcp.cc
    assert before == "reno" and after.name == "plugin"


def test_plugin_actually_controls_the_window(duplex_world):
    world = duplex_world
    establish(world)
    world.server_session.send_plugin("cc", fixed_window_program().to_bytes())
    world.run(until=2.0)
    received, _ = collect_stream_data(world.server_session)
    stream = world.client.stream_new()
    world.client.streams_attach()
    world.client.send(stream, b"p" * 400_000)
    world.run(until=30.0)
    tcp = world.client.connections[0].tcp
    # The fixed-window plugin pins cwnd at 4 * MSS.
    assert tcp.cc.window() == 4 * tcp.effective_mss()
    assert bytes(received[stream]) == b"p" * 400_000


def test_invalid_plugin_bytecode_rejected(duplex_world):
    world = duplex_world
    establish(world)
    installs = []
    world.client.on(Event.PLUGIN_INSTALLED, lambda **kw: installs.append(kw))
    world.server_session.send_plugin("cc", b"\x99" * 24)  # bad opcodes
    world.run(until=2.0)
    assert installs and not installs[0]["ok"]
    assert world.client.connections[0].tcp.cc.name == "reno"  # unchanged


def test_unknown_plugin_target_rejected(duplex_world):
    world = duplex_world
    establish(world)
    installs = []
    world.client.on(Event.PLUGIN_INSTALLED, lambda **kw: installs.append(kw))
    world.server_session.send_plugin("filesystem", aimd_conservative_program().to_bytes())
    world.run(until=2.0)
    assert installs and not installs[0]["ok"]


def test_middlebox_probe_clean_path(duplex_world):
    world = duplex_world
    establish(world)
    reports = []
    world.client.on(Event.PROBE_REPORT, lambda **kw: reports.append(kw))
    world.client.send_middlebox_probe()
    world.run(until=2.0)
    assert reports
    assert reports[0]["differences"] == []  # pristine path


def test_middlebox_probe_detects_proxy_mangling(duplex_world):
    world = duplex_world
    mangler = TransparentProxyMangler(clamp_mss=536)
    client_iface = list(world.client_stack.host.interfaces.values())[0]
    world.link.add_transformer(client_iface, mangler)
    establish(world, until=2.0)
    reports = []
    world.client.on(Event.PROBE_REPORT, lambda **kw: reports.append(kw))
    world.client.send_middlebox_probe()
    world.run(until=3.0)
    assert reports
    findings = " ".join(reports[0]["differences"])
    assert "MSS clamped" in findings or "stripped" in findings


def test_metrics_are_json_after_events_whose_kwargs_hold_objects(duplex_world):
    """``metrics()`` carries the session's own events, each one's kwargs
    scrubbed to JSON values: a received option arrives as an object."""
    world = duplex_world
    establish(world)
    world.server_session.send_tcp_option(UserTimeout(timeout=30))
    world.client.send_middlebox_probe()
    world.run(until=2.0)
    doc = world.client.metrics()
    events = {entry["event"]: entry for entry in doc["events"]}
    assert events[Event.TCP_OPTION_RECEIVED]["kind"] == KIND_USER_TIMEOUT
    assert "option" not in events[Event.TCP_OPTION_RECEIVED]
    assert events[Event.PROBE_REPORT]["differences"] == []
    assert json.loads(json.dumps(doc))["events"] == doc["events"]


def test_cookie_replenishment(duplex_world):
    world = duplex_world
    establish(world)
    before = len(world.client.cookie_purse)
    world.server_session.send_new_cookies(count=3)
    world.run(until=2.0)
    assert len(world.client.cookie_purse) == before + 3
