"""§4.6 as an exact cost table: TCPLS against layered TLS over the same TCP.

The paper argues that one stack owning TCP and TLS gains "performance
advantages of combining those two layers".  ``tests/paper/
test_comparison_quic.py`` compares sim-clock goodput only; this file
counts what each stack *does* to move the same bytes: Python calls per
layer, simulator events and TCP segments per delivered byte, for the
§4.6 world's clean path (30 Mb/s, 40 ms RTT, 2 MB).  TCPLS sends one
stream from client to server; the layered baseline
(``repro.baselines``' ``TlsFileServer``/``TlsFileClient``: TLS 1.3 records
written into a ``TcpConnection``) sends the file from server to client.
Both run NewReno on the same ``TcpStack``.  Mini-QUIC is left out: its
cost is mostly its own codec, not a layering question.

Only the transfer is measured: each world is built and run until its
handshake is done, then the bulk transfer runs under cProfile with the
garbage collector off, in chunks of 50 ms of simulated time until every
byte arrived.  Each stack is built and measured once as a warm-up first
(as in ``test_bench_costs.py``), so first-use tables and memos exist
whichever stack or file ran before.  Calls are grouped by layer the way
``test_bench_costs.py`` groups them and pinned for CPython 3.11 only;
``-s`` prints the table.
"""

import cProfile
import gc
import sys

import pytest

from repro.analysis.sanitizers import reset_process_globals
from repro.baselines.apps import TlsFileClient, TlsFileServer
from repro.core.session import TcplsContext, TcplsServer, TcplsSession
from repro.netsim.scenarios import simple_duplex_network
from repro.tcp.stack import TcpStack

from tests.analysis.test_bench_costs import _calls, _layer
from tests.paper.test_comparison_quic import FILE_SIZE, RATE, _pki

#: Calls per layer, events and segments (``Datagram.originate`` calls)
#: of one measured transfer.
PINNED = {
    "tcpls": {"calls": 257687, "events": 2941, "segments": 2918,
              "layers": {"builtins": 122984, "tcp": 64050, "netsim": 34284,
                         "core": 17338, "tls": 6637, "crypto": 5587, "numpy": 5389,
                         "utils": 906, "other": 361, "obs": 151}},
    "layered": {"calls": 221942, "events": 2828, "segments": 2868,
                "layers": {"builtins": 109816, "tcp": 59022, "netsim": 33410,
                           "tls": 7841, "numpy": 5160, "crypto": 4994,
                           "baselines": 1559, "utils": 97, "other": 43}},
}

pytestmark = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="call counts are pinned for CPython 3.11 (see test_bench_costs.py)",
)


def _network():
    net, client_host, server_host, _ = simple_duplex_network(
        rate_bps=RATE, delay=0.02, seed=51
    )
    return net, client_host, server_host


def _tcpls():
    """An established TCPLS session; returns (sim, transfer, received)."""
    net, client_host, server_host = _network()
    identity, trust = _pki(b"t")
    sessions = []
    TcplsServer(
        TcplsContext(identity=identity, seed=2, congestion="reno"),
        TcpStack(server_host, seed=3),
        on_session=sessions.append,
    )
    client = TcplsSession(
        TcplsContext(trust_store=trust, server_name="server.example", seed=4,
                     congestion="reno"),
        TcpStack(client_host, seed=5),
    )
    client.connect("10.0.0.2")
    client.handshake()
    net.sim.run(until=1.0)
    assert client.handshake_complete
    received = bytearray()
    sessions[0].on_stream_data = lambda sid, data: received.extend(data)

    def transfer():
        stream = client.stream_new()
        client.streams_attach()
        client.send(stream, b"\xcd" * FILE_SIZE)
    return net.sim, transfer, received


def _layered():
    """A finished TLS handshake over TCP whose server sends the file as
    soon as the client's Finished arrives; returns (sim, transfer,
    received)."""
    net, client_host, server_host = _network()
    identity, trust = _pki(b"t")
    TlsFileServer(TcpStack(server_host, seed=3), identity, file_size=FILE_SIZE)
    client = TlsFileClient(TcpStack(client_host, seed=5), "10.0.0.2", trust)
    while client.handshake_time is None:
        net.sim.run(until=net.sim.now + 0.001)
    return net.sim, lambda: None, client.received


STACKS = {"tcpls": _tcpls, "layered": _layered}


def _measure(name):
    """Warm up, then profile one transfer; returns its costs."""
    for _ in range(2):  # a warm-up, then the measured transfer
        reset_process_globals()
        sim, transfer, received = STACKS[name]()
        events = sim.events_processed
        gc.collect()
        gc.disable()
        profile = cProfile.Profile()
        try:
            profile.enable()
            transfer()
            while len(received) < FILE_SIZE:
                sim.run(until=sim.now + 0.05)
        finally:
            profile.disable()
            gc.enable()
    assert len(received) == FILE_SIZE
    entries = profile.getstats()
    layers = {}
    for entry in entries:
        layer = _layer(entry.code)
        layers[layer] = layers.get(layer, 0) + entry.callcount
    return {
        "calls": sum(layers.values()),
        "events": sim.events_processed - events,
        "segments": _calls(entries, "netsim/packet.py", "originate"),
        "layers": layers,
    }


def test_section46_costs_per_delivered_byte():
    costs = {name: _measure(name) for name in STACKS}
    layers = sorted(
        {layer for cost in costs.values() for layer in cost["layers"]},
        key=lambda layer: -costs["tcpls"]["layers"].get(layer, 0),
    )
    print(f"\n§4.6 clean path, {FILE_SIZE:,} bytes delivered: per delivered byte")
    print(f"  {'':<10}{'TCPLS':>10}{'layered':>10}")
    for key in ["calls", *layers, "events", "segments"]:
        row = [cost["layers"].get(key, 0) if key in layers else cost[key]
               for cost in costs.values()]
        print(f"  {key:<10}" + "".join(f"{value / FILE_SIZE:>10.4f}" for value in row))
    for name, cost in costs.items():
        assert cost == PINNED[name], name
