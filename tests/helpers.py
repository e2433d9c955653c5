"""Shared fixtures for the TCP/TLS/TCPLS end-to-end test suites."""

from __future__ import annotations

from repro.netsim.scenarios import dual_path_network, simple_duplex_network
from repro.tcp.stack import TcpStack


def tcp_pair(
    rate_bps: float = 100e6,
    delay: float = 0.005,
    loss_rate: float = 0.0,
    seed: int = 1,
    queue_packets: int = 200,
    congestion: str = "reno",
):
    """A client and server host with TCP stacks on one IPv4 link."""
    net, client, server, link = simple_duplex_network(
        rate_bps=rate_bps, delay=delay, loss_rate=loss_rate,
        seed=seed, queue_packets=queue_packets,
    )
    client_tcp = TcpStack(client, seed=seed, congestion=congestion)
    server_tcp = TcpStack(server, seed=seed + 1000, congestion=congestion)
    return net, client_tcp, server_tcp, link


def dual_path_tcp(
    rate_bps: float = 30e6, congestion: str = "reno", seed: int = 1, **kwargs
):
    """The Figure 4 dual-path topology with TCP stacks installed."""
    topo = dual_path_network(rate_bps=rate_bps, seed=seed, **kwargs)
    client_tcp = TcpStack(topo.client, seed=seed, congestion=congestion)
    server_tcp = TcpStack(topo.server, seed=seed + 1000, congestion=congestion)
    return topo, client_tcp, server_tcp


class Sink:
    """Collects whatever a connection delivers."""

    def __init__(self, conn=None):
        self.data = bytearray()
        self.established = False
        self.closed = False
        self.reset = False
        self.errors = []
        if conn is not None:
            self.attach(conn)

    def attach(self, conn):
        conn.on_data = self.data.extend
        conn.on_established = self._on_established
        conn.on_close = self._on_close
        conn.on_reset = self._on_reset
        conn.on_error = self.errors.append
        return self

    def _on_established(self):
        self.established = True

    def _on_close(self):
        self.closed = True

    def _on_reset(self):
        self.reset = True


def start_echo_server(server_tcp, port: int = 443):
    """Echo server: sends back whatever it receives."""
    conns = []

    def on_connection(conn):
        conns.append(conn)
        conn.on_data = conn.send

    server_tcp.listen(port, on_connection)
    return conns


def start_sink_server(server_tcp, port: int = 443):
    """Accepts connections and records received data per connection."""
    sinks = []

    def on_connection(conn):
        sinks.append(Sink(conn))

    server_tcp.listen(port, on_connection)
    return sinks


def report(title: str, lines) -> None:
    """Print one of the paper's result blocks (``pytest -s`` shows it)."""
    bar = "=" * 72
    print(f"\n{bar}\n{title}\n{bar}", *lines, bar, sep="\n")
