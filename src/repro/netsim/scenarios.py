"""Canned topologies used across tests, examples, and benchmarks.

``dual_path_network`` is the reproduction of the paper's Figure 4 setup:
a client and a server, each dual-stack, connected over two disjoint
router paths — one IPv4-only (OSPF in the paper) and one IPv6-only
(OSPF6), with configurable rates and delays ("we configure the bandwidth
to 30Mbps, the lowest delay to the v4 link").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.netsim.topology import Network


@dataclass
class DualPathNetwork:
    """Handles to the pieces of the two-path topology."""

    net: Network
    client: "object"
    server: "object"
    client_v4: str
    client_v6: str
    server_v4: str
    server_v6: str
    v4_links: list = field(default_factory=list)
    v6_links: list = field(default_factory=list)

    @property
    def sim(self):
        return self.net.sim

    def cut_v4_path(self) -> None:
        for link in self.v4_links:
            link.set_down()


def dual_path_network(
    rate_bps: float = 30e6,
    v4_delay: float = 0.010,
    v6_delay: float = 0.025,
    queue_packets: int = 100,
    loss_rate: float = 0.0,
    seed: int = 1,
    v6_rate_bps: Optional[float] = None,
) -> DualPathNetwork:
    """Build the Figure 4 topology.

    Client and server each have a v4-only interface toward router path
    r4a--r4b and a v6-only interface toward router path r6a--r6b.  The v4
    path has the lower delay, as in the paper.
    """
    net = Network()
    client = net.add_host("client")
    server = net.add_host("server")
    r4a = net.add_router("r4a")
    r4b = net.add_router("r4b")
    r6a = net.add_router("r6a")
    r6b = net.add_router("r6b")

    v6_rate = v6_rate_bps if v6_rate_bps is not None else rate_bps

    # IPv4 path: client -- r4a -- r4b -- server
    c4 = client.add_interface("eth0").configure_ipv4("10.0.1.1/24")
    r4a_c = r4a.add_interface("eth0").configure_ipv4("10.0.1.254/24")
    r4a_r = r4a.add_interface("eth1").configure_ipv4("10.0.2.1/24")
    r4b_r = r4b.add_interface("eth0").configure_ipv4("10.0.2.2/24")
    r4b_s = r4b.add_interface("eth1").configure_ipv4("10.0.3.254/24")
    s4 = server.add_interface("eth0").configure_ipv4("10.0.3.1/24")

    # IPv6 path: client -- r6a -- r6b -- server
    c6 = client.add_interface("eth1").configure_ipv6("fc00:1::1/64")
    r6a_c = r6a.add_interface("eth0").configure_ipv6("fc00:1::ff/64")
    r6a_r = r6a.add_interface("eth1").configure_ipv6("fc00:2::1/64")
    r6b_r = r6b.add_interface("eth0").configure_ipv6("fc00:2::2/64")
    r6b_s = r6b.add_interface("eth1").configure_ipv6("fc00:3::ff/64")
    s6 = server.add_interface("eth1").configure_ipv6("fc00:3::1/64")

    v4_links = [
        net.connect(c4, r4a_c, rate_bps=rate_bps, delay=v4_delay / 3,
                    queue_packets=queue_packets, loss_rate=loss_rate, seed=seed),
        net.connect(r4a_r, r4b_r, rate_bps=rate_bps, delay=v4_delay / 3,
                    queue_packets=queue_packets, loss_rate=loss_rate, seed=seed + 1),
        net.connect(r4b_s, s4, rate_bps=rate_bps, delay=v4_delay / 3,
                    queue_packets=queue_packets, loss_rate=loss_rate, seed=seed + 2),
    ]
    v6_links = [
        net.connect(c6, r6a_c, rate_bps=v6_rate, delay=v6_delay / 3,
                    queue_packets=queue_packets, loss_rate=loss_rate, seed=seed + 3),
        net.connect(r6a_r, r6b_r, rate_bps=v6_rate, delay=v6_delay / 3,
                    queue_packets=queue_packets, loss_rate=loss_rate, seed=seed + 4),
        net.connect(r6b_s, s6, rate_bps=v6_rate, delay=v6_delay / 3,
                    queue_packets=queue_packets, loss_rate=loss_rate, seed=seed + 5),
    ]
    net.compute_routes()
    return DualPathNetwork(
        net=net,
        client=client,
        server=server,
        client_v4="10.0.1.1",
        client_v6="fc00:1::1",
        server_v4="10.0.3.1",
        server_v6="fc00:3::1",
        v4_links=v4_links,
        v6_links=v6_links,
    )


@dataclass
class MultiPathNetwork:
    """Handles for the N-path fault-matrix topology."""

    net: Network
    client: "object"
    server: "object"
    client_addrs: list
    server_addrs: list
    links: list  # one Link per path, same index as the address lists

    @property
    def sim(self):
        return self.net.sim


def multi_path_network(
    paths: int = 2,
    rate_bps: float = 30e6,
    base_delay: float = 0.010,
    delay_step: float = 0.005,
    queue_packets: int = 100,
    loss_rate: float = 0.0,
    seed: int = 1,
) -> MultiPathNetwork:
    """A client and a server joined by ``paths`` disjoint IPv4 links.

    The fault-injection matrix sweeps path count; this generalises the
    Figure 4 dual-path idea to N directly-connected paths (no routers,
    so per-scenario cost stays low).  Path ``i`` uses subnet
    ``10.(i+1).0.0/24`` and delay ``base_delay + i*delay_step`` — paths
    are deliberately asymmetric so scheduler/health choices matter.
    """
    if paths < 1:
        raise ValueError("need at least one path")
    net = Network()
    client = net.add_host("client")
    server = net.add_host("server")
    client_addrs, server_addrs, links = [], [], []
    for index in range(paths):
        subnet = index + 1
        c_if = client.add_interface(f"eth{index}").configure_ipv4(
            f"10.{subnet}.0.1/24"
        )
        s_if = server.add_interface(f"eth{index}").configure_ipv4(
            f"10.{subnet}.0.2/24"
        )
        links.append(
            net.connect(
                c_if, s_if,
                rate_bps=rate_bps,
                delay=base_delay + index * delay_step,
                queue_packets=queue_packets,
                loss_rate=loss_rate,
                seed=seed + index,
            )
        )
        client_addrs.append(f"10.{subnet}.0.1")
        server_addrs.append(f"10.{subnet}.0.2")
    net.compute_routes()
    return MultiPathNetwork(
        net=net,
        client=client,
        server=server,
        client_addrs=client_addrs,
        server_addrs=server_addrs,
        links=links,
    )


def simple_duplex_network(
    rate_bps: float = 100e6,
    delay: float = 0.005,
    queue_packets: int = 200,
    loss_rate: float = 0.0,
    reorder_rate: float = 0.0,
    seed: int = 1,
):
    """A minimal client--server network on one IPv4 link (for unit tests)."""
    net = Network()
    client = net.add_host("client")
    server = net.add_host("server")
    ci = client.add_interface("eth0").configure_ipv4("10.0.0.1/24")
    si = server.add_interface("eth0").configure_ipv4("10.0.0.2/24")
    link = net.connect(
        ci, si, rate_bps=rate_bps, delay=delay,
        queue_packets=queue_packets, loss_rate=loss_rate,
        reorder_rate=reorder_rate, seed=seed,
    )
    net.compute_routes()
    return net, client, server, link
