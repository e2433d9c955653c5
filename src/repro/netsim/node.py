"""Nodes (hosts and routers) and their interfaces.

A ``Node`` owns interfaces and a per-family routing table (longest-prefix
match).  ``Router`` forwards packets not addressed to it; ``Host`` hands
local deliveries to registered protocol handlers (the TCP and UDP stacks
register themselves).  Hosts can be dual-stack — the Figure 4 experiment
uses a host with one IPv4-only and one IPv6-only interface.

Two per-node caches sit on the per-packet path: the set of owned
addresses, rebuilt whenever an interface address changes, and a
destination-keyed memo of the longest-prefix match, emptied whenever an
address or the routing table changes, so they are pure memoization.  A router hop is
``Link._deliver`` -> ``receive`` -> ``forward`` -> ``Datagram.hop`` ->
``Link.transmit``: ``receive`` and ``forward`` read both memos inline.
"""

from __future__ import annotations

import ipaddress
from typing import Callable, Dict, Optional

from repro.netsim.packet import Datagram, IPAddress

#: Entries a node's route memo may hold before it is emptied.
_ROUTE_CACHE_MAX = 4096


class Interface:
    """One network interface: a node-side attachment point for a link."""

    def __init__(self, node: "Node", name: str) -> None:
        self.node = node
        self.name = name
        self.link = None
        self.up = True
        self.ipv4: Optional[ipaddress.IPv4Interface] = None
        self.ipv6: Optional[ipaddress.IPv6Interface] = None

    def configure_ipv4(self, cidr: str) -> "Interface":
        self.ipv4 = ipaddress.IPv4Interface(cidr)
        self.node.invalidate_lookup_caches()
        return self

    def configure_ipv6(self, cidr: str) -> "Interface":
        self.ipv6 = ipaddress.IPv6Interface(cidr)
        self.node.invalidate_lookup_caches()
        return self

    def address_for_family(self, version: int) -> Optional[IPAddress]:
        if version == 4 and self.ipv4 is not None:
            return self.ipv4.ip
        if version == 6 and self.ipv6 is not None:
            return self.ipv6.ip
        return None

    def networks(self):
        if self.ipv4 is not None:
            yield self.ipv4.network
        if self.ipv6 is not None:
            yield self.ipv6.network

    def attach_link(self, link) -> None:
        if self.link is not None:
            raise ValueError(f"{self} already attached to a link")
        self.link = link
        link.attach(self)

    def send(self, datagram: Datagram) -> None:
        if not self.up or self.link is None:
            return
        self.link.transmit(self, datagram)

    def send_batch(self, datagrams) -> None:
        """Burst form of :meth:`send` (the ``netsim.vectorq`` path)."""
        if not self.up or self.link is None:
            return
        self.link.transmit_batch(self, datagrams)

    def set_down(self) -> None:
        self.up = False

    def set_up(self) -> None:
        self.up = True

    def __repr__(self) -> str:
        return f"<Interface {self.node.name}:{self.name}>"


class Node:
    """Base class for hosts and routers."""

    forwarding = False

    def __init__(self, sim, name: str) -> None:
        self.sim = sim
        self.name = name
        self.interfaces: dict[str, Interface] = {}
        # Routes: list of (network, interface) sorted by prefix length
        # descending so iteration order gives longest-prefix match.
        self._routes: list = []
        self.packets_forwarded = 0
        self.packets_delivered = 0
        # Lookup caches; see invalidate_lookup_caches.
        self._owned: frozenset = frozenset()
        self._route_cache: Dict[tuple, Optional[Interface]] = {}

    # -- configuration ---------------------------------------------------

    def add_interface(self, name: str) -> Interface:
        if name in self.interfaces:
            raise ValueError(f"duplicate interface name {name!r}")
        interface = Interface(self, name)
        self.interfaces[name] = interface
        return interface

    def add_route(self, network, interface: Interface) -> None:
        network = (
            ipaddress.ip_network(network) if isinstance(network, str) else network
        )
        self._routes.append((network, interface))
        self._routes.sort(key=lambda entry: entry[0].prefixlen, reverse=True)
        self._route_cache.clear()

    def clear_routes(self) -> None:
        self._routes.clear()
        self._route_cache.clear()

    def invalidate_lookup_caches(self) -> None:
        """Rebuild the address/route memos after an address change.

        Owned addresses are keyed by (concrete class, integer value):
        hashing an ``ipaddress`` object builds a hex string every time,
        while a (type, int) tuple hashes in a few nanoseconds.  The class
        in the key keeps v4 and v6 addresses with equal integer values
        distinct.
        """
        self._owned = frozenset(
            (owned.__class__, int(owned)) for owned in self.addresses()
        )
        self._route_cache.clear()

    # -- address helpers -----------------------------------------------------

    def addresses(self, version: Optional[int] = None):
        for interface in self.interfaces.values():
            for family in (4, 6):
                if version is not None and family != version:
                    continue
                address = interface.address_for_family(family)
                if address is not None:
                    yield address

    def owns_address(self, address: IPAddress) -> bool:
        return (address.__class__, address._ip) in self._owned

    # -- data path -------------------------------------------------------------

    def receive(self, datagram: Datagram, interface: Interface) -> None:
        dst = datagram.dst
        if (dst.__class__, dst._ip) in self._owned:
            self.packets_delivered += 1
            self.local_deliver(datagram, interface)
        elif self.forwarding:
            self.forward(datagram)

    def forward(self, datagram: Datagram) -> None:
        if datagram.hop_limit <= 1:
            return
        dst = datagram.dst
        try:
            out = self._route_cache[(dst.__class__, dst._ip)]
        except KeyError:
            out = self.lookup_route(dst)
        if out is None:
            return
        self.packets_forwarded += 1
        clone = datagram.hop()  # a packet id even if ``out`` is down
        if out.up and out.link is not None:
            out.link.transmit(out, clone)

    def lookup_route(self, destination: IPAddress) -> Optional[Interface]:
        """Longest-prefix match (None when unroutable), memoized.

        Destinations are read off the wire, so the memo — which also
        remembers unroutable ones — is emptied at ``_ROUTE_CACHE_MAX``
        entries: a spoofed-address spray cannot grow it without bound.
        """
        key = (destination.__class__, destination._ip)
        try:
            return self._route_cache[key]
        except KeyError:
            pass
        result = None
        for network, interface in self._routes:
            if network.version == destination.version and destination in network:
                result = interface
                break
        if len(self._route_cache) >= _ROUTE_CACHE_MAX:
            self._route_cache.clear()
        self._route_cache[key] = result
        return result

    def send_ip(self, datagram: Datagram) -> bool:
        """Originate a datagram from this node. Returns False if unroutable."""
        out = self.lookup_route(datagram.dst)
        if out is None:
            return False
        out.send(datagram)
        return True

    def send_ip_batch(self, datagrams) -> bool:
        """Originate a burst sharing one destination (``netsim.vectorq``).

        The route is resolved once for the burst — callers guarantee all
        datagrams share ``dst``, which is what makes the burst a single
        link-direction enqueue sequence downstream.
        """
        out = self.lookup_route(datagrams[0].dst)
        if out is None:
            return False
        out.send_batch(datagrams)
        return True

    def local_deliver(self, datagram: Datagram, interface: Interface) -> None:
        """Overridden by Host; routers silently sink local traffic."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class Router(Node):
    """A node that forwards transit traffic."""

    forwarding = True


class Host(Node):
    """An end host with protocol handlers (TCP/UDP stacks attach here)."""

    forwarding = False

    def __init__(self, sim, name: str) -> None:
        super().__init__(sim, name)
        self._protocol_handlers: dict[int, Callable] = {}

    def register_protocol(self, protocol: int, handler: Callable) -> None:
        """Register ``handler(datagram, interface)`` for an IP protocol number."""
        if protocol in self._protocol_handlers:
            raise ValueError(f"protocol {protocol} already has a handler")
        self._protocol_handlers[protocol] = handler

    def local_deliver(self, datagram: Datagram, interface: Interface) -> None:
        handler = self._protocol_handlers.get(datagram.protocol)
        if handler is not None:
            handler(datagram, interface)
