"""IP-layer datagrams.

The IP layer is structured (a dataclass) while the transport payload is
real serialized bytes: middleboxes parse and rewrite genuine TCP headers,
which is what makes the paper's middlebox-interference experiments
meaningful.  Addresses are ``ipaddress`` objects; a datagram is v4 or v6
according to its source address family.

The carried form: a sending TCP hands its datagram the ``TcpSegment``
it stands for (``segment``; not compared, not shown).  A segment of the
template shape goes unbuilt: ``originate`` takes its wire length for
``size`` and leaves ``payload`` unset; the first read of ``payload``
(pcap, a middlebox, ``copy()``, ``summary()``, ``==``, ``repr``) builds
it through ``TcpSegment.as_sent``, the bytes as sent even after a later
change to the segment.  A receiver uses the segment instead of parsing
while the datagram was never built and the segment is unchanged, or
while the segment's cached wire form is this datagram's very ``(src,
dst, payload)``.  A router's ``hop()`` keeps all of it; a rewrite makes
new ones, and ``copy()`` builds the bytes and drops the segment, so a
rewritten or duplicated datagram is parsed from its bytes.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field
from typing import Any, Union

IPAddress = Union[ipaddress.IPv4Address, ipaddress.IPv6Address]

PROTO_TCP = 6
PROTO_UDP = 17

IPV4_HEADER_LEN = 20
IPV6_HEADER_LEN = 40

_next_packet_id = 0


def _allocate_packet_id() -> int:
    global _next_packet_id
    _next_packet_id += 1
    return _next_packet_id


@dataclass
class Datagram:
    """One IP datagram in flight."""

    src: IPAddress
    dst: IPAddress
    protocol: int
    payload: bytes
    hop_limit: int = 64
    packet_id: int = field(default_factory=_allocate_packet_id)
    #: The carried form (above).
    segment: Any = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.src.version != self.dst.version:
            raise ValueError(
                f"address family mismatch: {self.src} -> {self.dst}"
            )
        # All fields that determine the wire size are effectively
        # immutable after construction (middleboxes rewrite via
        # ``copy()`` and routers clone via ``hop()``, both of which build
        # a new datagram), so precompute the values the link layer reads
        # on every enqueue/delivery instead of paying property-call
        # overhead per packet.
        version = self.src.version
        self.version = version
        self.header_length = IPV4_HEADER_LEN if version == 4 else IPV6_HEADER_LEN
        # Total on-wire size in bytes (IP header + payload).
        self.size = self.header_length + len(self.payload)

    @classmethod
    def originate(cls, src, dst, protocol, payload, segment=None, length=0) -> "Datagram":
        """``Datagram(src, dst, protocol, payload, segment=segment)`` for
        the per-segment send path, built the way ``hop()`` builds: the
        same dict ``__init__`` and ``__post_init__`` would fill.  With
        ``payload`` None the segment is carried unbuilt (above) and
        ``length`` is its wire length."""
        global _next_packet_id
        version = src._version  # ``version`` is a property over this
        if version != dst._version:
            raise ValueError(f"address family mismatch: {src} -> {dst}")
        _next_packet_id += 1
        header = IPV4_HEADER_LEN if version == 4 else IPV6_HEADER_LEN
        datagram = object.__new__(cls)
        datagram.__dict__ = state = {
            "src": src, "dst": dst, "protocol": protocol,
            "hop_limit": 64, "packet_id": _next_packet_id, "segment": segment,
            "version": version, "header_length": header,
            "size": header + (length if payload is None else len(payload))}
        if payload is not None:
            state["payload"] = payload
        return datagram

    def copy(self, **overrides) -> "Datagram":
        """Clone with modifications; used by middleboxes that rewrite
        (a router hop takes ``hop``).

        Skips the dataclass ``__init__`` and fills the instance dict
        directly, then runs ``__post_init__``, so the family check and
        the derived size fields are exactly what a fresh construction
        would set.  The bytes are built and the carried segment dropped.
        """
        clone = object.__new__(Datagram)
        state = {**self.__dict__, "payload": self.payload, "segment": None}
        state.update(overrides)
        if "packet_id" not in overrides:
            state["packet_id"] = _allocate_packet_id()
        clone.__dict__ = state
        clone.__post_init__()
        return clone

    def hop(self) -> "Datagram":
        """The router hop's clone: one less ``hop_limit`` and the next
        packet id, every other field (derived ones, the carried segment
        and an unbuilt payload included) unchanged."""
        global _next_packet_id
        _next_packet_id += 1
        clone = object.__new__(Datagram)
        clone.__dict__ = {
            **self.__dict__, "hop_limit": self.hop_limit - 1,
            "packet_id": _next_packet_id,
        }
        return clone

    def summary(self) -> str:
        proto = {PROTO_TCP: "TCP", PROTO_UDP: "UDP"}.get(
            self.protocol, str(self.protocol)
        )
        return f"[{self.src} -> {self.dst} {proto} {len(self.payload)}B]"


class _BuiltOnRead:
    """``Datagram.payload`` while unbuilt: the first read stores the bytes
    in the instance, where later reads find them.  A non-data descriptor,
    unlike a ``__getattr__`` hook, keeps every other attribute read on
    the interpreter's specialized fast path."""

    def __get__(self, datagram, owner=None):
        if datagram is None:
            return self
        payload = datagram.segment.as_sent(datagram.src, datagram.dst)
        datagram.__dict__["payload"] = payload
        return payload


Datagram.payload = _BuiltOnRead()  # type: ignore[assignment]


def parse_address(text: str) -> IPAddress:
    """Parse a literal IPv4 or IPv6 address."""
    return ipaddress.ip_address(text)
