"""Export simulated traffic to pcap files readable by Wireshark/tcpdump.

The simulator keeps the IP layer structured, so the writer synthesizes a
genuine IPv4/IPv6 header (correct lengths, protocol number, header
checksum) around the real transport bytes each ``Datagram`` carries.
Attach a ``PcapWriter`` to a link direction like any middlebox
transformer:

    writer = PcapWriter("trace.pcap", sim)
    link.add_transformer(client_iface, writer)
    ...
    writer.close()

The file uses the classic pcap format with LINKTYPE_RAW (101): each
packet starts directly at the IP header.
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.netsim.packet import Datagram

_MAGIC = 0xA1B2C3D4  # microsecond-resolution pcap


def internet_checksum(data: bytes) -> int:
    """RFC 1071 ones-complement checksum (kept local: netsim sits below
    the TCP layer and must not import from it)."""
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack(f"!{len(data) // 2}H", data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


_VERSION = (2, 4)
_LINKTYPE_RAW = 101
_SNAPLEN = 65535


def _ipv4_header(datagram: Datagram) -> bytes:
    total_length = 20 + len(datagram.payload)
    header = struct.pack(
        "!BBHHHBBH4s4s",
        0x45,                    # version 4, IHL 5
        0,                       # DSCP/ECN
        total_length,
        datagram.packet_id & 0xFFFF,
        0,                       # flags/fragment offset
        datagram.hop_limit,
        datagram.protocol,
        0,                       # checksum placeholder
        datagram.src.packed,
        datagram.dst.packed,
    )
    checksum = internet_checksum(header)
    return header[:10] + struct.pack("!H", checksum) + header[12:]


def _ipv6_header(datagram: Datagram) -> bytes:
    return struct.pack(
        "!IHBB16s16s",
        0x60000000,              # version 6, no traffic class/flow label
        len(datagram.payload),
        datagram.protocol,       # next header
        datagram.hop_limit,
        datagram.src.packed,
        datagram.dst.packed,
    )


def serialize_ip(datagram: Datagram) -> bytes:
    """Full on-the-wire bytes (IP header + transport payload)."""
    if datagram.version == 4:
        return _ipv4_header(datagram) + datagram.payload
    return _ipv6_header(datagram) + datagram.payload


class PcapWriter:
    """Writes every observed datagram to a pcap file.

    Usable directly as a link transformer (pass-through).  Timestamps
    come from the simulation clock, so inter-packet spacing in Wireshark
    reflects simulated time exactly.
    """

    def __init__(self, path: str, sim) -> None:
        self.path = path
        self.sim = sim
        self.packets_written = 0
        self._file = open(path, "wb")
        self._file.write(
            struct.pack(
                "!IHHiIII",
                _MAGIC,
                _VERSION[0],
                _VERSION[1],
                0,          # timezone offset
                0,          # sigfigs
                _SNAPLEN,
                _LINKTYPE_RAW,
            )
        )

    def write(self, datagram: Datagram, at: Optional[float] = None) -> None:
        if self._file.closed:
            return
        timestamp = self.sim.now if at is None else at
        seconds = int(timestamp)
        microseconds = int(round((timestamp - seconds) * 1_000_000))
        wire = serialize_ip(datagram)
        self._file.write(
            struct.pack("!IIII", seconds, microseconds, len(wire), len(wire))
        )
        self._file.write(wire)
        self.packets_written += 1

    def __call__(self, datagram: Datagram) -> Datagram:
        self.write(datagram)
        return datagram

    def close(self) -> None:
        if not self._file.closed:
            self._file.flush()
            self._file.close()

    def __enter__(self) -> "PcapWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_pcap(path: str):
    """Parse a pcap file back into (timestamp, raw_ip_bytes) tuples.

    Round-trip helper for tests and offline analysis; handles only the
    format this writer produces (big-endian classic pcap, LINKTYPE_RAW).
    """
    with open(path, "rb") as handle:
        data = handle.read()
    if len(data) < 24:
        raise ValueError("not a pcap file this reader understands")
    magic, major, minor, _tz, _sig, _snap, linktype = struct.unpack(
        "!IHHiIII", data[:24]
    )
    if magic != _MAGIC:
        raise ValueError("not a pcap file this reader understands")
    if linktype != _LINKTYPE_RAW:
        raise ValueError(f"unexpected linktype {linktype}")
    packets = []
    offset = 24
    while offset < len(data):
        if offset + 16 > len(data):
            raise ValueError("truncated pcap record header")
        seconds, micros, caplen, _origlen = struct.unpack(
            "!IIII", data[offset : offset + 16]
        )
        offset += 16
        packets.append((seconds + micros / 1e6, data[offset : offset + caplen]))
        offset += caplen
    return packets
