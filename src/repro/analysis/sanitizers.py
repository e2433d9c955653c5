"""Runtime determinism and reentrancy sanitizers.

Static rules (see :mod:`repro.analysis.rules`) catch nondeterminism you
can see in the source; this module catches the kind you can only see by
*running*.  The determinism sanitizer executes a scenario twice under
reset process state and compares:

- the **event-order hash** — a SHA-256 over the exact ``(time, seq)``
  execution order the :class:`~repro.netsim.engine.Simulator` produced
  (via ``attach_event_hook``), and
- the **pcap digest** — a SHA-256 over the full on-the-wire bytes of
  every datagram crossing tapped links (via an in-memory transformer
  around :func:`repro.netsim.pcap.serialize_ip`), plus
- the final simulated clock and the processed-event count.

Any wall-clock read, unseeded RNG draw, or ``id()``-ordered set
iteration that leaks into scheduling or wire output flips one of those
digests between the two runs.  The optional **schedule shake** mode
additionally replaces heap tie-break sequence numbers with a seeded
bijection — both runs still share the same shaken order, so hidden
cross-run nondeterminism keeps failing the comparison while legitimate
tie-order dependence does not; comparing digests across *different*
shake seeds flushes out code whose externally visible behaviour depends
on the arbitrary tie order itself.

The reentrancy sanitizer is always on: ``Simulator.run`` raises
:class:`~repro.utils.errors.ReentrancyError` when an event handler
re-enters the loop (see PR 1's event-loss bug class).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.netsim.pcap import serialize_ip


class EventOrderRecorder:
    """Hashes the (time, seq) execution order of every event."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.events = 0

    def __call__(self, time: float, seq: int) -> None:
        self._hash.update(struct.pack("<dQ", time, seq & 0xFFFFFFFFFFFFFFFF))
        self.events += 1

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


class PcapDigest:
    """A link transformer hashing wire bytes instead of writing a file.

    Pass-through like :class:`repro.netsim.pcap.PcapWriter`, but the
    pcap "file" is reduced to a running SHA-256 over (timestamp, full
    IP-layer bytes) pairs, so two runs can be compared without touching
    the filesystem.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        self.packets = 0
        self._hash = hashlib.sha256()

    def __call__(self, datagram):
        wire = serialize_ip(datagram)
        self._hash.update(struct.pack("<dI", self.sim.now, len(wire)))
        self._hash.update(wire)
        self.packets += 1
        return datagram

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


@dataclass(frozen=True)
class RunDigest:
    """Everything one scenario run is reduced to for comparison."""

    event_hash: str
    pcap_hash: str
    clock: float
    events: int
    packets: int

    def summary(self) -> str:
        return (
            f"events={self.events} clock={self.clock:.9f} "
            f"order={self.event_hash[:16]} pcap={self.pcap_hash[:16]}"
        )


class DeterminismProbe:
    """The handle a scenario uses to expose its run to the sanitizer.

    A scenario callable receives a probe and must:

    1. call :meth:`watch` on its simulator right after creating it
       (before anything is scheduled, so schedule shake can engage);
    2. optionally call :meth:`tap` on the links whose wire bytes should
       be part of the digest.
    """

    def __init__(self, shake_seed: Optional[int] = None) -> None:
        self.shake_seed = shake_seed
        self._recorder = EventOrderRecorder()
        self._taps: List[PcapDigest] = []
        self._sim = None

    def watch(self, sim) -> None:
        if self._sim is not None:
            raise ValueError("probe already watches a simulator")
        self._sim = sim
        sim.attach_event_hook(self._recorder)
        if self.shake_seed is not None:
            sim.enable_schedule_shake(self.shake_seed)

    def tap(self, link, from_interface) -> PcapDigest:
        tap = PcapDigest(link.sim)
        link.add_transformer(from_interface, tap)
        self._taps.append(tap)
        return tap

    def digest(self) -> RunDigest:
        if self._sim is None:
            raise ValueError("scenario never called probe.watch(sim)")
        pcap = hashlib.sha256()
        packets = 0
        for tap in self._taps:
            pcap.update(tap.hexdigest().encode("ascii"))
            packets += tap.packets
        return RunDigest(
            event_hash=self._recorder.hexdigest(),
            pcap_hash=pcap.hexdigest(),
            clock=self._sim.now,
            events=self._recorder.events,
            packets=packets,
        )


@dataclass
class DeterminismReport:
    """Outcome of a multi-run comparison."""

    runs: List[RunDigest] = field(default_factory=list)
    mismatches: List[str] = field(default_factory=list)
    shake_seed: Optional[int] = None

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def format(self) -> str:
        lines = []
        for index, run in enumerate(self.runs):
            lines.append(f"run {index}: {run.summary()}")
        if self.ok:
            lines.append(
                f"deterministic: {len(self.runs)} run(s) identical"
                + (f" (shake seed {self.shake_seed})"
                   if self.shake_seed is not None else "")
            )
        else:
            lines.extend(self.mismatches)
        return "\n".join(lines)


def reset_process_globals() -> None:
    """Rewind process-wide counters so consecutive runs are comparable.

    The packet-id, TCPLS session and QUIC endpoint counters are
    process-global monotonic counters (harmless for determinism across
    processes, but a second in-process run would see different ids and
    seeds and legitimately produce different wire bytes).
    """
    from repro.core import session as session_module
    from repro.netsim import packet as packet_module
    from repro.quic import connection as quic_module

    packet_module._next_packet_id = 0
    session_module._session_counter[0] = 0
    quic_module._endpoint_counter[0] = 0


def check_determinism(
    scenario: Callable[[DeterminismProbe], None],
    runs: int = 2,
    shake_seed: Optional[int] = None,
) -> DeterminismReport:
    """Run ``scenario`` ``runs`` times and diff the digests.

    ``scenario`` is a callable taking a :class:`DeterminismProbe`; it
    must build its whole world from explicit seeds (that is the claim
    under test).  With ``shake_seed`` set, every run uses the same
    shaken tie-break order — a mismatch then proves nondeterminism that
    survives even reordered equal-time ties.
    """
    if runs < 2:
        raise ValueError("need at least two runs to compare")
    report = DeterminismReport(shake_seed=shake_seed)
    for _ in range(runs):
        reset_process_globals()
        probe = DeterminismProbe(shake_seed=shake_seed)
        scenario(probe)
        report.runs.append(probe.digest())
    reference = report.runs[0]
    for index, run in enumerate(report.runs[1:], start=1):
        for attr in ("event_hash", "pcap_hash", "clock", "events", "packets"):
            a, b = getattr(reference, attr), getattr(run, attr)
            if a != b:
                report.mismatches.append(
                    f"run 0 vs run {index}: {attr} diverged ({a} != {b})"
                )
    return report


def builtin_smoke_scenario(probe: DeterminismProbe) -> None:
    """A self-contained TCPLS transfer used by the CI smoke run.

    One client, one server, one duplex IPv4 link; full handshake, a
    two-stream data exchange, clean close.  Everything is seeded, so a
    double run must produce identical event-order and pcap digests —
    that is exactly the invariant PR 1's identity tests and the
    attacked-run pcap comparison rely on.
    """
    from repro.core.session import TcplsContext, TcplsServer, TcplsSession
    from repro.netsim.scenarios import simple_duplex_network
    from repro.tcp.stack import TcpStack
    from repro.tls.certificates import CertificateAuthority, TrustStore
    from repro.tls.session import SessionTicketStore

    net, client_host, server_host, link = simple_duplex_network(delay=0.005)
    probe.watch(net.sim)
    probe.tap(link, link.endpoint(0))
    probe.tap(link, link.endpoint(1))

    ca = CertificateAuthority("Repro Root", seed=b"root")
    identity = ca.issue_identity("server.example", seed=b"srv")
    trust = TrustStore()
    trust.add_authority(ca)
    client_ctx = TcplsContext(
        trust_store=trust,
        server_name="server.example",
        ticket_store=SessionTicketStore(),
        seed=7,
    )
    server_ctx = TcplsContext(identity=identity, seed=507)
    client_stack = TcpStack(client_host, seed=7)
    server_stack = TcpStack(server_host, seed=1007)
    sessions: list = []
    TcplsServer(server_ctx, server_stack, port=443, on_session=sessions.append)
    client = TcplsSession(client_ctx, client_stack)

    client.connect("10.0.0.2")
    client.handshake()
    net.sim.run(until=1.0)
    if not client.handshake_complete:
        raise RuntimeError("smoke scenario failed to complete the handshake")

    received: dict = {}
    server_session = sessions[0]
    server_session.on_stream_data = (
        lambda sid, data: received.setdefault(sid, bytearray()).extend(data)
    )
    first = client.stream_new()
    second = client.stream_new()
    client.streams_attach()
    client.send(first, b"determinism smoke " * 300)
    client.send(second, bytes(range(256)) * 40)
    net.sim.run(until=3.0)
    if bytes(received.get(first, b"")) != b"determinism smoke " * 300:
        raise RuntimeError("smoke scenario lost stream data")
    client.close()
    net.sim.run(until=4.0)
