"""A4 — Pluginized congestion control (section 3 item iii / 4.3).

"The ability for the server to send eBPF bytecode over the secure
channel to upgrade the client's TCP congestion control scheme."  The
test ships a plugin mid-connection and shows the congestion window
dynamics switching regimes; it also measures verification and
per-event interpretation cost.
"""

import pytest

from repro.core.events import Event
from repro.core.plugins.assembler import assemble
from repro.core.plugins.library import (
    AIMD_CONSERVATIVE_ASM,
    aimd_conservative_program,
    fixed_window_program,
)
from repro.core.plugins.runtime import BytecodeCongestionControl
from repro.core.plugins.vm import BytecodeProgram
from repro.core.session import TcplsContext, TcplsServer, TcplsSession
from repro.netsim.scenarios import simple_duplex_network
from repro.tcp.stack import TcpStack
from repro.tls.certificates import CertificateAuthority, TrustStore

from tests.helpers import report


def _world():
    net, client_host, server_host, link = simple_duplex_network(
        rate_bps=30e6, delay=0.01
    )
    ca = CertificateAuthority("Bench Root", seed=b"a4")
    identity = ca.issue_identity("server.example", seed=b"a4srv")
    trust = TrustStore()
    trust.add_authority(ca)
    sessions = []
    TcplsServer(
        TcplsContext(identity=identity, seed=2),
        TcpStack(server_host, seed=3),
        on_session=sessions.append,
    )
    client = TcplsSession(
        TcplsContext(trust_store=trust, server_name="server.example", seed=4),
        TcpStack(client_host, seed=5),
    )
    return net, client, sessions


def test_a4_plugin_switches_cwnd_regime():
    net, client, sessions = _world()
    client.connect("10.0.0.2")
    client.handshake()
    net.sim.run(until=1.0)
    received = bytearray()
    sessions[0].on_stream_data = lambda sid, d: received.extend(d)
    stream = client.stream_new()
    client.streams_attach()
    client.send(stream, b"\xa4" * 4_000_000)

    cwnd_trace = []

    def sample():
        tcp = client.connections[0].tcp
        cwnd_trace.append((net.sim.now, tcp.cc.name, tcp.cc.window()))
        net.sim.schedule(0.05, sample)

    net.sim.schedule(0.05, sample)
    installs = []
    client.on(Event.PLUGIN_INSTALLED, lambda **kw: installs.append(kw))
    # Mid-transfer, the server upgrades the client's CC to the
    # fixed-window plugin (a drastic, visible regime change).
    net.sim.schedule(
        1.0,
        lambda: sessions[0].send_plugin("cc", fixed_window_program().to_bytes()),
    )
    net.sim.run(until=4.0)
    assert installs and installs[0]["ok"]
    before = [w for t, name, w in cwnd_trace if name == "reno"]
    after = [w for t, name, w in cwnd_trace if name == "plugin"]
    assert before and after
    mss = client.connections[0].tcp.effective_mss()
    # After installation the plugin pins cwnd to exactly 4 MSS.
    assert set(after[1:]) == {4 * mss}
    assert max(before) > 8 * mss  # Reno had grown well past that

    switch_time = next(t for t, name, _w in cwnd_trace if name == "plugin")
    report(
        "A4 — Congestion-control plugin shipped over the secure channel",
        [
            f"before (reno)  : cwnd ranged {min(before)}..{max(before)} bytes",
            f"plugin install : t={switch_time:.2f}s (bytecode verified on arrival)",
            f"after (plugin) : cwnd pinned at {4 * mss} bytes (4 x MSS)",
            "",
            "cwnd trace (t, cc, cwnd):",
            *[
                f"  {t:5.2f}  {name:>6}  {w:>8}"
                for t, name, w in cwnd_trace[:: max(len(cwnd_trace) // 20, 1)]
            ],
        ],
    )


def test_a4_verifier_and_interpreter_cost():
    """Verification + a window of ACK events through the VM."""
    bytecode = aimd_conservative_program().to_bytes()
    program = BytecodeProgram.from_bytes(bytecode)  # includes verify()
    cc = BytecodeCongestionControl(1400, program)
    for i in range(100):
        cc.on_ack(1400, 0.01, i * 0.01)
    cc.on_loss(int(cc.cwnd), 1.0)
    assert cc.window() >= 2 * 1400


def test_a4_malicious_plugins_rejected():
    """The verifier refuses unsafe bytecode before it ever runs."""
    from repro.core.plugins.vm import Instruction, OP_JMP, OP_LD, OP_RET, VerificationError

    attacks = {
        "backward jump (infinite loop)": [
            Instruction(OP_JMP, 0, 0, -1), Instruction(OP_RET, 0, 0, 0)
        ],
        "out-of-bounds memory read": [
            Instruction(OP_LD, 0, 0, 99), Instruction(OP_RET, 0, 0, 0)
        ],
        "missing terminator": [Instruction(OP_LD, 0, 0, 1)],
    }
    for program in attacks.values():
        with pytest.raises(VerificationError):
            BytecodeProgram(list(program))
