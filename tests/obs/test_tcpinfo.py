"""TCP_INFO-style snapshots read real transport state, pull-only."""

from repro.netsim.scenarios import simple_duplex_network
from repro.obs.tcpinfo import sample_tcp
from repro.tcp.stack import TcpStack


def _established_transfer(nbytes=200_000):
    net, client_host, server_host, _link = simple_duplex_network()
    client_tcp = TcpStack(client_host, seed=1)
    server_tcp = TcpStack(server_host, seed=1001)
    received = bytearray()
    server_tcp.listen(
        443, lambda conn: setattr(conn, "on_data", received.extend)
    )
    conn = client_tcp.connect("10.0.0.2", 443)
    net.sim.run(until=0.2)
    conn.send(b"\xab" * nbytes)
    net.sim.run(until=5.0)
    assert len(received) == nbytes
    return net, conn


def test_sample_reflects_a_real_transfer():
    _net, conn = _established_transfer()
    info = sample_tcp(conn)
    assert info["state"] == "ESTABLISHED"
    assert info["congestion"] == "reno"
    assert info["cwnd"] > 0
    assert info["mss"] > 0
    assert info["srtt"] > 0
    assert info["rto"] >= info["srtt"]
    assert info["bytes_sent"] >= 200_000
    assert info["delivered_bytes"] >= 200_000
    assert info["delivery_rate_bps"] > 0
    assert info["flight"] == 0  # everything ACKed by now
    assert info["segments_sent"] > info["retransmissions"]


def test_to_dict_is_json_scalar_only():
    _net, conn = _established_transfer(nbytes=5_000)
    row = sample_tcp(conn)
    assert all(isinstance(v, (int, float, str)) for v in row.values())


def test_delivered_bytes_counts_acked_payload_only():
    net, conn = _established_transfer(nbytes=50_000)
    # Delivered counts ACKed stream bytes: at least the payload, and not
    # wildly more (SYN/FIN and retransmits don't inflate it per-byte).
    assert 50_000 <= conn.delivered_bytes <= conn.stats["bytes_sent"]
