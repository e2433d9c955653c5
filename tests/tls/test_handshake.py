"""Full TLS 1.3 handshakes through in-memory pipes."""

import pytest

from repro.tls import alerts
from repro.tls.alerts import TlsAlertError
from repro.tls.certificates import CertificateAuthority, TrustStore
from repro.tls.messages import EXT_TCPLS
from repro.tls.session import SessionTicketStore

from tests.crypto.test_x25519 import LOW_ORDER_U
from tests.tls.tls_pipe import make_pair


def test_full_handshake_establishes_both_sides(pair):
    pair.client.start_handshake()
    pair.pump()
    assert pair.client.is_established
    assert pair.server.is_established
    assert not pair.client.used_psk


def test_application_data_round_trip(pair):
    received = {"client": bytearray(), "server": bytearray()}
    pair.client.on_application_data = received["client"].extend
    pair.server.on_application_data = received["server"].extend
    pair.client.start_handshake()
    pair.pump()
    pair.client.send(b"hello from client")
    pair.server.send(b"hello from server")
    pair.pump()
    assert bytes(received["server"]) == b"hello from client"
    assert bytes(received["client"]) == b"hello from server"


def test_large_application_data_spans_records(pair):
    received = bytearray()
    pair.server.on_application_data = received.extend
    pair.client.start_handshake()
    pair.pump()
    blob = bytes(range(256)) * 300  # ~76 KB, > 4 records
    pair.client.send(blob)
    pair.pump()
    assert bytes(received) == blob


def test_server_certificate_is_exposed_and_verified(pair):
    pair.client.start_handshake()
    pair.pump()
    assert pair.client.peer_certificate.subject == "server.example"


def test_untrusted_ca_rejected(server_identity):
    other_ca = CertificateAuthority("Evil CA", seed=b"evil")
    store = TrustStore()
    store.add_authority(other_ca)
    pipe = make_pair(server_identity, store)
    pipe.client.start_handshake()
    with pytest.raises(TlsAlertError):
        pipe.pump()
    assert not pipe.client.is_established


def test_wrong_server_name_rejected(ca, trust_store):
    identity = ca.issue_identity("other.example")
    pipe = make_pair(identity, trust_store)
    pipe.client.start_handshake()
    with pytest.raises(TlsAlertError):
        pipe.pump()


def test_tampered_record_raises_bad_record_mac(pair):
    pair.client.start_handshake()
    pair.pump()
    # Tamper with an application record from client to server.
    out = bytearray()
    pair.client._write = out.extend
    pair.client.send(b"sensitive")
    tampered = bytearray(out)
    tampered[-1] ^= 0x01
    with pytest.raises(TlsAlertError):
        pair.server.receive(bytes(tampered))


def test_exporter_matches_between_peers(pair):
    pair.client.start_handshake()
    pair.pump()
    c = pair.client.export("tcpls stream", b"\x00\x01", 32)
    s = pair.server.export("tcpls stream", b"\x00\x01", 32)
    assert c == s
    assert pair.client.export("tcpls stream", b"\x00\x02", 32) != c


def test_extra_extensions_flow_both_ways(server_identity, trust_store):
    pipe = make_pair(
        server_identity,
        trust_store,
        server_extra_ee=[(EXT_TCPLS, b"server-params")],
        client_extra_ch=[(EXT_TCPLS, b"client-params")],
    )
    pipe.client.start_handshake()
    pipe.pump()
    from repro.tls.messages import get_extension

    assert get_extension(pipe.server.peer_client_hello_extensions, EXT_TCPLS) == b"client-params"
    assert get_extension(pipe.client.peer_encrypted_extensions, EXT_TCPLS) == b"server-params"


def test_half_rtt_server_data_arrives_with_first_flight(pair):
    """The server may send data right after its Finished (0.5-RTT)."""
    received = bytearray()
    pair.client.on_application_data = received.extend

    sent = {"done": False}

    def server_on_ch_complete():
        # Trick: hook into encoder switch by sending as soon as the
        # server believes the handshake will complete.
        pass

    pair.client.start_handshake()
    # One pump round: CH reaches server; server responds with its flight
    # plus immediate data before seeing the client's Finished.
    chunk = bytes(pair.to_server)
    pair.to_server.clear()
    pair.server.receive(chunk)
    pair.server.send(b"early server push")  # 0.5-RTT data
    pair.pump()
    assert bytes(received) == b"early server push"


def test_close_notify_signals_peer(pair):
    closed = []
    pair.server.on_close = lambda: closed.append(True)
    pair.client.start_handshake()
    pair.pump()
    pair.client.send_close_notify()
    pair.pump()
    assert closed == [True]
    assert pair.server.peer_closed


def test_send_before_handshake_rejected(pair):
    with pytest.raises(RuntimeError):
        pair.client.send(b"too early")


def test_handshake_transcript_divergence_detected(pair):
    """Corrupting a handshake record must abort the handshake."""
    pair.client.start_handshake()
    raw = bytearray(pair.to_server)
    pair.to_server.clear()
    raw[20] ^= 0xFF  # corrupt inside the ClientHello body
    try:
        pair.server.receive(bytes(raw))
        pair.pump()
    except Exception:
        pass
    assert not pair.server.is_established or not pair.client.is_established


# ----------------------------------------------------------------------
# Low-order key shares (RFC 8446 section 7.4.2, RFC 7748 section 6.1):
# the all-zero (EC)DHE output is the peer's protocol violation, and has
# to leave ``receive`` as one, not as a bare ValueError.
# ----------------------------------------------------------------------

def _swap_share(buffer: bytearray, share: bytes, u: int) -> None:
    assert buffer.count(share) == 1
    buffer[:] = bytes(buffer).replace(share, u.to_bytes(32, "little"))


@pytest.mark.parametrize("u", LOW_ORDER_U)
def test_low_order_client_key_share_is_illegal_parameter(pair, u):
    pair.client.start_handshake()
    _swap_share(pair.to_server, pair.client._ecdh.public_bytes, u)
    with pytest.raises(TlsAlertError) as caught:
        pair.server.receive(bytes(pair.to_server))
    assert caught.value.description == alerts.ILLEGAL_PARAMETER
    assert not pair.server.is_established


@pytest.mark.parametrize("u", LOW_ORDER_U)
def test_low_order_server_key_share_is_illegal_parameter(pair, u):
    pair.client.start_handshake()
    pair.server.receive(bytes(pair.to_server))
    _swap_share(pair.to_client, pair.server._ecdh.public_bytes, u)
    with pytest.raises(TlsAlertError) as caught:
        pair.client.receive(bytes(pair.to_client))
    assert caught.value.description == alerts.ILLEGAL_PARAMETER
    assert not pair.client.is_established
