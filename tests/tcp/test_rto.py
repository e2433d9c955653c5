"""RFC 6298 estimator behaviour."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from helpers import tcp_pair

from repro.tcp.rto import RtoEstimator


def test_first_sample_initializes_srtt_and_var():
    rto = RtoEstimator()
    rto.on_measurement(0.1)
    assert rto.srtt == pytest.approx(0.1)
    assert rto.rttvar == pytest.approx(0.05)
    assert rto.rto == pytest.approx(max(0.1 + 4 * 0.05, 0.2))


def test_smoothing_converges_to_stable_rtt():
    rto = RtoEstimator()
    for _ in range(100):
        rto.on_measurement(0.05)
    assert rto.srtt == pytest.approx(0.05, rel=0.01)
    assert rto.rto == pytest.approx(0.2)  # floored at min_rto


def test_variance_grows_with_jitter():
    stable = RtoEstimator()
    jittery = RtoEstimator()
    for i in range(50):
        stable.on_measurement(0.1)
        jittery.on_measurement(0.05 if i % 2 else 0.15)
    assert jittery.rttvar > stable.rttvar
    assert jittery.rto >= stable.rto


def test_backoff_doubles_and_caps():
    rto = RtoEstimator(initial_rto=1.0, max_rto=8.0)
    rto.on_timeout()
    assert rto.rto == 2.0
    rto.on_timeout()
    rto.on_timeout()
    assert rto.rto == 8.0
    rto.on_timeout()
    assert rto.rto == 8.0  # capped


def test_measurement_after_backoff_recomputes():
    rto = RtoEstimator()
    rto.on_measurement(0.05)
    for _ in range(5):
        rto.on_timeout()
    assert rto.rto > 1.0
    rto.on_measurement(0.05)
    assert rto.rto < 0.5


def test_negative_sample_rejected():
    with pytest.raises(ValueError):
        RtoEstimator().on_measurement(-0.1)


def test_sample_counter():
    rto = RtoEstimator()
    for _ in range(3):
        rto.on_measurement(0.1)
    assert rto.samples == 3


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP (23): an ACK that advances snd_una feeds the estimator "
    "twice, its RFC 7323 timestamp echo and its Karn sample "
    "(TcpConnection._predicted; _handle_ack and _handle_new_ack), so each ACK "
    "weighs double in RFC 6298's alpha/beta and RTTVAR decays too fast",
)
def test_one_advancing_ack_feeds_one_rtt_sample():
    net, client_tcp, server_tcp, link = tcp_pair()
    server_tcp.listen(443, lambda conn: None)
    client = client_tcp.connect("10.0.0.2", 443)
    net.sim.run(until=0.5)
    advancing = []
    on_segment = client.on_segment

    def counted(segment):
        before = client.snd_una
        on_segment(segment)
        if client.snd_una != before:
            advancing.append(segment.ack)
    client.on_segment = counted
    samples = client.rto.samples
    client.send(b"x" * 40_000)
    net.sim.run(until=2.0)
    assert advancing and client.rto.samples - samples == len(advancing)
