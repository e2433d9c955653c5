"""Spot checks of the structurally interesting Table 1 cells.

T1 (``tests/paper/test_table1_features.py``) asserts the full matrix;
these cells run one at a time so a regression names its feature and
protocol directly.
"""

import pytest

from tests.paper.features import PAPER_TABLE, PROTOCOLS, evaluate_feature, expected_bool


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_transport_reliability_all_protocols(protocol):
    assert evaluate_feature("transport_reliability", protocol) == expected_bool(
        PAPER_TABLE["transport_reliability"][protocol]
    )


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_confidentiality_and_auth(protocol):
    assert evaluate_feature("message_conf_auth", protocol) == expected_bool(
        PAPER_TABLE["message_conf_auth"][protocol]
    )


@pytest.mark.parametrize("protocol", ["tcp", "tls_tcp", "tcpls"])
def test_connection_reliability(protocol):
    assert evaluate_feature("connection_reliability", protocol) == expected_bool(
        PAPER_TABLE["connection_reliability"][protocol]
    )


@pytest.mark.parametrize("protocol", ["tcp", "quic", "tcpls"])
def test_zero_rtt(protocol):
    assert evaluate_feature("zero_rtt", protocol) == expected_bool(
        PAPER_TABLE["zero_rtt"][protocol]
    )


@pytest.mark.parametrize("protocol", ["tls_tcp", "quic", "tcpls"])
def test_session_resumption(protocol):
    assert evaluate_feature("session_resumption", protocol) == expected_bool(
        PAPER_TABLE["session_resumption"][protocol]
    )


@pytest.mark.parametrize("protocol", ["quic", "tcpls"])
def test_connection_migration(protocol):
    assert evaluate_feature("connection_migration", protocol)


def test_happy_eyeballs_only_tcpls():
    assert evaluate_feature("happy_eyeballs", "tcpls")
    assert not evaluate_feature("happy_eyeballs", "quic")


def test_explicit_multipath_only_tcpls():
    assert evaluate_feature("explicit_multipath", "tcpls")


def test_pluginization_only_tcpls():
    assert evaluate_feature("pluginization", "tcpls")
    assert not evaluate_feature("pluginization", "quic")
