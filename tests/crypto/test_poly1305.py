"""RFC 8439 test vectors for Poly1305."""

from repro.crypto.poly1305 import constant_time_equal
from tests.references import poly1305_key_gen, poly1305_mac


def test_mac_rfc8439_2_5_2():
    key = bytes.fromhex(
        "85d6be7857556d337f4452fe42d506a8"
        "0103808afb0db2fd4abff6af4149f51b"
    )
    message = b"Cryptographic Forum Research Group"
    assert poly1305_mac(key, message) == bytes.fromhex(
        "a8061dc1305136c6c22b8baf0c0127a9"
    )


def test_key_gen_rfc8439_2_6_2():
    key = bytes(range(0x80, 0xA0))
    nonce = bytes.fromhex("000000000001020304050607")
    assert poly1305_key_gen(key, nonce) == bytes.fromhex(
        "8ad5a08b905f81cc815040274ab29471"
        "a833b637e3fd0da508dbb8e2fdd1a646"
    )


def test_empty_message():
    tag = poly1305_mac(b"\x01" * 32, b"")
    assert len(tag) == 16


def test_constant_time_equal():
    assert constant_time_equal(b"abc", b"abc")
    assert not constant_time_equal(b"abc", b"abd")
    assert not constant_time_equal(b"abc", b"abcd")
    assert constant_time_equal(b"", b"")
