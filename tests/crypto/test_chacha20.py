"""RFC 8439 test vectors for ChaCha20 and its block function."""

from tests.references import chacha20_block, chacha20_encrypt


KEY = bytes(range(32))
NONCE = bytes.fromhex("000000090000004a00000000")


def test_block_function_rfc8439_2_3_2():
    block = chacha20_block(KEY, 1, NONCE)
    expected = bytes.fromhex(
        "10f1e7e4d13b5915500fdd1fa32071c4"
        "c7d1f4c733c068030422aa9ac3d46c4e"
        "d2826446079faa0914c2d705d98b02a2"
        "b5129cd1de164eb9cbd083e8a2503c4e"
    )
    assert block == expected


def test_encrypt_rfc8439_2_4_2():
    key = bytes(range(32))
    nonce = bytes.fromhex("000000000000004a00000000")
    plaintext = (
        b"Ladies and Gentlemen of the class of '99: If I could offer you "
        b"only one tip for the future, sunscreen would be it."
    )
    ciphertext = chacha20_encrypt(key, 1, nonce, plaintext)
    expected = bytes.fromhex(
        "6e2e359a2568f98041ba0728dd0d6981"
        "e97e7aec1d4360c20a27afccfd9fae0b"
        "f91b65c5524733ab8f593dabcd62b357"
        "1639d624e65152ab8f530c359f0861d8"
        "07ca0dbf500d6a6156a38e088a22b65e"
        "52bc514d16ccf806818ce91ab7793736"
        "5af90bbf74a35be6b40b8eedf2785e42"
        "874d"
    )
    assert ciphertext == expected


def test_encrypt_roundtrip():
    key = b"\x42" * 32
    nonce = b"\x07" * 12
    plaintext = b"the quick brown fox" * 40
    assert chacha20_encrypt(key, 5, nonce, chacha20_encrypt(key, 5, nonce, plaintext)) == plaintext


def test_empty_plaintext():
    assert chacha20_encrypt(b"\x00" * 32, 0, b"\x00" * 12, b"") == b""


def test_rejects_bad_key_length():
    import pytest

    with pytest.raises(ValueError):
        chacha20_block(b"short", 0, b"\x00" * 12)
    with pytest.raises(ValueError):
        chacha20_block(b"\x00" * 32, 0, b"\x00" * 8)
