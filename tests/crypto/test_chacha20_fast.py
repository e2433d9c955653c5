"""The vectorized ChaCha20 keystream must be bit-identical to the RFC 8439
block function, one nonce at a time and for several nonces at once."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.chacha20_fast import chacha20_keystream_multi, xor_keystream
from tests.references import chacha20_block, chacha20_encrypt


def _keystream(key, counter, nonce, n_blocks):
    """Blocks of one (key, nonce) stream from the vectorized generator."""
    return chacha20_keystream_multi(key, [nonce], counter, n_blocks)


def _scalar_keystream(key, counter, nonce, n_blocks):
    return b"".join(
        chacha20_block(key, (counter + i) & 0xFFFFFFFF, nonce) for i in range(n_blocks)
    )


def test_keystream_matches_scalar_small():
    key = bytes(range(32))
    nonce = bytes.fromhex("000000090000004a00000000")
    assert _keystream(key, 1, nonce, 4) == _scalar_keystream(key, 1, nonce, 4)


def test_keystream_matches_scalar_many_blocks():
    key = b"\x5a" * 32
    nonce = b"\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c"
    assert _keystream(key, 0, nonce, 300) == _scalar_keystream(key, 0, nonce, 300)


def test_keystream_counter_wrap():
    key = b"\x11" * 32
    nonces = [b"\x00" * 12, b"\x07" * 12]
    start = 2**32 - 2
    assert chacha20_keystream_multi(key, nonces, start, 4) == b"".join(
        _scalar_keystream(key, start, nonce, 4) for nonce in nonces
    )


def test_encrypt_large_input_uses_identical_stream():
    key = b"\x42" * 32
    nonce = b"\x07" * 12
    plaintext = bytes(range(256)) * 33  # 8448 bytes, odd block tail handling
    n_blocks = (len(plaintext) + 63) // 64
    fast = xor_keystream(plaintext, _keystream(key, 3, nonce, n_blocks))
    assert fast == chacha20_encrypt(key, 3, nonce, plaintext)


def test_zero_blocks():
    assert _keystream(b"\x00" * 32, 0, b"\x00" * 12, 0) == b""
    assert chacha20_keystream_multi(b"\x00" * 32, [], 0, 4) == b""


@settings(max_examples=25, deadline=None)
@given(
    st.binary(min_size=32, max_size=32),
    st.lists(st.binary(min_size=12, max_size=12), min_size=1, max_size=4),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=20),
)
def test_property_keystream_equivalence(key, nonces, counter, n_blocks):
    assert chacha20_keystream_multi(key, nonces, counter, n_blocks) == b"".join(
        _scalar_keystream(key, counter, nonce, n_blocks) for nonce in nonces
    )


def test_throughput_sanity():
    # Not a benchmark, just a guard that the vectorized pass is engaged:
    # the keystream for 1 MiB must come well under a second.
    import time

    start = time.perf_counter()
    _keystream(b"\x01" * 32, 0, b"\x02" * 12, (1 << 20) // 64)
    assert time.perf_counter() - start < 2.0
