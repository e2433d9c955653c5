"""The lane-packed ChaCha20 pass over several nonces, against the RFC
8439 block function and the numpy pass.

One lane is one (nonce, block) pair, so a keystream window of a few
small records is one pass; a single nonce is the one-element case that
every record outside a window takes.  Counters start anywhere, including
just below 2^32, where the block counter wraps.  CI's perf-smoke job
fails if any of these is skipped.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.chacha20 import chacha20_keystream_lanes
from tests.references import chacha20_block
from repro.crypto.chacha20_fast import chacha20_keystream_multi

counters = st.one_of(
    st.integers(0, 64),
    st.integers(2**32 - 48, 2**32 - 1),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=80)
@given(
    key=st.binary(min_size=32, max_size=32),
    nonces=st.lists(st.binary(min_size=12, max_size=12), min_size=1, max_size=8),
    counter=counters,
    n_blocks=st.integers(1, 40),
)
def test_multi_nonce_lane_pass_is_the_block_function(key, nonces, counter, n_blocks):
    stream = chacha20_keystream_lanes(key, counter, b"".join(nonces), n_blocks)
    assert stream == b"".join(
        chacha20_block(key, (counter + block) & 0xFFFFFFFF, nonce)
        for nonce in nonces
        for block in range(n_blocks)
    )
    assert stream == chacha20_keystream_multi(key, nonces, counter, n_blocks)


def test_empty_passes():
    key = bytes(range(32))
    assert chacha20_keystream_lanes(key, 0, b"", 4) == b""
    assert chacha20_keystream_lanes(key, 0, bytes(24), 0) == b""


def test_one_nonce_is_the_one_element_case():
    key, nonces = bytes(range(32)), [bytes([i]) * 12 for i in range(4)]
    together = chacha20_keystream_lanes(key, 7, b"".join(nonces), 3)
    assert together == b"".join(chacha20_keystream_lanes(key, 7, n, 3) for n in nonces)
