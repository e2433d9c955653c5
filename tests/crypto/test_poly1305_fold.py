"""Poly1305's two-block fold against the RFC 8439 loop.

``poly1305_fast._fold`` computes every tag under ``MIN_BATCH_BYTES``
and the tail of every longer one: the message read as one integer, two
16-byte blocks per reduction with ``r²``, a partial block's 0x01 byte
set in that integer.  ``tests.references.poly1305_mac`` — one block,
one ``% p`` — is the reference.  The fold is
pure-int arithmetic, so it is exact or wrong, and every length from 0
to 2 KiB (every block parity, every partial tail, the group edges at
512, 1024, 1536 and 2048 bytes, and the dispatch edge) is checked, as
are random keys and lengths across the 1 KiB groups beyond.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import poly1305_fast as _poly_fast
from tests.references import poly1305_mac
from repro.crypto.poly1305_fast import MIN_BATCH_BYTES, poly1305_mac_fast

_KEY = bytes(range(7, 39))
_MESSAGE = bytes((i * 151 + 7) & 0xFF for i in range(2048))


def _fold_tag(key, message):
    """``poly1305_mac_fast`` with its dispatch edge out of reach (it reads
    ``MIN_BATCH_BYTES`` at call time): the fold alone tags the message."""
    with mock.patch.object(_poly_fast, "MIN_BATCH_BYTES", 1 << 62):
        return poly1305_mac_fast(key, message)


def test_fold_equals_the_rfc_loop_at_every_length_to_2_kib():
    for size in range(len(_MESSAGE) + 1):
        message = _MESSAGE[:size]
        want = poly1305_mac(_KEY, message)
        assert _fold_tag(_KEY, message) == want, size
        assert poly1305_mac_fast(_KEY, message) == want, size


def test_fold_at_the_largest_values():
    """All-0xFF blocks under the largest clamped ``r`` and an all-0xFF
    ``s``, at the dispatch edge and every group edge to 2 KiB."""
    key = _poly_fast._R_CLAMP.to_bytes(16, "little") + b"\xff" * 16
    for edge in (16, 32, 512, 1024, MIN_BATCH_BYTES, 2048):
        for size in (edge - 17, edge - 16, edge - 1, edge, edge + 1, edge + 16):
            message = b"\xff" * size
            assert _fold_tag(key, message) == poly1305_mac(key, message), size
            assert poly1305_mac_fast(key, message) == poly1305_mac(key, message), size


def test_the_dispatch_edge_is_a_whole_number_of_groups():
    assert MIN_BATCH_BYTES % _poly_fast._GROUP_BYTES == 0


_GROUP_EDGE_SIZES = st.sampled_from([0, 1024, 2048, 3072, 4096]).flatmap(
    lambda edge: st.integers(max(edge - 48, 0), edge + 48)
)


@settings(max_examples=200, deadline=None)
@given(
    key=st.binary(min_size=32, max_size=32),
    size=st.one_of(st.integers(0, 5000), _GROUP_EDGE_SIZES),
    seed=st.integers(0, 255),
)
def test_fold_and_dispatch_equal_the_rfc_loop(key, size, seed):
    message = bytes((seed + i * 73) & 0xFF for i in range(size))
    want = poly1305_mac(key, message)
    assert poly1305_mac_fast(key, message) == want
    assert _fold_tag(key, message) == want
