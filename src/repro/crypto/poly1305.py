"""Poly1305 one-time authenticator (RFC 8439 section 2.5): the tag
comparison.  The tag itself is ``repro.crypto.poly1305_fast``'s; the
RFC's block-at-a-time loop is the reference the tests hold it to,
bit-for-bit (``tests/references.py``).
"""

from __future__ import annotations

import hmac


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Compare two byte strings without early exit on mismatch.

    Delegates to ``hmac.compare_digest`` (constant-time in C) instead of
    the original per-byte Python loop; that loop survives only as a
    documented reference in ``tests/crypto/test_fastpath_crypto.py``.
    """
    if len(a) != len(b):
        return False
    return hmac.compare_digest(a, b)
