"""Random bytes from a seeded ``random.Random``, reproducibly."""

from __future__ import annotations

import random


def random_bytes(rng: random.Random, count: int) -> bytes:
    """``bytes(rng.randrange(256) for _ in range(count))``: the same bytes
    and the same generator state after, in well under half the time.  On
    CPython 3.9-3.12 ``randrange(256)`` is ``getrandbits(9)`` redrawn
    while it is 256 or more, which is this loop."""
    draw = rng.getrandbits
    out = bytearray()
    while len(out) < count:
        value = draw(9)
        if value < 256:
            out.append(value)
    return bytes(out)
