"""``random_bytes`` is ``bytes(rng.randrange(256) for _ in range(n))``:
the same bytes and the same generator state after, so every seeded
world (handshake randoms, ephemeral keys, cookies, connection ids)
draws exactly what it drew before."""

import random

from repro.utils.rng import random_bytes


def test_random_bytes_matches_randrange_and_leaves_the_same_state():
    for seed in range(200):
        for count in (0, 1, 4, 8, 12, 32, 100):
            ours, theirs = random.Random(seed), random.Random(seed)
            expected = bytes(theirs.randrange(256) for _ in range(count))
            assert random_bytes(ours, count) == expected, (seed, count)
            assert ours.getrandbits(32) == theirs.getrandbits(32), (seed, count)
