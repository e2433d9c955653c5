"""Microbenchmarks for the cryptographic substrate.

Not a paper artefact — engineering due diligence: the simulator pushes
megabytes through these primitives, so their throughput bounds every
experiment's wall-clock time.  Nothing here asserts a speed.
"""

from repro.crypto.aead import ChaCha20Poly1305
from repro.crypto.ed25519 import Ed25519PrivateKey, _key_powers, ed25519_verify
from repro.crypto.keyschedule import KeySchedule
from repro.crypto.x25519 import X25519PrivateKey

RECORD = b"\xab" * 16000  # one max-size TCPLS record payload


def test_aead_seal_16k_record(benchmark):
    aead = ChaCha20Poly1305(b"\x01" * 32)
    out = benchmark(aead.encrypt, b"\x00" * 12, RECORD, b"header")
    assert len(out) == len(RECORD) + 16


def test_aead_open_16k_record(benchmark):
    aead = ChaCha20Poly1305(b"\x01" * 32)
    sealed = aead.encrypt(b"\x00" * 12, RECORD, b"header")
    out = benchmark(aead.decrypt, b"\x00" * 12, sealed, b"header")
    assert out == RECORD


def test_x25519_exchange(benchmark):
    alice = X25519PrivateKey(b"\x11" * 32)
    bob = X25519PrivateKey(b"\x22" * 32)
    shared = benchmark(alice.exchange, bob.public_bytes)
    assert shared == bob.exchange(alice.public_bytes)


def test_ed25519_sign_verify(benchmark):
    """Sign, then verify under a key seen before (its table is kept): a
    client re-dialling one server.  The first-contact price is the row
    below; read the two together."""
    key = Ed25519PrivateKey(b"\x33" * 32)

    def sign_and_verify():
        signature = key.sign(b"transcript hash stand-in")
        return ed25519_verify(key.public_bytes, b"transcript hash stand-in", signature)

    assert benchmark(sign_and_verify)


def test_ed25519_verify_cold_key(benchmark):
    """Verify under a key never seen: the per-key table is dropped before
    every round, so this row cannot become the cached number."""
    key = Ed25519PrivateKey(b"\x33" * 32)
    signature = key.sign(b"transcript hash stand-in")

    def forget():
        _key_powers.cache_clear()
        return (key.public_bytes, b"transcript hash stand-in", signature), {}

    assert benchmark.pedantic(ed25519_verify, setup=forget, rounds=50)
    assert _key_powers.cache_info().hits == 0  # no round found a table


def test_key_schedule_full_ladder(benchmark):
    def ladder():
        ks = KeySchedule()
        ks.update_transcript(b"ch")
        ks.update_transcript(b"sh")
        ks.input_ecdhe(b"\x44" * 32)
        ks.update_transcript(b"ee..fin")
        ks.derive_master()
        ks.update_transcript(b"cfin")
        ks.derive_resumption()
        return ks.export("tcpls context", b"\x00" * 21, 32)

    assert len(benchmark(ladder)) == 32
