"""Datapath throughput benchmarks: flagged fast paths vs their twins.

Three measurements, sharing one consolidated ``BENCH_perf.json``:

1. **Bulk transfer** — ≥4 MiB of application data through TLS records
   over the two-path topology, wall-clock timed with the flagged fast
   paths on and again inside ``fastpath.scalar_baseline()``.  Reported,
   not gated: the flags left are ``crypto.batch`` and ``netsim.vectorq``,
   so the ratio says what those two buy on a bulk transfer, and the
   bulk path itself is priced by ``python -m bench`` (``bulk_2path``).
2. **Record-size sweep** — AEAD seal+open throughput across the record
   sizes the TLS layer produces, fast vs scalar.
3. **Crypto micro** — Poly1305 and ChaCha20 keystream throughput of the
   batched implementations against their scalar references.

Each leg reports the *minimum* of its rounds: the minimum estimates the
true cost of the code — scheduler noise only ever adds time.  Set
``REPRO_PERF_QUICK=1`` (the CI perf-smoke job does) for a reduced
transfer size and a single round per leg.
"""

from __future__ import annotations

import os
import time

from repro import fastpath
from repro.core.session import TcplsContext, TcplsServer, TcplsSession
from repro.crypto import aead as _aead
from repro.crypto.aead import ChaCha20Poly1305
from repro.crypto.keyschedule import TrafficKeys
from repro.crypto.poly1305 import poly1305_mac
from repro.crypto.poly1305_fast import poly1305_mac_fast
from repro.netsim.scenarios import dual_path_network
from repro.obs import write_metrics_json
from repro.tcp.stack import TcpStack
from repro.tls.certificates import CertificateAuthority, TrustStore
from repro.tls.record import CipherState, record_header, ContentType

from conftest import METRICS_DIR, report

QUICK = os.environ.get("REPRO_PERF_QUICK", "") not in ("", "0")

BULK_BYTES = (1 if QUICK else 4) * 1024 * 1024
ROUNDS = 1 if QUICK else 3
LINK_RATE_BPS = 30e6

_PERF_JSON = os.path.join(METRICS_DIR, "BENCH_perf.json")


def _merge_perf_section(section: str, payload: dict) -> None:
    """Fold one benchmark's results into the consolidated BENCH_perf.json."""
    import json

    document = {}
    if os.path.exists(_PERF_JSON):
        with open(_PERF_JSON) as handle:
            document = json.load(handle)
    document.setdefault("title", "datapath fast-path performance")
    document["quick_mode"] = QUICK
    document["fastpath_flags"] = fastpath.all_enabled()
    document[section] = payload
    write_metrics_json(_PERF_JSON, document)
    print(f"[metrics] {_PERF_JSON} <- {section}")


def _min_of(rounds: int, fn):
    return min(fn() for _ in range(rounds))


# ----------------------------------------------------------------------
# 1. Bulk transfer over the two-path topology
# ----------------------------------------------------------------------

def _run_bulk_transfer(size: int = BULK_BYTES) -> float:
    """One 2-path TCPLS bulk transfer; returns the wall-clock seconds of
    the data phase (handshake excluded — both legs pay it equally)."""
    topo = dual_path_network(rate_bps=LINK_RATE_BPS, v4_delay=0.010, v6_delay=0.025)
    ca = CertificateAuthority("Bench Root", seed=b"pf")
    identity = ca.issue_identity("server.example", seed=b"pfsrv")
    trust = TrustStore()
    trust.add_authority(ca)
    client_stack = TcpStack(topo.client, seed=21)
    server_stack = TcpStack(topo.server, seed=22)
    sessions = []
    TcplsServer(
        TcplsContext(identity=identity, seed=23),
        server_stack,
        on_session=sessions.append,
    )
    client = TcplsSession(
        TcplsContext(trust_store=trust, server_name="server.example", seed=24),
        client_stack,
    )
    client.connect(topo.server_v4)
    client.handshake()
    topo.sim.run(until=0.5)
    server = sessions[0]
    received = bytearray()
    client.on_stream_data = lambda _sid, data: received.extend(data)
    stream = server.stream_new()
    server.streams_attach()
    server.send(stream, b"\xab" * size)
    start = time.perf_counter()
    topo.sim.run(until=size * 8 / LINK_RATE_BPS * 3 + 5)
    wall = time.perf_counter() - start
    assert len(received) >= size, f"transfer incomplete: {len(received)}/{size}"
    return wall


def _measure_bulk():
    # Warm up imports/JIT-able caches once so neither leg pays them.
    _run_bulk_transfer(size=64 * 1024)
    # The fast leg is short enough to afford extra rounds; min-of-N is
    # the noise-robust statistic (scheduler jitter only ever adds time).
    fast = _min_of(1 if QUICK else 5, _run_bulk_transfer)
    with fastpath.scalar_baseline():
        scalar = _min_of(ROUNDS, _run_bulk_transfer)
    return fast, scalar


def test_perf_bulk_transfer(once):
    fast, scalar = once(_measure_bulk)
    speedup = scalar / fast
    payload = {
        "transfer_bytes": BULK_BYTES,
        "rounds_per_leg": ROUNDS,
        "after_fast_wall_seconds": round(fast, 4),
        "before_scalar_wall_seconds": round(scalar, 4),
        "speedup_vs_scalar_baseline": round(speedup, 2),
        "goodput_fast_mbps": round(BULK_BYTES * 8 / fast / 1e6, 1),
        "goodput_scalar_mbps": round(BULK_BYTES * 8 / scalar / 1e6, 1),
    }
    _merge_perf_section("bulk_transfer", payload)
    report(
        "Datapath fast path: bulk transfer (two-path topology)",
        [
            f"transfer size        {BULK_BYTES / 1048576:.0f} MiB",
            f"fast path            {fast:.3f} s  "
            f"({payload['goodput_fast_mbps']} Mb/s simulated-data wall rate)",
            f"scalar baseline      {scalar:.3f} s",
            f"speedup              {speedup:.2f}x (in-process)",
        ],
        extra=payload,
    )


# ----------------------------------------------------------------------
# 2. Record-size sweep (AEAD seal + open per TLS record)
# ----------------------------------------------------------------------

_SWEEP_SIZES = (64, 128, 256, 1024, 4096, 16384)
#: Records per leg at the 64 B and 128 B points are capped (per-record
#: cost, not per-byte: the full volume would take minutes on the scalar
#: leg).  256 B and up keep the whole volume, as in every earlier run.
_SWEEP_CAPPED_BELOW = 256
_SWEEP_MAX_RECORDS = 1024 if QUICK else 4096


def _record_layer_rate(inner_size: int, total_bytes: int) -> float:
    """Seal+open ``total_bytes`` of payload in ``inner_size`` records;
    returns MB/s of plaintext processed (seal and open both counted)."""
    keys = TrafficKeys.from_secret(b"\x07" * 32)
    sender = CipherState(keys)
    receiver = CipherState(keys)
    inner = b"\x55" * inner_size + bytes([ContentType.APPLICATION_DATA])
    records = max(2, total_bytes // inner_size)
    if inner_size < _SWEEP_CAPPED_BELOW:
        records = min(records, _SWEEP_MAX_RECORDS)
    start = time.perf_counter()
    for _ in range(records):
        aad = record_header(ContentType.APPLICATION_DATA, len(inner) + 16)
        sealed = sender.seal(inner, aad)
        sender.advance()
        opened = receiver.open(sealed, aad)
        receiver.advance()
    elapsed = time.perf_counter() - start
    assert opened == inner
    return records * inner_size / elapsed / 1e6


def _measure_sweep(volume):
    results = {}
    for size in _SWEEP_SIZES:
        fast = _min_of(ROUNDS, lambda s=size: _record_layer_rate(s, volume))
        with fastpath.scalar_baseline():
            scalar = _min_of(ROUNDS, lambda s=size: _record_layer_rate(s, volume))
        results[size] = (fast, scalar)
    return results


def test_perf_record_size_sweep(once):
    volume = (1 if QUICK else 4) * 1024 * 1024
    rows = []
    payload = {
        "record_sizes": {},
        "volume_bytes_per_size": volume,
        "max_records_below_256": _SWEEP_MAX_RECORDS,
    }
    for size, (fast, scalar) in once(_measure_sweep, volume).items():
        payload["record_sizes"][str(size)] = {
            "fast_mb_per_s": round(fast, 3),
            "scalar_mb_per_s": round(scalar, 3),
            "speedup": round(fast / scalar, 2),
        }
        rows.append(
            f"{size:>6} B records   fast {fast:8.2f} MB/s   "
            f"scalar {scalar:7.2f} MB/s   {fast / scalar:5.2f}x"
        )
    _merge_perf_section("record_size_sweep", payload)
    report("Datapath fast path: record-size sweep (seal+open)", rows, extra=payload)
    big = payload["record_sizes"]["16384"]
    assert big["speedup"] >= (1.2 if QUICK else 2.0), big


# ----------------------------------------------------------------------
# 3. Crypto micro-benchmarks
# ----------------------------------------------------------------------

def _rate(fn, payload_bytes: int, iterations: int) -> float:
    start = time.perf_counter()
    for _ in range(iterations):
        fn()
    return iterations * payload_bytes / (time.perf_counter() - start) / 1e6


def _measure_crypto(size, iterations):
    key32 = b"\x42" * 32
    nonce = b"\x24" * 12
    message = b"\x99" * size

    poly_fast = _rate(lambda: poly1305_mac_fast(key32, message), size, iterations)
    poly_scalar = _rate(lambda: poly1305_mac(key32, message), size, iterations)

    aead = ChaCha20Poly1305(key32)
    sealed = aead.encrypt(nonce, message, b"aad")
    aead_fast = _rate(lambda: aead.decrypt(nonce, sealed, b"aad"), size, iterations)
    with fastpath.scalar_baseline():
        aead_scalar = _rate(
            lambda: aead.decrypt(nonce, sealed, b"aad"), size, iterations
        )
    return poly_fast, poly_scalar, aead_fast, aead_scalar


def test_perf_crypto_micro(once):
    size = 16384
    iterations = 10 if QUICK else 50
    poly_fast, poly_scalar, aead_fast, aead_scalar = once(
        _measure_crypto, size, iterations
    )

    payload = {
        "message_bytes": size,
        "poly1305": {
            "batched_mb_per_s": round(poly_fast, 1),
            "scalar_mb_per_s": round(poly_scalar, 1),
            "speedup": round(poly_fast / poly_scalar, 2),
        },
        "aead_open": {
            "batched_mb_per_s": round(aead_fast, 1),
            "scalar_mb_per_s": round(aead_scalar, 1),
            "speedup": round(aead_fast / aead_scalar, 2),
        },
        "numpy_available": _aead.HAVE_NUMPY,
    }
    _merge_perf_section("crypto_micro", payload)
    report(
        "Datapath fast path: crypto micro (16 KiB messages)",
        [
            f"poly1305   batched {poly_fast:8.1f} MB/s   scalar {poly_scalar:7.1f} MB/s",
            f"aead open  batched {aead_fast:8.1f} MB/s   scalar {aead_scalar:7.1f} MB/s",
        ],
        extra=payload,
    )
    assert poly_fast > poly_scalar
    assert aead_fast > aead_scalar
