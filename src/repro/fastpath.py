"""Kill-switches for the datapath fast paths that keep a twin.

The datapath has one implementation of everything except the features
listed here.  A fast path keeps a flag-selected twin only where

- the twin is the readable specification of a non-obvious trick and the
  tests hold the fast path to it, or
- the twin is the only path that runs on a supported platform.

``crypto.batch`` meets both: its scalar twin *is* RFC 8439 and the only
AEAD without numpy.  ``netsim.vectorq`` stays until the benchmark, which
binds its entry points by name, allows its ablation.  A fast path that
is merely faster (bit-identical, behind on no standing workload)
replaces its twin outright and is pinned by oracles that share no code
with it: frozen pcap/outcome digests, RFC vectors, invariants
(EXPERIMENTS.md P2 records the ablations the rule was applied with).

A flagged fast path must be **bit-identical** to its twin.  Flags are
read on the hot path, so lookups go through module-level helpers kept
deliberately tiny.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator

#: Every known fast-path feature, and what it gates.
FEATURES = (
    # Batched Poly1305 + single-call / lookahead ChaCha20 keystream in
    # the AEAD path (crypto/poly1305_fast.py, crypto/aead.py,
    # tls/record.py keystream cache).
    "crypto.batch",
    # Vectorized link queue service: TCP send bursts travel as one batch
    # down Interface.send_batch -> Link.transmit_batch, where numpy
    # computes the chained service times for the whole burst
    # (netsim/link.py, netsim/node.py, tcp/connection.py).
    "netsim.vectorq",
)

#: The registered fastpath-vs-scalar cross-check test for every feature
#: (repo-relative paths).  The FP001 lint rule enforces that each entry
#: exists and actually references its flag, so no fast path can outlive
#: the test that proves it bit-identical to the scalar reference.
CROSSCHECKS: Dict[str, str] = {
    "crypto.batch": "tests/crypto/test_fastpath_crypto.py",
    "netsim.vectorq": "tests/netsim/test_vectorq.py",
}

_flags: Dict[str, bool] = {name: True for name in FEATURES}

#: The live flag mapping itself, for per-packet hot paths where even the
#: ``enabled()`` call shows up in profiles: ``fastpath.flags["crypto.batch"]``
#: is one dict lookup instead of a function call.  Mutate only through
#: ``set_enabled``/``scalar_baseline``/``overridden``.
flags = _flags


def enabled(name: str) -> bool:
    """True when the named fast path is active."""
    return _flags[name]


def set_enabled(name: str, value: bool) -> None:
    if name not in _flags:
        raise KeyError(f"unknown fastpath feature {name!r}")
    _flags[name] = bool(value)


def all_enabled() -> Dict[str, bool]:
    """Snapshot of every flag (for BENCH_*.json provenance)."""
    return dict(_flags)


@contextmanager
def scalar_baseline() -> Iterator[None]:
    """Run the enclosed block with every flagged fast path off.

    Restores the previous values on exit.  Used by the cross-check tests.
    """
    saved = dict(_flags)
    try:
        for name in _flags:
            _flags[name] = False
        yield
    finally:
        _flags.update(saved)


@contextmanager
def overridden(name: str, value: bool) -> Iterator[None]:
    """Temporarily force one flag (test helper)."""
    saved = _flags[name]
    try:
        _flags[name] = bool(value)
        yield
    finally:
        _flags[name] = saved
