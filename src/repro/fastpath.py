"""Kill-switch for the one datapath fast path that keeps a twin.

The datapath has one implementation of everything except the feature
listed here: one flag, two configurations.  ``netsim.vectorq`` stays
until the benchmark, which binds its entry points by name, allows its
ablation.  A fast path that is merely faster (bit-identical, behind on
no standing workload) replaces its twin outright and is pinned by
oracles that share no code with it: frozen pcap/outcome digests, RFC
vectors, a differential against OpenSSL, invariants (EXPERIMENTS.md P2
records the ablations the rule was applied with).

A flagged fast path must be **bit-identical** to its twin;
``tests/netsim/test_vectorq.py`` runs both and compares them.  The flag
is read on the hot path, so the gate is a plain dict lookup.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator

#: Every known fast-path feature, and what it gates.
FEATURES = (
    # Vectorized link queue service: TCP send bursts travel as one batch
    # down Interface.send_batch -> Link.transmit_batch, where numpy
    # computes the chained service times for the whole burst
    # (netsim/link.py, netsim/node.py, tcp/connection.py).
    "netsim.vectorq",
)

_flags: Dict[str, bool] = {name: True for name in FEATURES}

#: The live flag mapping itself, for per-packet hot paths:
#: ``fastpath.flags["netsim.vectorq"]`` is one dict lookup.  Mutate only
#: through ``overridden``.
flags = _flags


def all_enabled() -> Dict[str, bool]:
    """Snapshot of every flag (for a benchmark record's provenance)."""
    return dict(_flags)


@contextmanager
def overridden(name: str, value: bool) -> Iterator[None]:
    """Temporarily force one flag (test helper)."""
    saved = _flags[name]
    try:
        _flags[name] = bool(value)
        yield
    finally:
        _flags[name] = saved
