"""TCPLS — a full-system reproduction of "TCPLS: Closely Integrating
TCP and TLS" (Rochet, Assogba, Bonaventure — HotNets 2020).

Subpackages, bottom-up:

- ``repro.utils``     — byte codecs and the error hierarchy
- ``repro.crypto``    — X25519, Ed25519, ChaCha20-Poly1305, HKDF, and
  the TLS 1.3 key schedule (validated against RFC test vectors)
- ``repro.netsim``    — deterministic discrete-event network simulator
  (hosts, routers, links, dual-stack routing, middleboxes, UDP)
- ``repro.tcp``       — byte-accurate TCP (FSM, SACK recovery,
  Reno/CUBIC, TCP Fast Open, user timeout)
- ``repro.tls``       — TLS 1.3 (handshake, record layer, tickets,
  0-RTT early data, key updates)
- ``repro.core``      — **TCPLS itself**: streams with per-stream
  cryptographic contexts, the encrypted control channel, TCPLS
  ACKs/failover, JOIN/multipath, migration, bytecode plugins, 0-RTT
- ``repro.quic``      — a mini-QUIC baseline for the comparisons
- ``repro.baselines`` — plain-TCP and layered TLS/TCP applications

Start with ``repro.core`` (or ``examples/quickstart.py``); DESIGN.md maps
every paper section to its module, ``tests/paper/`` regenerates every
table and figure, and EXPERIMENTS.md records paper-vs-measured results.
"""

__version__ = "1.0.0"
