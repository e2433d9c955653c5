"""Outside-in tracer: spans and counts at the layers' entry points.

Nothing under ``src/`` knows about this module.  ``Tracer.install``
rebinds the entry points listed in ``TARGETS`` on the layers' classes
and modules to wrappers, ``Tracer.restore`` puts the originals back.
A wrapper is a pass-through until ``Tracer.begin`` opens the root span
(the timed phase); from then on every call records a span (name,
start, end, parent span, op id) and feeds an exclusive-time stack, so
that the self times of all spans plus the root's own self time sum to
the root's duration exactly.

A layer is a ``repro.*`` package; a span is named ``<layer>.<entry>``.
Counts are taken at the same boundaries by *probes*, small functions
that see the call's arguments before it runs.
"""

from __future__ import annotations

import gc
import importlib
import json
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

AEAD_TAG = 16
#: AEAD payloads below this leave the batched numpy path (the keystream
#: lookahead needs 512 B, the one-call keystream 256 B).
SMALL_AEAD = 512


class _Frame:
    """One open span on the exclusive-time stack."""

    __slots__ = ("name_id", "child_seconds", "span")

    def __init__(self, name_id: int, span: int) -> None:
        self.name_id = name_id
        self.child_seconds = 0.0
        self.span = span


# ----------------------------------------------------------------------
# Probes: (tracer, parent_name, args) -> None, run before the call.
# ----------------------------------------------------------------------

_AEAD_SPANS = frozenset(
    ("crypto.aead_encrypt", "crypto.aead_decrypt",
     "crypto.aead_seal_ks", "crypto.aead_open_ks")
)


def _aead_probe(payload_arg: int, overhead: int) -> Callable:
    def probe(tracer: "Tracer", parent: str, args: tuple) -> None:
        # ``encrypt`` calls ``seal_with_keystream`` itself on the batched
        # path: one AEAD operation, counted at the outermost boundary.
        if parent in _AEAD_SPANS:
            return
        counts = tracer.counts
        counts["aead.ops"] += 1
        if len(args[payload_arg]) - overhead < SMALL_AEAD:
            counts["aead.small"] += 1
    return probe


def _seal_probe(tracer: "Tracer", parent: str, args: tuple) -> None:
    tracer.counts["tls.sealed_bytes"] += len(args[1])


def _link_transmit_probe(tracer: "Tracer", parent: str, args: tuple) -> None:
    # ``transmit_batch`` falls back to per-packet ``transmit`` under
    # loss/reordering and for bursts of one: those packets were handed
    # over in a batch but did not take the vectorised queue service.
    if parent == "netsim.link_transmit_batch":
        tracer.counts["link.batch_fallback"] += 1
    else:
        tracer.counts["link.single"] += 1


def _link_batch_probe(tracer: "Tracer", parent: str, args: tuple) -> None:
    tracer.counts["link.batched"] += len(args[2])


def _tcp_send_probe(tracer: "Tracer", parent: str, args: tuple) -> None:
    tracer.counts["tcp.bytes_queued"] += len(args[1])
    tracer.see_tcp(args[0])


def _tcp_segment_probe(tracer: "Tracer", parent: str, args: tuple) -> None:
    tracer.see_tcp(args[0])
    for option in args[1].options:
        blocks = getattr(option, "blocks", None)
        if blocks:
            tracer.counts["tcp.sack_blocks_in"] += len(blocks)


def _send_raw_probe(tracer: "Tracer", parent: str, args: tuple) -> None:
    tracer.counts["tcp.segments_out"] += 1


def _send_raw_batch_probe(tracer: "Tracer", parent: str, args: tuple) -> None:
    tracer.counts["tcp.segments_out"] += len(args[2])


def _session_probe(tracer: "Tracer", parent: str, args: tuple) -> None:
    session = args[0]
    tracer.sessions.setdefault(id(session), session)


def _tls_start_probe(tracer: "Tracer", parent: str, args: tuple) -> None:
    tracer.tls_clients.append(args[0])


def _emit_probe(tracer: "Tracer", parent: str, args: tuple) -> None:
    dispatcher, event = args[0], args[1]
    if event == "conn_failed" and dispatcher.clock is not None:
        tracer.failed_at[id(dispatcher)] = dispatcher.clock()
    elif event == "failover":
        tracer.counts["core.failovers"] += 1
        failed_at = tracer.failed_at.pop(id(dispatcher), None)
        if failed_at is not None:
            gap = dispatcher.clock() - failed_at
            tracer.failover_gap = max(tracer.failover_gap, gap)


def _cancel_probe(tracer: "Tracer", parent: str, args: tuple) -> None:
    if not args[0].cancelled:
        tracer.counts["netsim.timers_cancelled"] += 1


#: (module, "function" or "Class.method", span name or None, probe).
#: A target with no span name is probe-only: counted, not timed.  This
#: is, with ``bench/workloads.py``'s imports, the whole surface of
#: ``repro`` the benchmark depends on (listed in bench/README.md).
TARGETS: Tuple[Tuple[str, str, Optional[str], Optional[Callable]], ...] = (
    # core
    ("repro.core.session", "TcplsSession.send", "core.send", _session_probe),
    ("repro.core.session", "TcplsSession._pump", "core.pump", _session_probe),
    ("repro.core.session", "TcplsSession.handshake", "core.handshake", None),
    ("repro.core.session", "TcplsSession.connect", "core.connect", None),
    ("repro.core.session", "TcplsSession._on_tcp_data", "core.on_tcp_data",
     _session_probe),
    ("repro.core.contexts", "ContextManager.open_record", "core.open_record", None),
    ("repro.core.framing", "encode_frame", "core.encode_frame", None),
    ("repro.core.framing", "decode_frame", "core.decode_frame", None),
    ("repro.core.events", "EventDispatcher.emit", None, _emit_probe),
    # tls
    ("repro.tls.record", "CipherState.seal", "tls.seal", _seal_probe),
    ("repro.tls.record", "CipherState.open", "tls.open", None),
    ("repro.tls.record", "RecordEncoder.encode", "tls.encode", None),
    ("repro.tls.record", "RecordDecoder.decrypt_with", "tls.decrypt_with", None),
    ("repro.tls.session", "TlsSession.start_handshake", "tls.start_handshake",
     _tls_start_probe),
    ("repro.tls.session", "TlsSession.receive", "tls.receive", None),
    ("repro.tls.session", "TlsSession.process_handshake_bytes",
     "tls.post_handshake", None),
    # crypto
    ("repro.crypto.aead", "ChaCha20Poly1305.encrypt", "crypto.aead_encrypt",
     _aead_probe(2, 0)),
    ("repro.crypto.aead", "ChaCha20Poly1305.decrypt", "crypto.aead_decrypt",
     _aead_probe(2, AEAD_TAG)),
    ("repro.crypto.aead", "seal_with_keystream", "crypto.aead_seal_ks",
     _aead_probe(1, 0)),
    ("repro.crypto.aead", "open_with_keystream", "crypto.aead_open_ks",
     _aead_probe(1, AEAD_TAG)),
    ("repro.crypto.chacha20_fast", "chacha20_keystream_multi",
     "crypto.keystream_multi", None),
    ("repro.crypto.x25519", "x25519", "crypto.x25519", None),
    ("repro.crypto.x25519", "x25519_base", "crypto.x25519_base", None),
    ("repro.crypto.ed25519", "ed25519_sign", "crypto.ed25519_sign", None),
    ("repro.crypto.ed25519", "ed25519_verify", "crypto.ed25519_verify", None),
    ("repro.crypto.hkdf", "hkdf_extract", "crypto.hkdf_extract", None),
    ("repro.crypto.hkdf", "hkdf_expand", "crypto.hkdf_expand", None),
    ("repro.crypto.hkdf", "hkdf_expand_label", "crypto.hkdf_expand_label", None),
    ("repro.crypto.hkdf", "derive_secret", "crypto.hkdf_derive_secret", None),
    # tcp
    ("repro.tcp.connection", "TcpConnection.send", "tcp.send", _tcp_send_probe),
    ("repro.tcp.connection", "TcpConnection.on_segment", "tcp.on_segment",
     _tcp_segment_probe),
    ("repro.tcp.segment", "TcpSegment.to_bytes", "tcp.to_bytes", None),
    ("repro.tcp.segment", "TcpSegment.from_bytes", "tcp.from_bytes", None),
    ("repro.tcp.stack", "TcpStack.send_raw", "tcp.send_raw", _send_raw_probe),
    ("repro.tcp.stack", "TcpStack.send_raw_batch", "tcp.send_raw_batch",
     _send_raw_batch_probe),
    # netsim
    ("repro.netsim.link", "Link.transmit", "netsim.link_transmit",
     _link_transmit_probe),
    ("repro.netsim.link", "Link.transmit_batch", "netsim.link_transmit_batch",
     _link_batch_probe),
    ("repro.netsim.node", "Node.receive", "netsim.node_receive", None),
    ("repro.netsim.node", "Node.forward", "netsim.node_forward", None),
    ("repro.netsim.engine", "Simulator.run", "netsim.run", None),
    ("repro.netsim.engine", "Simulator.schedule", "netsim.schedule", None),
    ("repro.netsim.engine", "Event.cancel", None, _cancel_probe),
    # scale
    ("repro.scale.pool", "SessionPool.acquire", "scale.pool_acquire", None),
    ("repro.scale.pool", "SessionPool.release", "scale.pool_release", None),
    ("repro.scale.pool", "SessionPool.maintain", "scale.pool_maintain", None),
    ("repro.scale.pool", "SessionPool.drain", "scale.pool_drain", None),
    ("repro.scale.loadgen", "ScaleWorld.start", "scale.loadgen_start", None),
    ("repro.scale.loadgen", "ScaleWorld.finalize", "scale.loadgen_finalize", None),
    # overload
    ("repro.overload.admission", "AdmissionController.admit_connection",
     "overload.admit_connection", None),
    ("repro.overload.admission", "AdmissionController.admit_hello",
     "overload.admit_hello", None),
    ("repro.overload.shedding", "LoadShedder.observe", "overload.shed_observe", None),
    ("repro.overload.world", "OverloadWorld.start", "overload.loadgen_start", None),
    ("repro.overload.world", "OverloadWorld.finalize", "overload.loadgen_finalize",
     None),
)

#: ``Scheduler.pick`` is overridden per policy, so every subclass that
#: defines its own ``pick`` is wrapped under one span name.
_SCHEDULER_MODULE = "repro.core.scheduler"
_SCHEDULER_SPAN = "core.sched_pick"

#: Spans the benchmark records around its own code.
APP_SPAN = "harness.app"
GC_SPAN = "harness.gc"
ROOT_SPAN = "harness.root"


class Tracer:
    """Spans, exclusive self times and boundary counts for one repeat."""

    def __init__(self) -> None:
        self.names: List[str] = [ROOT_SPAN, GC_SPAN]
        self._name_ids: Dict[str, int] = {ROOT_SPAN: 0, GC_SPAN: 1}
        self._patches: List[Tuple[object, str, object]] = []
        self._stack: List[_Frame] = []
        self._gc_started = 0.0
        #: Op id stamped on new spans; the workload's driver sets it.
        self.op = 0
        self.reset()

    def reset(self) -> None:
        """Forget one repeat's measurements (patches stay installed)."""
        count = len(self.names)
        self.calls = [0] * count
        self.errors = [0] * count
        self.self_seconds = [0.0] * count
        self.counts: Counter = Counter()
        self.span_name: List[int] = []
        self.span_start: List[float] = []
        self.span_end: List[float] = []
        self.span_parent: List[int] = []
        self.span_op: List[int] = []
        self.sessions: Dict[int, object] = {}
        self.tls_clients: List[object] = []
        self._tcp: Dict[int, Tuple[object, int, int]] = {}
        self.failed_at: Dict[int, float] = {}
        self.failover_gap = 0.0
        self.root_seconds = 0.0
        self.gc_collections = 0

    # -- names -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.errors.append(0)
            self.self_seconds.append(0.0)
        return name_id

    # -- wrapping ----------------------------------------------------------

    def wrap(self, fn: Callable, name: Optional[str] = APP_SPAN,
             probe: Optional[Callable] = None) -> Callable:
        """Wrapper recording a span called ``name`` around ``fn``.

        With ``name`` None the wrapper only runs ``probe``.
        """
        tracer = self
        stack = self._stack
        names = self.names
        perf = time.perf_counter

        if name is None:
            def probed(*args, **kwargs):
                if stack:
                    probe(tracer, names[stack[-1].name_id], args)
                return fn(*args, **kwargs)
            probed.__wrapped__ = fn
            return probed

        name_id = self._name_id(name)

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            if probe is not None:
                probe(tracer, names[parent.name_id], args)
            span = len(tracer.span_name)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(parent.span)
            tracer.span_op.append(tracer.op)
            tracer.span_end.append(0.0)
            frame = _Frame(name_id, span)
            start = perf()
            tracer.span_start.append(start)
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.errors[name_id] += 1
                raise
            finally:
                end = perf()
                stack.pop()
                elapsed = end - start
                tracer.span_end[span] = end
                tracer.calls[name_id] += 1
                tracer.self_seconds[name_id] += elapsed - frame.child_seconds
                parent.child_seconds += elapsed

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner: object, attr: str, name: Optional[str],
               probe: Optional[Callable]) -> None:
        namespace = owner.__dict__
        raw = namespace[attr]
        if isinstance(raw, staticmethod):
            replacement: object = staticmethod(self.wrap(raw.__func__, name, probe))
        elif isinstance(raw, classmethod):
            replacement = classmethod(self.wrap(raw.__func__, name, probe))
        else:
            replacement = self.wrap(raw, name, probe)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, raw))
        if isinstance(owner, type):
            return
        # A module-level function: ``from x import y`` copied the name
        # into importing modules, which need the wrapper too.
        for module in list(sys.modules.values()):
            if module is owner or not getattr(module, "__name__", "").startswith("repro"):
                continue
            if module.__dict__.get(attr) is raw:
                setattr(module, attr, replacement)
                self._patches.append((module, attr, raw))

    def install(self) -> None:
        """Rebind every target; call before the traced world is built so
        bound methods captured at construction are the wrappers."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, qualname, name, probe in TARGETS:
            owner: object = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            self._patch(owner, attr, name, probe)
        scheduler = importlib.import_module(_SCHEDULER_MODULE)
        pending = list(scheduler.Scheduler.__subclasses__())
        while pending:
            policy = pending.pop()
            pending.extend(policy.__subclasses__())
            if "pick" in policy.__dict__:
                self._patch(policy, "pick", _SCHEDULER_SPAN, None)

    def restore(self) -> None:
        """Put every original back (module copies included)."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def patched(self) -> List[Tuple[object, str, object]]:
        """(owner, attribute, original) per live patch, for the tests."""
        return list(self._patches)

    # -- the timed phase ---------------------------------------------------

    def begin(self) -> None:
        """Open the root span: wrappers record from here on."""
        self.reset()
        gc.callbacks.append(self._on_gc)
        self.span_name.append(0)
        self.span_parent.append(-1)
        self.span_op.append(0)
        self.span_end.append(0.0)
        start = time.perf_counter()
        self.span_start.append(start)
        self._stack.append(_Frame(0, 0))

    def end(self) -> None:
        end = time.perf_counter()
        root = self._stack.pop()
        gc.callbacks.remove(self._on_gc)
        self.span_end[0] = end
        self.root_seconds = end - self.span_start[0]
        self.calls[0] = 1
        self.self_seconds[0] = self.root_seconds - root.child_seconds

    def _on_gc(self, phase: str, info: dict) -> None:
        # A collection runs inside whatever span triggered it; recording
        # it as a child span moves its time out of that span's self time.
        if phase == "start":
            self._gc_started = time.perf_counter()
            return
        end = time.perf_counter()
        elapsed = end - self._gc_started
        name_id = self._name_ids[GC_SPAN]
        parent = self._stack[-1]
        self.span_name.append(name_id)
        self.span_parent.append(parent.span)
        self.span_op.append(self.op)
        self.span_start.append(self._gc_started)
        self.span_end.append(end)
        self.calls[name_id] += 1
        self.self_seconds[name_id] += elapsed
        parent.child_seconds += elapsed
        self.gc_collections += 1

    def see_tcp(self, conn: object) -> None:
        """Remember a TCP connection and its counters at first sight, so
        retransmissions of the set-up phase are not charged to the run."""
        if id(conn) not in self._tcp:
            stats = conn.stats
            self._tcp[id(conn)] = (
                conn, stats["retransmissions"], stats["timeouts"]
            )

    # -- results -----------------------------------------------------------

    def self_time(self, *span_names: str) -> float:
        return sum(
            self.self_seconds[self._name_ids[name]]
            for name in span_names if name in self._name_ids
        )

    def call_count(self, *span_names: str) -> int:
        return sum(
            self.calls[self._name_ids[name]]
            for name in span_names if name in self._name_ids
        )

    def error_count(self, *span_names: str) -> int:
        return sum(
            self.errors[self._name_ids[name]]
            for name in span_names if name in self._name_ids
        )

    def layer_self_time(self, layer: str) -> float:
        prefix = layer + "."
        return sum(
            seconds for name, seconds in zip(self.names, self.self_seconds)
            if name.startswith(prefix)
        )

    def tcp_totals(self) -> Dict[str, int]:
        retransmits = timeouts = 0
        for conn, retx0, timeouts0 in self._tcp.values():
            retransmits += conn.stats["retransmissions"] - retx0
            timeouts += conn.stats["timeouts"] - timeouts0
        return {"retransmits": retransmits, "rto_fires": timeouts}

    def write(self, path: str, meta: dict) -> None:
        """Dump the spans, column-wise, with times relative to the root."""
        origin = self.span_start[0] if self.span_start else 0.0
        document = {
            "meta": meta,
            "names": self.names,
            "columns": ["name", "start_s", "end_s", "parent", "op"],
            "name": self.span_name,
            "start_s": [round(t - origin, 9) for t in self.span_start],
            "end_s": [round(t - origin, 9) for t in self.span_end],
            "parent": self.span_parent,
            "op": self.span_op,
        }
        with open(path, "w") as handle:
            json.dump(document, handle, separators=(",", ":"))


class NoTrace:
    """What a workload sees when the repeat is not traced."""

    op = 0

    @staticmethod
    def wrap(fn: Callable, name: Optional[str] = APP_SPAN,
             probe: Optional[Callable] = None) -> Callable:
        return fn
