"""Measure one workload in this process.

``measure`` runs one untimed warm-up, then repeats of (build the world,
drive the timed phase, check the outputs) until ``seconds`` have passed.
Repeat *i* uses sub-seed ``i mod worlds`` of the run's seed, so a run
covers ``worlds`` distinct generated inputs and then revisits them:

- host metrics are medians over all repeats, in *reference seconds*:
  each repeat's times are divided by the host's slowdown, which a fixed
  spin loop measures right before and right after the repeat (see
  ``host_slowdown``);
- ``sim_*`` metrics pool the first pass (one repeat per distinct input),
  so they depend on the seed alone, never on how many repeats fitted;
- a revisited input must reproduce its ``sim_digest`` exactly.

With ``trace`` set, the repeats after one untraced baseline run under
:class:`bench.trace.Tracer` on sub-seed 0 and yield the per-layer
metrics; the traced digest must equal the untraced one.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro import fastpath
from repro.analysis.sanitizers import reset_process_globals
from repro.obs import keys as obs_keys
from repro.obs.hub import Observability

from bench.metrics import END_TO_END, PER_LAYER
from bench.trace import APP_SPAN, GC_SPAN, NoTrace, Tracer
from bench.workloads import WORKLOADS, Outcome

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
#: The warm-up only has to import lazily loaded modules and fill the
#: process-wide caches, so it runs a quarter-size world.
WARMUP_SCALE = 0.25
_DROP_KEYS = ("dropped_queue", "dropped_loss", "dropped_down")
#: What one ``_spin`` takes on the box the benchmark was defined on
#: (CPython 3.11, Xeon 2.1 GHz, quiet).
SPIN_REFERENCE_S = 0.005
SPINS = 5


@dataclass
class Repeat:
    seed: int
    #: Measured host seconds; divide by ``slowdown`` for reference seconds.
    setup_s: float
    wall_s: float
    cpu_s: float
    slowdown: float
    outcome: Outcome
    digest: str
    #: Link counters read off the world after a traced repeat.
    link_facts: Dict[str, float] = field(default_factory=dict)


def sub_seed(seed: int, index: int) -> int:
    return seed * 1009 + index


def sim_digest(outcome: Outcome) -> str:
    """Hash of everything simulated that a host-only change must keep."""
    document = [
        outcome.events,
        repr(outcome.sim_seconds),
        [round(sample, 9) for sample in outcome.latencies],
        sorted(outcome.shares.items()),
    ]
    return hashlib.sha256(json.dumps(document).encode()).hexdigest()[:16]


def _spin() -> float:
    """Seconds a fixed piece of interpreter work takes right now."""
    started = time.perf_counter()
    acc = 1
    table: Dict[int, int] = {}
    items = [0] * 64
    for i in range(21500):
        acc = (acc * 1103515245 + 12345 + i) & 0xFFFFFFFF
        table[acc & 127] = i
        items[i & 63] = table.get(i & 127, 0) + len(items)
    pow(acc | 1, 65537, (1 << 255) - 19)
    return time.perf_counter() - started


def host_slowdown(spins: List[float]) -> float:
    """How much slower than the reference box the host ran, from spins
    taken around a repeat.

    This sandbox's CPU slows by up to 1.6x for minutes at a time (CPU
    time inflates with wall time, no steal is reported), which would put
    a 40 % spread on every host metric.  The spin is pure CPython, so no
    change to ``src/`` can move it; the median tracks a sustained
    slowdown and ignores a single preemption.
    """
    return statistics.median(spins) / SPIN_REFERENCE_S


def _link_drops(links) -> int:
    return sum(link.stats[key] for link in links for key in _DROP_KEYS)


def run_repeat(workload, seed: int, scale: float,
               tracer: Optional[Tracer] = None) -> Repeat:
    reset_process_globals()
    gc.collect()
    spins = [_spin() for _ in range(SPINS)]
    started = time.perf_counter()
    world = workload.build(seed, scale)
    setup_s = time.perf_counter() - started

    hub = None
    if tracer is not None:
        hub = Observability(world.sim)
        for link in world.links:
            link.observe(hub)
        drops = _link_drops(world.links)
        tracer.begin()
    wall = time.perf_counter()
    cpu = time.process_time()
    outcome = workload.drive(world, tracer or NoTrace())
    cpu_s = time.process_time() - cpu
    wall_s = time.perf_counter() - wall
    link_facts = {}
    if tracer is not None:
        tracer.end()
        depths = [
            hub.telemetry.histogram(
                obs_keys.link_component(link.name), obs_keys.LINK_QUEUE_DEPTH
            ).max
            for link in world.links
        ]
        link_facts = {
            "link_drops": _link_drops(world.links) - drops,
            "queue_peak_pkts": max((d for d in depths if d is not None), default=0),
        }
    spins += [_spin() for _ in range(SPINS)]
    return Repeat(seed, setup_s, wall_s, cpu_s, host_slowdown(spins), outcome,
                  sim_digest(outcome), link_facts)


def percentile(samples: List[float], share: float) -> float:
    """Nearest-rank percentile: the maximum when the sample is too small
    to have anything beyond the rank."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def fingerprint() -> dict:
    """What the host looked like; stored with every result."""
    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "numpy": numpy_version,
        "fastpath": fastpath.all_enabled(),
    }


def _timed_repeats(workload, seeds: List[int], scale: float, seconds: float,
                   tracer: Optional[Tracer] = None) -> Iterator[Repeat]:
    """Repeats cycling through ``seeds``: at least one full cycle, then
    as many more as finish within ``seconds``."""
    started = time.perf_counter()
    count = 0
    while True:
        yield run_repeat(workload, seeds[count % len(seeds)], scale, tracer)
        count += 1
        elapsed = time.perf_counter() - started
        if count >= len(seeds) and elapsed + elapsed / count > seconds:
            return


def _check(repeats: List[Repeat]) -> List[str]:
    """Output-check failures: the workloads' own, unfinished ops, and a
    revisited input whose ``sim_digest`` moved."""
    failures: List[str] = []
    digests: Dict[int, str] = {}
    for index, repeat in enumerate(repeats):
        for failure in repeat.outcome.failures:
            failures.append(f"repeat {index} (seed {repeat.seed}): {failure}")
        if repeat.outcome.completed != repeat.outcome.attempted:
            failures.append(
                f"repeat {index} (seed {repeat.seed}): "
                f"{repeat.outcome.completed}/{repeat.outcome.attempted} ops completed"
            )
        first = digests.setdefault(repeat.seed, repeat.digest)
        if first != repeat.digest:
            failures.append(
                f"repeat {index} (seed {repeat.seed}): sim_digest {repeat.digest} "
                f"differs from {first} of an earlier repeat of the same input"
            )
    return failures


def _spread(values: List[float]) -> dict:
    """Median and quartiles of per-repeat values."""
    if len(values) < 2:
        return {"value": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"value": median, "q1": q1, "q3": q3, "n": len(values)}


def _end_to_end(repeats: List[Repeat], worlds: int,
                first_pass_rss_mib: float) -> Dict[str, dict]:
    first_pass = [repeat.outcome for repeat in repeats[:worlds]]
    samples = [s for outcome in first_pass for s in outcome.latencies]
    sim_seconds = sum(outcome.sim_seconds for outcome in first_pass)
    sim = {"n": len(samples)}
    rows = {
        "setup_s": _spread([r.setup_s / r.slowdown for r in repeats]),
        "ops_per_s": _spread(
            [r.outcome.completed * r.slowdown / r.wall_s for r in repeats]
        ),
        "cpu_ms_per_op": _spread(
            [r.cpu_s * 1e3 / r.slowdown / max(r.outcome.completed, 1)
             for r in repeats]
        ),
        "peak_rss_mib": {"value": first_pass_rss_mib, "n": 1},
        "sim_goodput_mbps": {
            "value": sum(o.app_bytes for o in first_pass) * 8 / sim_seconds / 1e6,
            **sim,
        },
        "sim_latency_p50_ms": {"value": percentile(samples, 0.50) * 1e3, **sim},
        "sim_latency_p95_ms": {"value": percentile(samples, 0.95) * 1e3, **sim},
    }
    for name, unit, _better in END_TO_END:
        rows[name]["unit"] = unit
    return rows


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, repeat: Repeat, untraced_wall_s: float,
                  import_s: float) -> Dict[str, float]:
    """Every per-layer metric of one traced repeat, by name."""
    t, count, calls = tracer.self_time, tracer.counts, tracer.call_count
    outcome = repeat.outcome
    facts = outcome.facts
    root = tracer.root_seconds

    aead_self = t("crypto.aead_encrypt", "crypto.aead_decrypt", "crypto.aead_seal_ks",
                  "crypto.aead_open_ks", "crypto.keystream_multi")
    sealed = calls("tls.seal")
    opened = calls("tls.open") - tracer.error_count("tls.open")
    record_self = t("tls.seal", "tls.open", "tls.encode", "tls.decrypt_with")
    trials = calls("tls.decrypt_with")
    frames = calls("core.encode_frame") + calls("core.decode_frame")
    core_datapath = t("core.send", "core.pump", "core.encode_frame",
                      "core.on_tcp_data", "core.open_record", "core.decode_frame",
                      "core.sched_pick")
    segments_in = calls("tcp.on_segment")
    segments_out = count["tcp.segments_out"]
    scheduled = calls("netsim.schedule")
    batched = count["link.batched"]
    datagrams = batched + count["link.single"]
    tcp_totals = tracer.tcp_totals()
    sessions = list(tracer.sessions.values())
    admitted = facts.get("admitted", 0) + facts.get("admitted_cheap", 0)
    walls = outcome.op_walls

    values = {
        "crypto.aead_calls": count["aead.ops"],
        "crypto.aead_self_s": aead_self,
        "crypto.aead_us_per_call": _ratio(aead_self * 1e6, count["aead.ops"]),
        "crypto.aead_small_share": _ratio(count["aead.small"], count["aead.ops"]),
        "crypto.kex_calls": calls("crypto.x25519", "crypto.x25519_base"),
        "crypto.kex_self_s": t("crypto.x25519", "crypto.x25519_base"),
        "crypto.sig_calls": calls("crypto.ed25519_sign", "crypto.ed25519_verify"),
        "crypto.sig_self_s": t("crypto.ed25519_sign", "crypto.ed25519_verify"),
        "crypto.kdf_self_s": t("crypto.hkdf_extract", "crypto.hkdf_expand",
                               "crypto.hkdf_expand_label",
                               "crypto.hkdf_derive_secret"),
        "tls.records_sealed": sealed,
        "tls.records_opened": opened,
        "tls.record_self_s": record_self,
        "tls.record_us_per_record": _ratio(record_self * 1e6, sealed + opened),
        "tls.payload_bytes_per_record": _ratio(count["tls.sealed_bytes"], sealed),
        "tls.handshakes": calls("tls.start_handshake"),
        "tls.handshake_self_s": t("tls.start_handshake", "tls.receive",
                                  "tls.post_handshake"),
        "tls.resumed_share": _ratio(
            sum(1 for tls in tracer.tls_clients if tls.used_psk),
            len(tracer.tls_clients),
        ),
        "core.send_calls": calls("core.send"),
        "core.send_self_s": t("core.send", "core.pump", "core.encode_frame"),
        "core.recv_self_s": t("core.on_tcp_data", "core.open_record",
                              "core.decode_frame"),
        "core.establish_self_s": t("core.handshake", "core.connect"),
        "core.frames_out": calls("core.encode_frame"),
        "core.frames_in": calls("core.decode_frame"),
        "core.us_per_record": _ratio(core_datapath * 1e6, frames),
        "core.sched_picks": calls("core.sched_pick"),
        "core.sched_self_s": t("core.sched_pick"),
        "core.path_share_v6": facts.get("path_share_v6", 0.0),
        "core.trial_open_ratio": _ratio(
            trials - tracer.error_count("tls.decrypt_with"), trials
        ),
        "core.failovers": count["core.failovers"],
        "core.records_replayed": sum(s.stats["frames_replayed"] for s in sessions),
        "core.dup_records_dropped": sum(s.tracker.duplicates for s in sessions),
        "core.failover_gap_sim_ms": tracer.failover_gap * 1e3,
        "tcp.segments_out": segments_out,
        "tcp.segments_in": segments_in,
        "tcp.send_self_s": t("tcp.send", "tcp.send_raw", "tcp.send_raw_batch"),
        "tcp.on_segment_self_s": t("tcp.on_segment"),
        "tcp.codec_self_s": t("tcp.to_bytes", "tcp.from_bytes"),
        "tcp.us_per_segment": _ratio(
            tracer.layer_self_time("tcp") * 1e6, segments_in + segments_out
        ),
        "tcp.payload_bytes_per_segment": _ratio(count["tcp.bytes_queued"],
                                                segments_out),
        "tcp.retransmits": tcp_totals["retransmits"],
        "tcp.rto_fires": tcp_totals["rto_fires"],
        "tcp.sack_blocks_in": count["tcp.sack_blocks_in"],
        "netsim.events": outcome.events,
        "netsim.events_per_op": _ratio(outcome.events, outcome.completed),
        "netsim.events_per_s": _ratio(outcome.events, untraced_wall_s),
        "netsim.us_per_event": _ratio(
            tracer.layer_self_time("netsim") * 1e6, outcome.events
        ),
        "netsim.engine_self_s": t("netsim.run", "netsim.schedule"),
        "netsim.link_self_s": t("netsim.link_transmit", "netsim.link_transmit_batch"),
        "netsim.node_self_s": t("netsim.node_receive", "netsim.node_forward"),
        "netsim.timers_scheduled": scheduled,
        "netsim.timers_cancelled_share": _ratio(count["netsim.timers_cancelled"],
                                                scheduled),
        "netsim.batch_share": _ratio(batched - count["link.batch_fallback"],
                                     datagrams),
        "netsim.link_drops": repeat.link_facts["link_drops"],
        "netsim.queue_peak_pkts": repeat.link_facts["queue_peak_pkts"],
        "scale.dials": facts.get("dials", 0),
        "scale.reused_share": _ratio(facts.get("reused", 0), outcome.attempted),
        "scale.peak_concurrent": facts.get("peak_concurrent", 0),
        "scale.pool_self_s": t("scale.pool_acquire", "scale.pool_release",
                               "scale.pool_maintain", "scale.pool_drain"),
        "scale.loadgen_self_s": t("scale.loadgen_start", "scale.loadgen_finalize"),
        "overload.admit_calls": calls("overload.admit_connection",
                                      "overload.admit_hello"),
        "overload.admit_self_s": t("overload.admit_connection",
                                   "overload.admit_hello", "overload.shed_observe"),
        "overload.loadgen_self_s": t("overload.loadgen_start",
                                     "overload.loadgen_finalize"),
        "overload.rejected_share": _ratio(facts.get("rejected", 0),
                                          facts.get("offered", 0)),
        "overload.cheap_admit_share": _ratio(facts.get("admitted_cheap", 0), admitted),
        "overload.coupons_accepted": facts.get("coupons_accepted", 0),
        "overload.shed_sessions": facts.get("shed_sessions", 0),
        "harness.import_s": import_s,
        "harness.loadgen_self_s": t(APP_SPAN),
        "harness.gc_s": t(GC_SPAN),
        "harness.gc_collections": tracer.gc_collections,
        "harness.rpc_wall_p50_us": percentile(walls, 0.50) * 1e6 if walls else 0.0,
        "harness.rpc_wall_p99_us": percentile(walls, 0.99) * 1e6 if walls else 0.0,
        "harness.unattributed_share": _ratio(tracer.self_seconds[0], root),
        "harness.trace_overhead_ratio": _ratio(repeat.wall_s, untraced_wall_s),
        "harness.host_slowdown": repeat.slowdown,
    }
    return {name: float(values[name]) for name, _unit, _better in PER_LAYER}


def _measure_end_to_end(workload, seed: int, seconds: float, scale: float):
    seeds = [sub_seed(seed, index) for index in range(workload.worlds)]
    repeats: List[Repeat] = []
    for repeat in _timed_repeats(workload, seeds, scale, seconds):
        repeats.append(repeat)
        if len(repeats) == len(seeds):
            # Like the sim metrics, the peak is read after the first pass,
            # so it does not grow with the repeats the host had time for.
            rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    digest = hashlib.sha256(
        "".join(r.digest for r in repeats[: len(seeds)]).encode()
    ).hexdigest()[:16]
    return repeats, _end_to_end(repeats, len(seeds), rss_mib), digest


def _measure_per_layer(workload, seed: int, seconds: float, scale: float,
                       import_s: float):
    baseline = run_repeat(workload, sub_seed(seed, 0), scale)
    repeats = [baseline]
    per_repeat: List[Dict[str, float]] = []
    tracer = Tracer()
    tracer.install()
    try:
        for repeat in _timed_repeats(workload, [baseline.seed], scale,
                                     seconds - baseline.wall_s, tracer):
            repeats.append(repeat)
            per_repeat.append(
                layer_metrics(tracer, repeat, baseline.wall_s, import_s)
            )
    finally:
        tracer.restore()
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(
        os.path.join(OUT_DIR, f"trace_{workload.name}.json"),
        {"workload": workload.name, "seed": seed, "sub_seed": baseline.seed,
         "sim_digest": baseline.digest, "root_s": tracer.root_seconds},
    )
    rows = {
        name: {**_spread([m[name] for m in per_repeat]), "unit": unit}
        for name, unit, _better in PER_LAYER
    }
    return repeats, rows, baseline.digest


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            scale: float = 1.0, import_s: float = 0.0) -> dict:
    """Run one workload; returns the detailed result document.

    ``document["line"]`` is the driver's result object: ``correct``,
    ``attempted``, ``failed`` and the end-to-end (``trace`` false) or
    per-layer (``trace`` true) metrics.
    """
    workload = WORKLOADS[workload_name]
    run_repeat(workload, sub_seed(seed, 0), scale * WARMUP_SCALE)
    if trace:
        repeats, rows, digest = _measure_per_layer(
            workload, seed, seconds, scale, import_s
        )
    else:
        repeats, rows, digest = _measure_end_to_end(workload, seed, seconds, scale)
    failures = _check(repeats)
    attempted = sum(r.outcome.attempted for r in repeats)
    completed = sum(r.outcome.completed for r in repeats)
    return {
        "workload": workload_name,
        "op": workload.op,
        "loop": workload.loop,
        "seed": seed,
        "scale": scale,
        "trace": trace,
        "repeats": len(repeats),
        "host_slowdown": statistics.median(r.slowdown for r in repeats),
        "sim_digest": digest,
        "failures": failures,
        "metrics": rows,
        "fingerprint": fingerprint(),
        "line": {
            "correct": not failures,
            "attempted": attempted,
            "failed": attempted - completed,
            "metrics": {
                name: {"value": row["value"], "unit": row["unit"]}
                for name, row in rows.items()
            },
        },
    }
