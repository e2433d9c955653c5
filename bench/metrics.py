"""The metric names, units and directions the benchmark reports.

``BENCHMARK.json`` at the repository root repeats these lists for the
driver (bench/tests checks the two agree) and holds the bounds, which
``python -m bench compare`` reads from there.

Two families of end-to-end metric: *host* numbers are what running the
reproduction costs (noisy), ``sim_*`` numbers are what the simulated
protocol delivers (exact for a seed: any movement at a fixed seed is a
behaviour change, not noise).
"""

from __future__ import annotations

from typing import List, Tuple

#: (name, unit, better)
END_TO_END: List[Tuple[str, str, str]] = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "op/s", "higher"),
    ("cpu_ms_per_op", "ms", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("sim_goodput_mbps", "Mb/s", "higher"),
    ("sim_latency_p50_ms", "ms", "lower"),
    ("sim_latency_p95_ms", "ms", "lower"),
]

#: (name, unit, better); ``*_self_s`` is exclusive host time in the
#: traced repeat's timed phase, child spans subtracted.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("crypto.aead_calls", "count", "lower"),
    ("crypto.aead_self_s", "s", "lower"),
    ("crypto.aead_us_per_call", "us", "lower"),
    ("crypto.aead_small_share", "ratio", "lower"),
    ("crypto.kex_calls", "count", "lower"),
    ("crypto.kex_self_s", "s", "lower"),
    ("crypto.sig_calls", "count", "lower"),
    ("crypto.sig_self_s", "s", "lower"),
    ("crypto.kdf_self_s", "s", "lower"),
    ("tls.records_sealed", "count", "lower"),
    ("tls.records_opened", "count", "lower"),
    ("tls.record_self_s", "s", "lower"),
    ("tls.record_us_per_record", "us", "lower"),
    ("tls.payload_bytes_per_record", "B", "higher"),
    ("tls.handshakes", "count", "lower"),
    ("tls.handshake_self_s", "s", "lower"),
    ("tls.resumed_share", "ratio", "higher"),
    ("core.send_calls", "count", "lower"),
    ("core.send_self_s", "s", "lower"),
    ("core.recv_self_s", "s", "lower"),
    ("core.establish_self_s", "s", "lower"),
    ("core.frames_out", "count", "lower"),
    ("core.frames_in", "count", "lower"),
    ("core.us_per_record", "us", "lower"),
    ("core.sched_picks", "count", "lower"),
    ("core.sched_self_s", "s", "lower"),
    ("core.path_share_v6", "ratio", "higher"),
    ("core.trial_open_ratio", "ratio", "higher"),
    ("core.failovers", "count", "lower"),
    ("core.records_replayed", "count", "lower"),
    ("core.dup_records_dropped", "count", "lower"),
    ("core.failover_gap_sim_ms", "ms", "lower"),
    ("tcp.segments_out", "count", "lower"),
    ("tcp.segments_in", "count", "lower"),
    ("tcp.send_self_s", "s", "lower"),
    ("tcp.on_segment_self_s", "s", "lower"),
    ("tcp.codec_self_s", "s", "lower"),
    ("tcp.us_per_segment", "us", "lower"),
    ("tcp.payload_bytes_per_segment", "B", "higher"),
    ("tcp.retransmits", "count", "lower"),
    ("tcp.rto_fires", "count", "lower"),
    ("tcp.sack_blocks_in", "count", "lower"),
    ("netsim.events", "count", "lower"),
    ("netsim.events_per_op", "count", "lower"),
    ("netsim.events_per_s", "1/s", "higher"),
    ("netsim.us_per_event", "us", "lower"),
    ("netsim.engine_self_s", "s", "lower"),
    ("netsim.link_self_s", "s", "lower"),
    ("netsim.node_self_s", "s", "lower"),
    ("netsim.timers_scheduled", "count", "lower"),
    ("netsim.timers_cancelled_share", "ratio", "lower"),
    ("netsim.batch_share", "ratio", "higher"),
    ("netsim.link_drops", "count", "lower"),
    ("netsim.queue_peak_pkts", "count", "lower"),
    ("scale.dials", "count", "lower"),
    ("scale.reused_share", "ratio", "higher"),
    ("scale.peak_concurrent", "count", "higher"),
    ("scale.pool_self_s", "s", "lower"),
    ("scale.loadgen_self_s", "s", "lower"),
    ("overload.admit_calls", "count", "lower"),
    ("overload.admit_self_s", "s", "lower"),
    ("overload.loadgen_self_s", "s", "lower"),
    ("overload.rejected_share", "ratio", "lower"),
    ("overload.cheap_admit_share", "ratio", "higher"),
    ("overload.coupons_accepted", "count", "higher"),
    ("overload.shed_sessions", "count", "lower"),
    ("harness.import_s", "s", "lower"),
    ("harness.loadgen_self_s", "s", "lower"),
    ("harness.gc_s", "s", "lower"),
    ("harness.gc_collections", "count", "lower"),
    ("harness.rpc_wall_p50_us", "us", "lower"),
    ("harness.rpc_wall_p99_us", "us", "lower"),
    ("harness.unattributed_share", "ratio", "lower"),
    ("harness.trace_overhead_ratio", "ratio", "lower"),
    ("harness.host_slowdown", "ratio", "lower"),
]

#: The per-layer metrics that partition the traced timed phase: their
#: sum, plus the unattributed share of the root, is the root's duration.
SELF_TIME_METRICS = [
    name for name, unit, _ in PER_LAYER
    if name.endswith("_self_s") or name == "harness.gc_s"
]
