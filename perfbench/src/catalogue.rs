//! Every metric the benchmark reports: name, unit, layer, source,
//! direction and (end to end) the bound by which it may worsen.
//! `BENCHMARK.json` is generated from this table (`--describe`) and the
//! README's metric table repeats it.

/// Where a number comes from (the README's H/S/C/T/P/E column).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Host clocks around the measured windows (what optimisations move).
    Host,
    /// Simulated time or bytes: a pure function of seed + protocol logic.
    Sim,
    /// Ratio of counters the stack publishes through `sim.metrics()`.
    Counters,
    /// The traced run.
    Traced,
    /// Unit-cost probe: a layer's public function called directly.
    Probe,
    /// Counts × probes ÷ measured CPU.
    Estimate,
}

/// One metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true`: higher is better.
    pub higher: bool,
    /// End-to-end only: share of the parent's median by which the metric
    /// may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    pub source: Source,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher: bool,
    bound: f64,
    source: Source,
) -> Metric {
    Metric { name, unit, higher, bound: Some(bound), source }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool, source: Source) -> Metric {
    Metric { name, unit, higher, bound: None, source }
}

use Source::{Counters as C, Estimate as E, Host as H, Probe as P, Sim as S, Traced as T};

/// End-to-end metrics, reported by every workload's untraced run. The
/// bounds follow the measured spreads (inter-quartile range over ten
/// seeds ÷ median, README.md § Spreads): at least twice the widest
/// spread, and the cap of 25 % for the host clocks.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", false, 0.25, H),
    e2e("node_s_per_cpu_s", "node-s/cpu-s", true, 0.25, H),
    e2e("node_s_per_wall_s", "node-s/s", true, 0.25, H),
    e2e("cpu_us_per_op", "us", false, 0.25, H),
    e2e("peak_rss_mib", "MiB", false, 0.25, H),
    e2e("rtt_p50_ms", "ms", false, 0.03, S),
    e2e("rtt_p95_ms", "ms", false, 0.25, S),
    e2e("wire_bytes_per_node_s", "B/node-s", false, 0.10, S),
    e2e("ops_ok_share", "share", true, 0.03, S),
];

/// Per-layer metrics, reported by the traced run (`--trace 1`). The
/// layer is the name's first component.
pub const PER_LAYER: &[Metric] = &[
    // net (whisper-net)
    layer("net.events_per_node_s", "1/node-s", false, C),
    layer("net.msgs_per_op", "count", false, C),
    layer("net.bytes_per_msg", "B", false, C),
    layer("net.drop_share", "share", false, C),
    layer("net.nat_blocked_share", "share", false, C),
    layer("net.allocs_per_send", "count", false, C),
    layer("net.sched_ns_per_event", "ns", false, T),
    layer("net.engine_ns_per_event", "ns", false, T),
    layer("net.callback_ns_per_event", "ns", false, T),
    layer("net.encode_ns_per_event", "ns", false, T),
    layer("net.decode_ns_per_event", "ns", false, T),
    layer("net.msg_cb_p50_ns", "ns", false, T),
    layer("net.msg_cb_p99_ns", "ns", false, T),
    layer("net.timer_cb_p50_ns", "ns", false, T),
    layer("net.timer_cb_p99_ns", "ns", false, T),
    layer("net.barrier_wait_share", "share", false, H),
    layer("net.probe.queue_push_pop_ns", "ns", false, P),
    layer("net.probe.payload_take_recycle_ns", "ns", false, P),
    // pss (whisper-pss)
    layer("pss.gossip_per_node_s", "1/node-s", false, C),
    layer("pss.gossip_completed_share", "share", true, C),
    layer("pss.gossip_timeout_share", "share", false, C),
    layer("pss.punch_ok_share", "share", true, C),
    layer("pss.relay_fallback_share", "share", false, C),
    layer("pss.relayed_fwd_per_op", "count", false, C),
    layer("pss.send_failed_share", "share", false, C),
    layer("pss.stale_evicted_per_node_s", "1/node-s", false, C),
    layer("pss.probe.view_merge_ns", "ns", false, P),
    layer("pss.probe.make_buffer_ns", "ns", false, P),
    layer("pss.probe.gossip_encode_ns", "ns", false, P),
    layer("pss.probe.gossip_decode_ns", "ns", false, P),
    // wcl (whisper-core::wcl)
    layer("wcl.first_try_share", "share", true, C),
    layer("wcl.alt_success_share", "share", false, C),
    layer("wcl.exhausted_share", "share", false, C),
    layer("wcl.no_alt_share", "share", false, C),
    layer("wcl.retries_per_op", "count", false, C),
    layer("wcl.paths_built_per_op", "count", false, C),
    layer("wcl.circuit_hit_share", "share", true, C),
    layer("wcl.onion_relay_per_op", "count", false, C),
    layer("wcl.circuit_fwd_per_op", "count", false, C),
    layer("wcl.circuit_miss_drop_share", "share", false, C),
    layer("wcl.teardown_per_op", "count", false, C),
    layer("wcl.degraded_send_share", "share", false, C),
    layer("wcl.peel_failed", "count", false, C),
    layer("wcl.repair_p50_ms", "ms", false, C),
    layer("wcl.rto_p50_ms", "ms", false, C),
    layer("wcl.probe.send_cold_ns", "ns", false, P),
    layer("wcl.probe.send_warm_ns", "ns", false, P),
    // ppss (whisper-core::ppss)
    layer("ppss.exchanges_per_node_s", "1/node-s", false, C),
    layer("ppss.exchange_completed_share", "share", true, C),
    layer("ppss.join_completed_share", "share", true, C),
    layer("ppss.dropped_bad_passport", "count", false, C),
    layer("ppss.dropped_unknown_group", "count", false, C),
    layer("ppss.view_fill_share", "share", true, C),
    layer("ppss.probe.create_group_ns", "ns", false, P),
    layer("ppss.probe.invite_ns", "ns", false, P),
    layer("ppss.probe.join_ns", "ns", false, P),
    layer("ppss.probe.descriptor_sign_ns", "ns", false, P),
    layer("ppss.probe.descriptor_verify_ns", "ns", false, P),
    // crypto (whisper-crypto)
    layer("crypto.rsa_model_us_per_op", "us", false, C),
    layer("crypto.aes_model_us_per_op", "us", false, C),
    layer("crypto.p_over_n_ratio", "ratio", false, C),
    layer("crypto.wall_share", "share", false, T),
    layer("crypto.probe.onion_build3_ns", "ns", false, P),
    layer("crypto.probe.onion_peel_ns", "ns", false, P),
    layer("crypto.probe.onion_peel_1024_ns", "ns", false, P),
    layer("crypto.probe.circuit_seal3_32_ns", "ns", false, P),
    layer("crypto.probe.circuit_seal3_256_ns", "ns", false, P),
    layer("crypto.probe.circuit_seal3_1024_ns", "ns", false, P),
    layer("crypto.probe.circuit_peel_32_ns", "ns", false, P),
    layer("crypto.probe.circuit_peel_256_ns", "ns", false, P),
    layer("crypto.probe.circuit_peel_1024_ns", "ns", false, P),
    layer("crypto.probe.rsa_decrypt_ns", "ns", false, P),
    layer("crypto.probe.rsa_encrypt_ns", "ns", false, P),
    layer("crypto.probe.rsa_sign_ns", "ns", false, P),
    layer("crypto.probe.rsa_verify_ns", "ns", false, P),
    layer("crypto.probe.aes_ctr_ns_per_kib", "ns", false, P),
    layer("crypto.probe.sha256_ns_per_kib", "ns", false, P),
    layer("crypto.probe.keygen_ms", "ms", false, P),
    // app (the benchmark's load app at the GroupApp boundary)
    layer("app.no_route_share", "share", false, C),
    layer("app.deadline_share", "share", false, C),
    layer("app.sessions_stalled", "count", false, C),
    layer("app.goodput_share", "share", true, C),
    layer("app.send_call_p50_ns", "ns", false, T),
    layer("app.send_call_p99_ns", "ns", false, T),
    layer("app.reply_call_p50_ns", "ns", false, T),
    // attribution
    layer("est.crypto_share", "share", false, E),
    layer("est.codec_share", "share", false, E),
    layer("est.sched_share", "share", false, E),
    layer("est.engine_share", "share", false, E),
    layer("est.unexplained_share", "share", false, E),
    layer("trace.overhead_share", "share", false, T),
];
