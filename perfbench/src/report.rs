//! Turns a measured run into the named metrics of the catalogue.

use std::collections::BTreeMap;

use crate::host;
use crate::probes::Probes;
use crate::run::{Checkpoint, Measured, Window, DROP_COUNTERS};
use crate::spec::Spec;
use crate::trace;

/// Metric name → value.
pub type Values = BTreeMap<&'static str, f64>;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn median_window(windows: &[Window], f: impl Fn(&Window) -> f64) -> f64 {
    host::median(windows.iter().map(f).collect())
}

/// The `p`-quantile of sorted simulated round-trip times, in ms.
fn rtt_ms(sorted_us: &[u32], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    sorted_us[idx] as f64 / 1000.0
}

/// End-to-end metrics of an untraced run. `setup_s` is the median of the
/// run's set-ups.
pub fn end_to_end(m: &Measured, setup_s: f64) -> Values {
    let c = &m.checkpoint;
    let mut v = Values::new();
    v.insert("setup_s", setup_s);
    v.insert("node_s_per_cpu_s", median_window(&m.windows, |w| ratio(w.node_s, w.cpu_s)));
    v.insert("node_s_per_wall_s", median_window(&m.windows, |w| ratio(w.node_s, w.wall_s)));
    v.insert(
        "cpu_us_per_op",
        median_window(&m.windows, |w| ratio(w.cpu_s * 1e6, w.ops_done as f64)),
    );
    v.insert("peak_rss_mib", c.peak_rss_mib);
    v.insert("rtt_p50_ms", rtt_ms(&c.rtt_us, 0.50));
    v.insert("rtt_p95_ms", rtt_ms(&c.rtt_us, 0.95));
    v.insert("wire_bytes_per_node_s", ratio(c.up_bytes as f64, c.node_s));
    v.insert("ops_ok_share", ratio(c.ops_ok as f64, c.ops_attempted as f64));
    v
}

/// Per-layer metrics: counter ratios from the (untraced) checkpoint,
/// timings from the traced run, probes, and the attribution estimate.
pub fn per_layer(spec: &Spec, untraced: &Measured, traced: &Checkpoint, probes: &Probes) -> Values {
    let c = &untraced.checkpoint;
    let n = |name: &str| c.counters.get(name).copied().unwrap_or(0) as f64;
    let t = |name: &str| traced.counters.get(name).copied().unwrap_or(0) as f64;
    let ops = c.ops_attempted as f64;
    let up = c.up_msgs as f64;
    let mut v = Values::new();

    // net
    let events = t("prof.events");
    v.insert("net.events_per_node_s", ratio(events, c.node_s));
    v.insert("net.msgs_per_op", ratio(up, ops));
    v.insert("net.bytes_per_msg", ratio(c.up_bytes as f64, up));
    let drops: f64 = DROP_COUNTERS.iter().map(|name| n(name)).sum();
    v.insert("net.drop_share", ratio(drops, up));
    v.insert("net.nat_blocked_share", ratio(n("net.nat_blocked"), up));
    let sends = n("net.allocs") + n("net.payload_cloned") + n("net.payload_pooled");
    v.insert("net.allocs_per_send", ratio(n("net.allocs") + n("net.pool_misses"), sends));
    for (metric, bucket) in [
        ("net.sched_ns_per_event", "prof.sched_ns"),
        ("net.engine_ns_per_event", "prof.engine_ns"),
        ("net.callback_ns_per_event", "prof.callback_ns"),
        ("net.encode_ns_per_event", "prof.encode_ns"),
        ("net.decode_ns_per_event", "prof.decode_ns"),
    ] {
        v.insert(metric, ratio(t(bucket), events));
    }
    v.insert("net.msg_cb_p50_ns", trace::quantile_ns(trace::NODE_ON_MESSAGE, 0.50));
    v.insert("net.msg_cb_p99_ns", trace::quantile_ns(trace::NODE_ON_MESSAGE, 0.99));
    v.insert("net.timer_cb_p50_ns", trace::quantile_ns(trace::NODE_ON_TIMER, 0.50));
    v.insert("net.timer_cb_p99_ns", trace::quantile_ns(trace::NODE_ON_TIMER, 0.99));
    let threads = spec.shards() as f64;
    let busy = median_window(&untraced.windows, |w| ratio(w.cpu_s, w.wall_s * threads));
    v.insert("net.barrier_wait_share", if spec.shards() > 1 { (1.0 - busy).max(0.0) } else { 0.0 });

    // pss
    let gossips = n("pss.gossip_initiated");
    v.insert("pss.gossip_per_node_s", ratio(gossips, c.node_s));
    v.insert("pss.gossip_completed_share", ratio(n("pss.gossip_completed"), gossips));
    v.insert("pss.gossip_timeout_share", ratio(n("pss.gossip_timeout"), gossips));
    v.insert("pss.punch_ok_share", ratio(n("pss.open_punch_ok"), n("pss.open_started")));
    v.insert(
        "pss.relay_fallback_share",
        ratio(n("pss.open_relay_fallback"), n("pss.open_started")),
    );
    v.insert("pss.relayed_fwd_per_op", ratio(n("pss.relayed_forwarded"), ops));
    v.insert("pss.send_failed_share", ratio(n("pss.send_failed"), up));
    v.insert("pss.stale_evicted_per_node_s", ratio(n("pss.stale_evicted"), c.node_s));

    // wcl
    let attempts = n("wcl.route_attempts");
    v.insert("wcl.first_try_share", ratio(n("wcl.route_first_success"), attempts));
    v.insert("wcl.alt_success_share", ratio(n("wcl.route_alt_success"), attempts));
    v.insert("wcl.exhausted_share", ratio(n("wcl.route_exhausted"), attempts));
    v.insert("wcl.no_alt_share", ratio(n("wcl.route_no_alt"), attempts));
    v.insert("wcl.retries_per_op", ratio(n("wcl.route_retry"), ops));
    let (hits, built) = (n("wcl.circuit_hit"), n("wcl.paths_built"));
    v.insert("wcl.paths_built_per_op", ratio(built, ops));
    v.insert("wcl.circuit_hit_share", ratio(hits, hits + built));
    let onion_relays = n("wcl.relayed") - n("wcl.circuit_forwarded");
    v.insert("wcl.onion_relay_per_op", ratio(onion_relays, ops));
    v.insert("wcl.circuit_fwd_per_op", ratio(n("wcl.circuit_forwarded"), ops));
    let circuit_rx = n("wcl.circuit_forwarded") + n("wcl.circuit_delivered");
    let misses = n("wcl.circuit_miss_drop");
    v.insert("wcl.circuit_miss_drop_share", ratio(misses, circuit_rx + misses));
    v.insert("wcl.teardown_per_op", ratio(n("wcl.circuit_teardown"), ops));
    v.insert("wcl.degraded_send_share", ratio(n("wcl.degraded_send"), hits + built));
    v.insert("wcl.peel_failed", n("wcl.peel_failed"));
    v.insert("wcl.repair_p50_ms", c.repair_p50_ms);
    v.insert("wcl.rto_p50_ms", c.rto_p50_ms);

    // ppss
    let exchanges = n("ppss.exchanges_initiated");
    v.insert("ppss.exchanges_per_node_s", ratio(exchanges, c.node_s));
    v.insert("ppss.exchange_completed_share", ratio(n("ppss.exchanges_completed"), exchanges));
    v.insert(
        "ppss.join_completed_share",
        ratio(n("ppss.joins_completed"), n("ppss.join_attempts")),
    );
    v.insert("ppss.dropped_bad_passport", n("ppss.dropped_bad_passport"));
    v.insert("ppss.dropped_unknown_group", n("ppss.dropped_unknown_group"));
    v.insert("ppss.view_fill_share", c.view_fill_share);

    // crypto
    let [rsa_p, rsa_n, aes_p, aes_n] = c.crypto_us;
    v.insert("crypto.rsa_model_us_per_op", ratio(rsa_p + rsa_n, ops));
    v.insert("crypto.aes_model_us_per_op", ratio(aes_p + aes_n, ops));
    let per_p = ratio(rsa_p + aes_p, c.public_nodes as f64);
    let per_n = ratio(rsa_n + aes_n, (c.live_nodes - c.public_nodes) as f64);
    v.insert("crypto.p_over_n_ratio", ratio(per_p, per_n));
    let prof_total = t("prof.sched_ns") + t("prof.engine_ns") + t("prof.callback_ns");
    v.insert("crypto.wall_share", ratio(t("prof.crypto_model_ns"), prof_total));

    // app
    v.insert("app.no_route_share", ratio(c.app.no_route as f64, ops));
    v.insert("app.deadline_share", ratio(c.app.deadline as f64, ops));
    v.insert("app.sessions_stalled", c.sessions_stalled as f64);
    v.insert("app.goodput_share", ratio(c.app.acked_bytes as f64, c.up_bytes as f64));
    v.insert("app.send_call_p50_ns", trace::quantile_ns(trace::APP_SEND_CALL, 0.50));
    v.insert("app.send_call_p99_ns", trace::quantile_ns(trace::APP_SEND_CALL, 0.99));
    v.insert("app.reply_call_p50_ns", trace::quantile_ns(trace::APP_REPLY_CALL, 0.50));

    // probes
    v.extend(probes.values.iter().map(|(&k, &x)| (k, x)));

    // Attribution: counts × unit costs ÷ measured CPU. Sealed and peeled
    // bodies are larger than the app payload (passport, reply entry), so
    // the crypto estimate is a floor; the residual is what an in-program
    // per-layer profiler has to explain.
    let p = |name: &str| probes.values.get(name).copied().unwrap_or(0.0);
    let sizes = if spec.payloads.is_empty() { &[256][..] } else { spec.payloads };
    let mean_of = |prefix: &str| {
        sizes.iter().map(|s| p(&format!("crypto.probe.{prefix}_{s}_ns"))).sum::<f64>()
            / sizes.len() as f64
    };
    let onion_peels =
        onion_relays + n("wcl.delivered") - n("wcl.circuit_delivered") + n("wcl.peel_failed");
    let crypto_ns = built * p("crypto.probe.onion_build3_ns")
        + onion_peels * p("crypto.probe.onion_peel_ns")
        + hits * mean_of("circuit_seal3")
        + circuit_rx * mean_of("circuit_peel")
        + n("wcl.delivered") * p("crypto.probe.rsa_verify_ns")
        + n("ppss.desc_published") * p("ppss.probe.descriptor_sign_ns");
    let gossip_msgs = gossips + n("pss.gossip_served");
    let codec_ns =
        gossip_msgs * (p("pss.probe.gossip_encode_ns") + p("pss.probe.gossip_decode_ns"));
    let sched_ns = events * p("net.probe.queue_push_pop_ns");
    let engine_ns = up * p("net.probe.payload_take_recycle_ns");
    let cpu_ns = c.cpu_s * 1e9;
    let shares = [
        ("est.crypto_share", ratio(crypto_ns, cpu_ns)),
        ("est.codec_share", ratio(codec_ns, cpu_ns)),
        ("est.sched_share", ratio(sched_ns, cpu_ns)),
        ("est.engine_share", ratio(engine_ns, cpu_ns)),
    ];
    let explained: f64 = shares.iter().map(|(_, s)| s).sum();
    v.extend(shares);
    v.insert("est.unexplained_share", 1.0 - explained);
    v.insert("trace.overhead_share", ratio(traced.cpu_s - c.cpu_s, c.cpu_s));
    v
}
