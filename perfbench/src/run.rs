//! One measured run: set-up, measured windows, checkpoint, checks.
//!
//! Two clocks. *Simulated* results (round-trip times, bytes, counters)
//! are pure functions of seed + protocol logic; they are taken from the
//! first [`PREFIX_WINDOWS`] windows of the run's last population only, so
//! they repeat exactly however fast the host is. *Host* results (CPU,
//! wall) are taken per window, on every population of the run, and
//! reported as the median window.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::host;
use crate::load::{AppStats, GossipNode, LoadApp};
use crate::population::{self, hex, Inputs, Population};
use crate::spec::{Spec, PREFIX_WINDOWS};
use whisper_core::WhisperNode;
use whisper_crypto::sha256::Sha256;
use whisper_net::metrics::Metrics;

/// Counters that, with deliveries and messages in flight, account for
/// every send.
pub const DROP_COUNTERS: [&str; 6] = [
    "net.lost",
    "net.lost_burst",
    "net.drop_partition",
    "net.drop_crashed",
    "net.drop_dead_target",
    "net.nat_blocked",
];

/// Host cost of one measured window.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    pub cpu_s: f64,
    pub wall_s: f64,
    /// Live nodes × simulated seconds.
    pub node_s: f64,
    /// Ops completed in the window.
    pub ops_done: u64,
}

/// Simulated results of the first [`PREFIX_WINDOWS`] windows.
pub struct Checkpoint {
    pub counters: BTreeMap<String, u64>,
    /// Sums of the crypto cost-model series, µs: (rsa P, rsa N, aes P, aes N).
    pub crypto_us: [f64; 4],
    pub repair_p50_ms: f64,
    pub rto_p50_ms: f64,
    pub up_msgs: u64,
    pub up_bytes: u64,
    pub node_s: f64,
    pub live_nodes: usize,
    pub public_nodes: usize,
    pub app: AppStats,
    pub sessions_stalled: u64,
    /// Round-trip time of every op that completed, µs of simulated time,
    /// sorted. Ops that did not complete are in `ops_attempted − ops_ok`.
    pub rtt_us: Vec<u32>,
    pub ops_attempted: u64,
    pub ops_ok: u64,
    pub view_fill_share: f64,
    pub peak_rss_mib: f64,
    pub cpu_s: f64,
    pub sim_digest: String,
    /// Violated checks, empty when the run is correct.
    pub violations: Vec<String>,
}

/// A finished measured phase.
pub struct Measured {
    pub windows: Vec<Window>,
    pub checkpoint: Checkpoint,
}

/// Generates the inputs and builds a population up to the end of its
/// ramp. Returns it with the wall seconds that took.
pub fn set_up(spec: &Spec, seed: u64, traced: bool) -> (Population, Inputs, f64) {
    let t0 = Instant::now();
    let inputs = population::generate(spec, seed);
    let pop = Population::build(spec, &inputs, traced);
    (pop, inputs, t0.elapsed().as_secs_f64())
}

/// Cumulative wire totals, taken when the measured phase begins and again
/// at the checkpoint (the engine never resets per-node traffic).
#[derive(Clone, Copy)]
struct WireTotals {
    up_msgs: u64,
    up_bytes: u64,
    down_msgs: u64,
    in_flight: u64,
}

fn wire_totals(pop: &Population) -> WireTotals {
    let m = pop.sim.metrics();
    let mut w =
        WireTotals { up_msgs: 0, up_bytes: 0, down_msgs: 0, in_flight: pop.sim.in_flight_msgs() };
    for &id in &pop.ids {
        let t = m.traffic(id);
        w.up_msgs += t.up_msgs;
        w.up_bytes += t.up_bytes;
        w.down_msgs += t.down_msgs;
    }
    w
}

fn apps(pop: &Population) -> impl Iterator<Item = &LoadApp> {
    pop.ids
        .iter()
        .filter_map(|&id| pop.sim.node::<WhisperNode>(id))
        .filter_map(|n| n.app::<LoadApp>())
}

/// Ops completed since the counters were last reset.
fn ops_done(pop: &Population) -> u64 {
    if pop.spec.full_stack {
        apps(pop).map(|a| a.stats.acked).sum()
    } else {
        pop.sim.metrics().counter("pss.gossip_completed")
    }
}

fn reset_accounting(pop: &mut Population) {
    pop.sim.metrics_mut().reset_counters_and_samples();
    for i in 0..pop.ids.len() {
        let id = pop.ids[i];
        if let Some(node) = pop.sim.node_mut::<WhisperNode>(id) {
            node.with_api(|_, app| {
                app.as_any_mut().downcast_mut::<LoadApp>().expect("LoadApp").reset();
            });
        } else if let Some(node) = pop.sim.node_mut::<GossipNode>(id) {
            node.rtt_us.clear();
        }
    }
}

/// Advances the population by one window and reads the host clocks
/// around it. `done_before` is the op count when the window began.
fn timed_window(pop: &mut Population, done_before: u64) -> Window {
    let (cpu0, wall0) = (host::cpu_seconds(), Instant::now());
    pop.advance(pop.spec.window_s);
    let (cpu_s, wall_s) = (host::cpu_seconds() - cpu0, wall0.elapsed().as_secs_f64());
    Window {
        cpu_s,
        wall_s,
        node_s: pop.sim.len() as f64 * pop.spec.window_s as f64,
        ops_done: ops_done(pop) - done_before,
    }
}

/// Whether one more window like `last` still fits into `seconds` of wall
/// time counted from `started`.
fn fits(started: Instant, last: &Window, seconds: f64) -> bool {
    started.elapsed().as_secs_f64() + last.wall_s <= seconds
}

/// Host cost of the first windows of a population whose simulated results
/// are not needed: at least `min_windows`, then as many more as fit into
/// `seconds`. A run's earlier populations do exactly the work its last
/// one does, so timing windows on each samples the host's speed at
/// moments seconds apart. This host slows down by half for ten seconds at
/// a time; one block of windows at the end of the run would often sit
/// inside such a phase entirely, and then no median over it helps.
pub fn host_windows(pop: &mut Population, min_windows: usize, seconds: f64) -> Vec<Window> {
    let started = Instant::now();
    let mut windows: Vec<Window> = Vec::new();
    while windows.len() < min_windows
        || fits(started, windows.last().expect("a window ran"), seconds)
    {
        reset_accounting(pop);
        windows.push(timed_window(pop, 0));
    }
    windows
}

/// Runs the measured phase: [`PREFIX_WINDOWS`] windows, then as many more
/// as fit into `seconds` of wall time counted from its beginning.
pub fn measure(pop: &mut Population, seconds: f64) -> Measured {
    reset_accounting(pop);
    let before = wire_totals(pop);
    let started = Instant::now();
    let cpu_started = host::cpu_seconds();
    let mut windows: Vec<Window> = Vec::new();
    for _ in 0..PREFIX_WINDOWS {
        let done_before = windows.iter().map(|w| w.ops_done).sum();
        windows.push(timed_window(pop, done_before));
    }
    let cpu_s = host::cpu_seconds() - cpu_started;
    let node_s = windows.iter().map(|w| w.node_s).sum();
    let checkpoint = take_checkpoint(pop, before, node_s, cpu_s);
    // The simulated results are in; from here on only host time is
    // sampled, so the stack's sample series need not pile up.
    while fits(started, windows.last().expect("the prefix ran"), seconds) {
        reset_accounting(pop);
        windows.push(timed_window(pop, 0));
    }
    Measured { windows, checkpoint }
}

fn take_checkpoint(pop: &Population, before: WireTotals, node_s: f64, cpu_s: f64) -> Checkpoint {
    let m = pop.sim.metrics();
    let counters: BTreeMap<String, u64> =
        m.counter_names().map(|n| (n.to_string(), m.counter(n))).collect();
    let sum = |name: &str| m.samples(name).iter().sum::<f64>();
    let crypto_us = [
        sum("crypto.rsa_us.pnode"),
        sum("crypto.rsa_us.nnode"),
        sum("crypto.aes_us.pnode"),
        sum("crypto.aes_us.nnode"),
    ];

    let after = wire_totals(pop);
    let drops: u64 = DROP_COUNTERS.iter().map(|n| m.counter(n)).sum();
    // `Σup + in flight before = Σdown + Σ named drops + in flight after`.
    let unattributed = (after.up_msgs - before.up_msgs + before.in_flight) as i64
        - ((after.down_msgs - before.down_msgs) + drops + after.in_flight) as i64;
    let mut violations = Vec::new();
    if unattributed != 0 {
        violations.push(format!("drop attribution: {unattributed} messages unaccounted for"));
    }

    let mut app = AppStats::default();
    let mut sessions_stalled = 0;
    let mut rtt_us: Vec<u32> = Vec::new();
    let (mut view_entries, mut view_slots) = (0usize, 0usize);
    let (ops_attempted, ops_ok);
    if pop.spec.full_stack {
        for a in apps(pop) {
            let s = a.stats;
            if s.sent != s.acked + s.deadline + a.in_flight() {
                violations.push(format!(
                    "app accounting: sent {} != acked {} + deadline {} + in flight {}",
                    s.sent,
                    s.acked,
                    s.deadline,
                    a.in_flight()
                ));
            }
            app.sent += s.sent;
            app.acked += s.acked;
            app.deadline += s.deadline;
            app.no_route += s.no_route;
            app.bad_echo += s.bad_echo;
            app.acked_bytes += s.acked_bytes;
            sessions_stalled += a.stalled();
            rtt_us.extend_from_slice(&a.rtt_us);
        }
        if app.bad_echo != 0 {
            violations.push(format!("{} replies did not echo their request", app.bad_echo));
        }
        ops_attempted = app.acked + app.deadline + app.no_route;
        ops_ok = app.acked;
        let view_size = pop.cfg.ppss.view_size;
        for node in pop.ids.iter().filter_map(|&id| pop.sim.node::<WhisperNode>(id)) {
            for g in node.ppss().group_ids() {
                view_entries += node.ppss().group(g).map_or(0, |s| s.view().len().min(view_size));
                view_slots += view_size;
            }
        }
    } else {
        for node in pop.ids.iter().filter_map(|&id| pop.sim.node::<GossipNode>(id)) {
            rtt_us.extend_from_slice(&node.rtt_us);
        }
        ops_ok = m.counter("pss.gossip_completed");
        ops_attempted = ops_ok + m.counter("pss.gossip_timeout");
    }
    rtt_us.sort_unstable();
    if !pop.spec.planetlab && !pop.spec.churn && pop.spec.full_stack {
        // Nothing loses messages here, so a lost request is a defect.
        if (ops_attempted - ops_ok) as f64 > 0.001 * ops_attempted as f64 {
            violations.push(format!(
                "{} of {} requests failed on a lossless network",
                ops_attempted - ops_ok,
                ops_attempted
            ));
        }
    }

    let public_nodes = pop
        .sim
        .node_ids()
        .into_iter()
        .filter(|&id| pop.sim.nat_type(id).is_some_and(|t| t.is_public()))
        .count();

    Checkpoint {
        crypto_us,
        repair_p50_ms: host::median(m.samples("wcl.repair_s").to_vec()) * 1e3,
        rto_p50_ms: host::median(m.samples("wcl.rto_s").to_vec()) * 1e3,
        up_msgs: after.up_msgs - before.up_msgs,
        up_bytes: after.up_bytes - before.up_bytes,
        node_s,
        live_nodes: pop.sim.len(),
        public_nodes,
        app,
        sessions_stalled,
        ops_attempted,
        ops_ok,
        view_fill_share: if view_slots == 0 {
            0.0
        } else {
            view_entries as f64 / view_slots as f64
        },
        peak_rss_mib: host::peak_rss_mib(),
        cpu_s,
        sim_digest: sim_digest(pop, m, &rtt_us),
        rtt_us,
        counters,
        violations,
    }
}

/// SHA-256 over every deterministic observable of the run so far:
/// counters, sample series, per-node traffic, the clock and the ops'
/// round-trip times. Left out are the host-dependent families:
/// `net.pool_*` and `prof.*` counters and `*_wall_us` series.
fn sim_digest(pop: &Population, m: &Metrics, rtt_us: &[u32]) -> String {
    let mut h = Sha256::new();
    for name in m.counter_names() {
        if name.starts_with("net.pool_") || name.starts_with("prof.") {
            continue;
        }
        h.update(name.as_bytes());
        h.update(&m.counter(name).to_le_bytes());
    }
    let mut buf = Vec::new();
    for name in m.sample_names().filter(|n| !n.ends_with("_wall_us")) {
        h.update(name.as_bytes());
        buf.clear();
        buf.extend(m.samples(name).iter().flat_map(|v| v.to_le_bytes()));
        h.update(&buf);
    }
    buf.clear();
    for &id in &pop.ids {
        let t = m.traffic(id);
        for v in [t.up_bytes, t.down_bytes, t.up_msgs, t.down_msgs] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    buf.extend_from_slice(&pop.sim.now().as_micros().to_le_bytes());
    buf.extend(rtt_us.iter().flat_map(|v| v.to_le_bytes()));
    h.update(&buf);
    hex(&h.finalize())
}
