//! Table I — Availability of anonymizing routes under churn: the ratio of
//! WCL route constructions that succeed first-hand, succeed over an
//! alternative path, or find no alternative.
//!
//! Paper setting: ~1,000 nodes, 20 private groups (one random group per
//! node), Π = 3, churn rates X ∈ {0, 0.2, 1, 5, 10}% of the network per
//! minute with 100% replacement, following the SPLAY script printed under
//! the table.

use crate::harness::{NetBuilder, WhisperNet};
use crate::report;
use whisper_rand::rngs::StdRng;
use whisper_rand::{Rng, SeedableRng};
use whisper_net::NodeId;

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Population size.
    pub nodes: usize,
    /// Number of private groups.
    pub groups: usize,
    /// Churn rates in %/minute.
    pub churn_rates: Vec<f64>,
    /// Warm-up before group formation (PSS convergence), seconds.
    pub warmup: u64,
    /// Settling time between group formation and churn start, seconds.
    pub settle: u64,
    /// Churn (and measurement) window, seconds.
    pub churn_window: u64,
    /// Engine seed.
    pub seed: u64,
}

impl Params {
    /// The paper's configuration.
    pub fn paper() -> Self {
        Params {
            nodes: 1000,
            groups: 20,
            churn_rates: vec![0.0, 0.2, 1.0, 5.0, 10.0],
            warmup: 250,
            settle: 250,
            churn_window: 900,
            seed: 7,
        }
    }

    /// A fast smoke-test configuration.
    pub fn quick() -> Self {
        Params {
            nodes: 200,
            groups: 5,
            churn_rates: vec![0.0, 1.0, 5.0],
            warmup: 250,
            settle: 200,
            churn_window: 300,
            ..Params::paper()
        }
    }
}

struct Ratios {
    success: f64,
    alt: f64,
    no_alt: f64,
    attempts: u64,
    dest_failures: u64,
}

fn run_one(params: &Params, x_percent: f64) -> Ratios {
    let mut net = NetBuilder::cluster(params.nodes, params.seed)
        .build_whisper(|_| Box::new(whisper_core::node::NoApp));
    net.sim.run_for_secs(params.warmup);

    // One leader (P-node) per group, as in the paper where each group is
    // created by a P-node.
    let publics = net.publics();
    let leaders: Vec<NodeId> = publics.into_iter().take(params.groups).collect();
    assert!(leaders.len() == params.groups, "not enough P-nodes for leaders");
    let groups = net.create_groups(&leaders, "table1");
    net.subscribe_members(&leaders, &groups, 1, params.seed ^ 0x51);
    net.sim.run_for_secs(params.settle);

    // Measure only during the churn window.
    net.sim.metrics_mut().reset_counters_and_samples();

    let mut key_rng = StdRng::seed_from_u64(params.seed ^ 0xC0FFEE);
    let mut group_rng = StdRng::seed_from_u64(params.seed ^ 0x9);
    let leaves_per_min = (params.nodes as f64 * x_percent / 100.0).round() as usize;
    let minutes = params.churn_window / 60;
    let mut protected: Vec<NodeId> = leaders.clone();
    protected.extend((0..net.builder.bootstraps as u64).map(NodeId));
    for _minute in 0..minutes {
        net.sim.run_for_secs(60);
        if leaves_per_min == 0 {
            continue;
        }
        for _ in 0..leaves_per_min {
            let candidates: Vec<NodeId> = net
                .live()
                .into_iter()
                .filter(|id| !protected.contains(id))
                .collect();
            if candidates.is_empty() {
                break;
            }
            let victim = candidates[net.sim.rng().gen_range(0..candidates.len())];
            net.sim.remove_node(victim);
        }
        for _ in 0..leaves_per_min {
            // 100% replacement ratio: each replacement joins one random
            // group once its PSS has warmed up (the PPSS join retries
            // until the leader answers).
            let gi = group_rng.gen_range(0..groups.len());
            net.spawn_node(&mut key_rng, Some((leaders[gi], groups[gi])));
        }
    }
    // Let in-flight retries resolve before reading the counters.
    net.sim.run_for_secs(30);

    extract_ratios(&net)
}

fn extract_ratios(net: &WhisperNet) -> Ratios {
    let m = net.sim.metrics();
    if std::env::var("WHISPER_DEBUG_COUNTERS").is_ok() {
        for name in m.counter_names() {
            println!("    {name} = {}", m.counter(name));
        }
    }
    let first = m.counter("wcl.route_first_success");
    let alt = m.counter("wcl.route_alt_success");
    // The paper's footnote 3 excludes destination failures from the route
    // statistics ("we do not consider that the failure of the destination
    // node is a WCL route failure"). Like the authors, we have ground
    // truth: a failure whose destination has left the network is a
    // destination failure; one whose destination is still alive is a
    // genuine routing failure. (Under 100%-replacement churn node ids are
    // never reused, so liveness-at-end equals liveness-at-failure for
    // departed nodes.)
    let mut no_alt_live = 0u64;
    let mut dest_failures = 0u64;
    for &dest in m.samples("wcl.failed_dest_noalt") {
        if net.sim.contains(whisper_net::NodeId(dest as u64)) {
            no_alt_live += 1;
        } else {
            dest_failures += 1;
        }
    }
    // Exhausted retries (alternatives existed, none answered): the same
    // classification applies.
    let mut exhausted_live = 0u64;
    for &dest in m.samples("wcl.failed_dest_exhausted") {
        if net.sim.contains(whisper_net::NodeId(dest as u64)) {
            exhausted_live += 1;
        } else {
            dest_failures += 1;
        }
    }
    // A live destination that never answered despite exhausting retries
    // counts against the route ("alternative existed but none worked" has
    // no column in the paper's table; we fold it into No alt.).
    let no_alt = no_alt_live + exhausted_live;
    let total = (first + alt + no_alt).max(1);
    Ratios {
        success: first as f64 / total as f64 * 100.0,
        alt: alt as f64 / total as f64 * 100.0,
        no_alt: no_alt as f64 / total as f64 * 100.0,
        attempts: first + alt + no_alt + dest_failures,
        dest_failures,
    }
}

/// Fault-plan extension (PR 4): route availability under scripted burst
/// loss and partitions, with the adaptive RTO against the paper's fixed
/// 2 s retry timer. Records delivery ratio (percent) and mean
/// route-repair latency (milliseconds) per `(scenario, timer)` cell into
/// the `WHISPER_BENCH_JSON` merge file under `chaos/...` ids.
pub fn run_fault_scenarios(quick: bool, seed: u64) {
    use crate::chaos::{run_scenario, ChaosParams, Scenario};
    use whisper_rand::bench::Bench;

    report::banner(
        "Table I ext.",
        "delivery + route repair under scripted faults (adaptive vs. fixed RTO)",
    );
    let base = if quick { ChaosParams::smoke(seed) } else { ChaosParams::full(seed) };
    println!(
        "nodes={} groups={} fault window={}s seed={}",
        base.nodes, base.groups, base.fault_len, base.seed
    );
    println!(
        "{:<14} {:>10} {:>12} {:>14} {:>10}",
        "scenario", "timer", "delivery", "repair (ms)", "repairs"
    );
    let mut bench = Bench::new();
    for scenario in [Scenario::BurstLoss, Scenario::Partition] {
        for adaptive in [true, false] {
            let params = ChaosParams { adaptive_rto: adaptive, ..base.clone() };
            let out = run_scenario(scenario, &params);
            assert_eq!(
                out.unattributed, 0,
                "{}: unattributed drops in bench run",
                scenario.name()
            );
            let timer = if adaptive { "adaptive" } else { "fixed" };
            println!(
                "{:<14} {:>10} {:>11.1}% {:>14.1} {:>10}",
                scenario.name(),
                timer,
                out.delivery_ratio() * 100.0,
                out.repair_mean_s() * 1e3,
                out.repair_s.len()
            );
            let id = |metric: &str| format!("chaos/{}_{}_{}", scenario.name(), timer, metric);
            bench.record(id("delivery_pct"), out.delivery_ratio() * 100.0);
            bench.record(id("repair_ms"), out.repair_mean_s() * 1e3);
            bench.record(id("repairs"), out.repair_s.len() as f64);
        }
    }
    bench.emit_json();
}

/// Runs the experiment and prints Table I.
pub fn run(params: &Params) {
    report::banner("Table I", "WCL route construction success under churn");
    println!(
        "nodes={} groups={} Π=3 churn window={}s (script: joins over warmup, set replacement 100%, const churn each 60s, stop)",
        params.nodes, params.groups, params.churn_window
    );
    println!(
        "{:<34} {:>10} {:>10} {:>10} {:>12} {:>12}",
        "churn", "Success", "Alt.", "No alt.", "routes", "dest-fail"
    );
    for &x in &params.churn_rates {
        let label = if x == 0.0 {
            "No churn".to_string()
        } else {
            let per_15min = (params.nodes as f64 * x / 100.0 * 15.0).round();
            format!("X={x}%/min ({per_15min:.0} leave&join/15min)")
        };
        let r = run_one(params, x);
        println!(
            "{:<34} {:>9.2}% {:>9.2}% {:>9.2}% {:>12} {:>12}",
            label, r.success, r.alt, r.no_alt, r.attempts, r.dest_failures
        );
    }
}
