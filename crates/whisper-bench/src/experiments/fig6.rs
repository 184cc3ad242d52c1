//! Fig. 6 — Public key sampling service: bandwidth cost per PSS cycle
//! for N- and P-nodes, across Π and P:N population ratios.
//!
//! Paper setting: 1,000 nodes on the cluster; configurations
//! `Unbiased` (Π = 0, no keys), `Unbiased + key sampling`, and
//! `Π ∈ {1,2,3} + key sampling`; ratios 80/20, 70/30, 50/50.
//!
//! Each configuration runs once per seed, and its bytes pool the nodes of
//! every run. The quick tier's 150-node populations hold a few dozen
//! P-nodes, so one run's key-sampling add-on swings from seed to seed by
//! about as much as the bound its flatness is held to: over seeds 1–60,
//! single runs break it on eight seeds, and every four consecutive runs
//! pooled hold it. The quick tier pools four.

use crate::harness::{par_map, NetBuilder};
use crate::report;
use whisper_net::metrics::traffic_delta;
use whisper_pss::NylonConfig;

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Population size.
    pub nodes: usize,
    /// Warm-up seconds before measuring.
    pub warmup: u64,
    /// Number of measured PSS cycles.
    pub cycles: u64,
    /// Engine seeds: one run per seed, ratio and configuration, pooled.
    pub seeds: Vec<u64>,
}

/// The public-node ratios swept: the paper's 20/30/50 %.
pub const RATIOS: [f64; 3] = [0.20, 0.30, 0.50];

impl Params {
    /// The paper's configuration.
    pub fn paper() -> Self {
        Params { nodes: 1000, warmup: 200, cycles: 10, seeds: vec![6] }
    }

    /// A fast smoke-test configuration, pooled over enough seeds that the
    /// key-sampling add-on's flatness shows through the runs' spread.
    pub fn quick() -> Self {
        Params { nodes: 150, warmup: 150, cycles: 5, seeds: (1..=4).collect() }
    }
}

/// The configurations of each population, in row order: label, Π, key
/// sampling.
pub const CONFIGS: [(&str, usize, bool); 5] = [
    ("Unbiased (no keys)", 0, false),
    ("Unbiased + KS", 0, true),
    ("Pi=1 + KS", 1, true),
    ("Pi=2 + KS", 2, true),
    ("Pi=3 + KS", 3, true),
];

/// Fig. 6: per public ratio, per [`CONFIGS`] row, KB per PSS cycle as
/// `[N up, N down, P up, P down]`.
#[derive(Clone, Debug)]
pub struct Fig6 {
    /// What was run.
    pub params: Params,
    /// One table per public ratio, in [`RATIOS`] order.
    pub tables: Vec<[[f64; 4]; 5]>,
}

/// Runs the experiment: the public ratios at once, across the cores.
pub fn run(params: &Params) -> Fig6 {
    let run_config = |ratio: f64, (_, pi, ks): (&str, usize, bool)| {
        let cfg = NylonConfig { key_sampling: ks, ..NylonConfig::with_pi(pi) };
        // Per column: the bytes over every seed's run, and the nodes that
        // moved them.
        let mut pooled = [(0, 0); 4];
        for &seed in &params.seeds {
            let builder = NetBuilder { public_ratio: ratio, ..NetBuilder::cluster(params.nodes, seed) };
            let mut net = builder.build_pss(&cfg);
            net.sim.run_for_secs(params.warmup);
            let before = net.sim.metrics().traffic_snapshot();
            net.sim.run_for_secs(params.cycles * whisper_pss::nylon::CYCLE.as_secs());
            let delta = traffic_delta(&before, &net.sim.metrics().traffic_snapshot());
            let (publics, natted) = (net.publics(), net.natted());
            let columns = [(&natted, true), (&natted, false), (&publics, true), (&publics, false)];
            for ((bytes, nodes), (ids, up)) in pooled.iter_mut().zip(columns) {
                let moved = ids.iter().filter_map(|id| delta.get(id));
                *bytes += moved.map(|t| if up { t.up_bytes } else { t.down_bytes }).sum::<u64>();
                *nodes += ids.len();
            }
        }
        pooled.map(|(bytes, nodes)| bytes as f64 / nodes.max(1) as f64 / params.cycles as f64 / 1024.0)
    };
    let tables = par_map(&RATIOS, |&ratio| CONFIGS.map(|config| run_config(ratio, config)));
    Fig6 { params: params.clone(), tables }
}

impl Fig6 {
    /// Prints Fig. 6-style output.
    pub fn print(&self) {
        report::banner("Figure 6", "public key sampling service: bandwidth per PSS cycle");
        let params = &self.params;
        println!(
            "nodes={} warmup={}s measured_cycles={} seeds={}",
            params.nodes,
            params.warmup,
            params.cycles,
            params.seeds.len()
        );
        for (ratio, table) in RATIOS.iter().zip(&self.tables) {
            report::section(&format!(
                "population N:{:.0}% - P:{:.0}%",
                (1.0 - ratio) * 100.0,
                ratio * 100.0
            ));
            println!(
                "{:<22} {:>12} {:>12} {:>12} {:>12}",
                "config", "N up KB/cyc", "N down KB/cyc", "P up KB/cyc", "P down KB/cyc"
            );
            for ((label, ..), [n_up, n_down, p_up, p_down]) in CONFIGS.iter().zip(table) {
                println!("{label:<22} {n_up:>12.3} {n_down:>12.3} {p_up:>12.3} {p_down:>12.3}");
            }
        }
    }
}
