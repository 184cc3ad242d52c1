//! Fig. 7 — Breakdown of PPSS private-view exchange round-trip times over
//! WCL channels, on the cluster (1,000 nodes) and PlanetLab (400 nodes)
//! profiles.
//!
//! Components reported, as in the paper: onion path construction time
//! (request+response sides are symmetric here), RSA decryption time at
//! the mixes/destination, and the total exchange RTT, which is dominated
//! by network delays.

use crate::harness::NetBuilder;
use crate::report;
use whisper_net::stats::Cdf;

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Cluster population.
    pub cluster_nodes: usize,
    /// PlanetLab population.
    pub planetlab_nodes: usize,
    /// Number of private groups.
    pub groups: usize,
    /// Warm-up seconds.
    pub warmup: u64,
    /// Measured seconds (PPSS cycle = 60 s → one exchange per member per
    /// minute).
    pub measure: u64,
}

/// Engine seed of the cluster run; the PlanetLab run takes the next one.
const SEED: u64 = 8;

impl Params {
    /// The paper's configuration.
    pub fn paper() -> Self {
        Params {
            cluster_nodes: 1000,
            planetlab_nodes: 400,
            groups: 20,
            warmup: 400,
            measure: 300,
        }
    }

    /// A fast smoke-test configuration.
    pub fn quick() -> Self {
        Params {
            cluster_nodes: 150,
            planetlab_nodes: 100,
            groups: 4,
            warmup: 350,
            measure: 180,
        }
    }
}

/// What one profile measured.
#[derive(Clone, Debug)]
pub struct Profile {
    /// `cluster` or `PlanetLab`.
    pub label: &'static str,
    /// Population size.
    pub nodes: usize,
    /// Onion path constructions, µs each.
    pub build_us: Cdf,
    /// RSA decryptions at the mixes and the destination, µs each.
    pub peel_us: Cdf,
    /// Exchange round trips, seconds each.
    pub rtt_s: Cdf,
}

impl Profile {
    /// Median exchange RTT over median path build: how far network delays
    /// dominate the crypto.
    pub fn network_to_crypto(&self) -> f64 {
        self.rtt_s.clone().median() / (self.build_us.clone().median() / 1e6).max(1e-9)
    }
}

/// Fig. 7: the cluster profile, then PlanetLab.
#[derive(Clone, Debug)]
pub struct Fig7 {
    /// What was run.
    pub params: Params,
    /// The two profiles.
    pub profiles: [Profile; 2],
}

fn run_profile(params: &Params, label: &'static str, builder: NetBuilder) -> Profile {
    let (mut net, ..) = builder.grouped(params.warmup, params.groups, "fig7", SEED ^ 0x71, params.warmup);
    net.sim.run_for_secs(params.measure);
    let m = net.sim.metrics();
    let cdf = |name: &str| Cdf::from_samples(m.samples(name).iter().copied());
    Profile {
        label,
        nodes: net.ids.len(),
        build_us: cdf("wcl.build_path_us"),
        peel_us: cdf("wcl.peel_us"),
        rtt_s: cdf("wcl.rtt_s"),
    }
}

/// Runs the experiment.
pub fn run(params: &Params) -> Fig7 {
    Fig7 {
        params: params.clone(),
        profiles: [
            run_profile(params, "cluster", NetBuilder::cluster(params.cluster_nodes, SEED)),
            run_profile(params, "PlanetLab", NetBuilder::planetlab(params.planetlab_nodes, SEED + 1)),
        ],
    }
}

impl Fig7 {
    /// Prints Fig. 7-style output.
    pub fn print(&self) {
        report::banner("Figure 7", "RTT breakdown of PPSS view exchanges over WCL routes");
        for p in &self.profiles {
            report::section(&format!("{}: {} nodes, {} groups", p.label, p.nodes, self.params.groups));
            report::cdf("build WCL path (µs, per onion)", &p.build_us, 11);
            report::cdf("RSA decrypts (µs, per hop)", &p.peel_us, 11);
            report::cdf("total rtt (s, per exchange)", &p.rtt_s, 11);
            if p.rtt_s.is_empty() || p.build_us.is_empty() {
                continue;
            }
            let ratio = p.network_to_crypto();
            let verdict = if ratio > 10.0 {
                "network delays dominate, as the paper reports"
            } else {
                "UNEXPECTED: crypto is not negligible"
            };
            println!("network-to-crypto ratio (median rtt / median path build): {ratio:.0}x  — {verdict}");
            let mut rtt = p.rtt_s.clone();
            println!(
                "exchanges measured: {} (≤2s: {:.1}%, ≤0.5s: {:.1}%)",
                rtt.len(),
                rtt.fraction_below(2.0) * 100.0,
                rtt.fraction_below(0.5) * 100.0
            );
        }
    }
}
