//! Table II — Average CPU time per PPSS cycle spent in AES and RSA, for
//! N-nodes vs P-nodes.
//!
//! Paper setting: 1,000 nodes on the cluster, 1-minute PPSS cycle,
//! Π = 3, 5 entries per exchanged view, realistic key sizes. The paper's
//! headline observations, which this experiment checks: RSA dominates AES
//! by orders of magnitude, P-nodes spend ~2× the CPU of N-nodes (they
//! act as mixes far more often), and the total remains a tiny fraction of
//! the one-minute cycle.

use crate::harness::NetBuilder;
use crate::report;
use whisper_crypto::rsa::RsaKeySize;

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Population size.
    pub nodes: usize,
    /// Number of private groups.
    pub groups: usize,
    /// Number of measured PPSS cycles.
    pub cycles: u64,
}

/// Warm-up seconds, and the settling time after group formation.
const WARMUP: u64 = 400;

/// Engine seed.
const SEED: u64 = 9;

/// The RSA modulus size at both scales: the paper's 1 KB keys. (At the
/// simulation's `Sim384` RSA reads only ≈ 3 × AES, so "RSA ≫ AES" could not
/// be checked at smoke scale.)
pub const RSA: RsaKeySize = RsaKeySize::Std1024;

impl Params {
    /// The paper's configuration.
    pub fn paper() -> Self {
        Params { nodes: 1000, groups: 20, cycles: 5 }
    }

    /// A fast smoke-test configuration.
    pub fn quick() -> Self {
        Params { nodes: 150, groups: 4, cycles: 3 }
    }
}

/// Table II: CPU µs per node per PPSS cycle, `[N-node, P-node]`.
#[derive(Clone, Debug)]
pub struct Table2 {
    /// What was run.
    pub params: Params,
    /// AES.
    pub aes: [f64; 2],
    /// RSA.
    pub rsa: [f64; 2],
    /// Onion layers peeled per P-node per cycle.
    pub peels_per_p: f64,
}

/// The length of a PPSS cycle, µs.
pub const CYCLE_US: f64 = 60.0 * 1e6;

/// Runs the experiment.
pub fn run(params: &Params) -> Table2 {
    let mut builder = NetBuilder::cluster(params.nodes, SEED);
    builder.whisper.nylon.rsa = RSA;
    let (mut net, ..) = builder.grouped(WARMUP, params.groups, "table2", SEED ^ 0x72, WARMUP);
    net.sim.run_for_secs(params.cycles * 60);

    let m = net.sim.metrics();
    let n_count = net.natted().len().max(1) as f64;
    let p_count = net.publics().len().max(1) as f64;
    let per_cycle = |name: &str, class_count: f64| -> f64 {
        m.samples(name).iter().sum::<f64>() / class_count / params.cycles as f64
    };
    Table2 {
        params: params.clone(),
        aes: [per_cycle("crypto.aes_us.nnode", n_count), per_cycle("crypto.aes_us.pnode", p_count)],
        rsa: [per_cycle("crypto.rsa_us.nnode", n_count), per_cycle("crypto.rsa_us.pnode", p_count)],
        peels_per_p: m.samples("wcl.peel_us").len() as f64 / p_count / params.cycles as f64,
    }
}

impl Table2 {
    /// P-node over N-node CPU, AES and RSA together.
    pub fn p_over_n(&self) -> f64 {
        (self.aes[1] + self.rsa[1]) / (self.aes[0] + self.rsa[0]).max(1e-9)
    }

    /// RSA over AES CPU, both classes together.
    pub fn rsa_over_aes(&self) -> f64 {
        (self.rsa[0] + self.rsa[1]) / (self.aes[0] + self.aes[1]).max(1e-9)
    }

    /// Prints Table II.
    pub fn print(&self) {
        report::banner("Table II", "CPU time per PPSS cycle for AES and RSA (N- vs P-nodes)");
        let params = &self.params;
        println!(
            "nodes={} groups={} rsa={RSA:?} measured_cycles={} (cycle = 60 s)",
            params.nodes, params.groups, params.cycles
        );
        println!();
        println!(
            "{:<10} {:>14} {:>14} {:>14} {:>12}",
            "class", "AES (µs/cyc)", "RSA (µs/cyc)", "total (µs)", "% of cycle"
        );
        for (i, class) in ["N-node", "P-node"].into_iter().enumerate() {
            let (aes, rsa) = (self.aes[i], self.rsa[i]);
            let total = aes + rsa;
            println!("{class:<10} {aes:>14.1} {rsa:>14.1} {total:>14.1} {:>11.4}%", total / CYCLE_US * 100.0);
        }
        println!();
        report::row(
            "shape checks",
            &[
                ("P/N total ratio", self.p_over_n()),
                ("RSA/AES ratio", self.rsa_over_aes()),
                ("mix peels per P-node/cyc", self.peels_per_p),
            ],
        );
        println!(
            "(paper: P/N ≈ 2.13×, RSA ≫ AES, totals < 0.65% of the one-minute cycle)"
        );
    }
}
