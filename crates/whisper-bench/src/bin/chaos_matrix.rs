//! The 384-node chaos matrix: every scenario of `whisper_bench::chaos` on
//! the acceptance seeds, under the adaptive retry timer and the paper's
//! fixed one — delivery, mean route-repair time and repair count per
//! cell, and under a cell each recovery invariant it broke at the
//! acceptance suite's floor (`ChaosOutcome::violations`, the check
//! `tests/chaos.rs` makes). A report for changes to timers or recovery,
//! not a gate: it exits 0 whatever a cell reads.
//!
//! No flags. The 30 runs share the cores.

use whisper_bench::chaos::{run_scenario, ChaosParams, Scenario, ACCEPTANCE_SEEDS, DELIVERY_FLOOR, FAULT_LEN_S};
use whisper_bench::harness::par_map;
use whisper_bench::report;

fn main() {
    let cells: Vec<(Scenario, u64, bool)> = Scenario::ALL
        .iter()
        .flat_map(|&scenario| ACCEPTANCE_SEEDS.iter().flat_map(move |&seed| [(scenario, seed, true), (scenario, seed, false)]))
        .collect();
    let outcomes = par_map(&cells, |&(scenario, seed, adaptive_rto)| {
        run_scenario(scenario, &ChaosParams { adaptive_rto, ..ChaosParams::full(seed) })
    });

    report::banner("Chaos matrix", "delivery + route repair under scripted faults (adaptive vs. fixed RTO)");
    let base = ChaosParams::full(ACCEPTANCE_SEEDS[0]);
    println!("nodes={} groups={} fault window={}s floor={:.0}%", base.nodes, base.groups, FAULT_LEN_S, DELIVERY_FLOOR * 100.0);
    println!("{:<14} {:>4} {:>10} {:>9} {:>11} {:>8}", "scenario", "seed", "timer", "delivery", "repair (ms)", "repairs");
    let mut broken = 0;
    for (&(scenario, seed, adaptive), out) in cells.iter().zip(&outcomes) {
        let (timer, delivery) = (if adaptive { "adaptive" } else { "fixed" }, out.delivery_ratio() * 100.0);
        println!("{:<14} {seed:>4} {timer:>10} {delivery:>8.1}% {:>11.1} {:>8}", scenario.name(), out.repair_mean_s() * 1e3, out.repair_s.len());
        let violations = out.violations(DELIVERY_FLOOR);
        broken += !violations.is_empty() as usize;
        for violation in violations {
            println!("    {violation}");
        }
    }
    println!("cells that broke an invariant: {broken} of {}", cells.len());
}
