//! The 384-node chaos matrix: every scenario of `whisper_bench::chaos` on
//! the acceptance seeds, under the adaptive retry timer and the paper's
//! fixed one, beside the delivery floor the acceptance suite
//! (`tests/chaos.rs`) holds a 384-node run to — both the suite's own
//! constants. A report for changes to timers or recovery, not a gate: it
//! exits 0 whatever a cell reads, and marks a cell under the floor with
//! `<`.
//!
//! No flags. The 30 runs share the cores.

use whisper_bench::chaos::{run_scenario, ChaosParams, Scenario, ACCEPTANCE_SEEDS, DELIVERY_FLOOR};
use whisper_bench::harness::par_map;

fn main() {
    let cells: Vec<(Scenario, u64, bool)> = Scenario::ALL
        .iter()
        .flat_map(|&scenario| ACCEPTANCE_SEEDS.iter().flat_map(move |&seed| [(scenario, seed, true), (scenario, seed, false)]))
        .collect();
    let outcomes = par_map(&cells, |&(scenario, seed, adaptive_rto)| {
        run_scenario(scenario, &ChaosParams { adaptive_rto, ..ChaosParams::full(seed) })
    });

    println!("chaos matrix: 384 nodes, delivery (acked / sent), floor {:.0} %", DELIVERY_FLOOR * 100.0);
    println!("{:<14} {:>4} {:>10} {:>10}", "scenario", "seed", "adaptive", "fixed");
    let mut under = 0;
    for (row, pair) in cells.chunks(2).zip(outcomes.chunks(2)) {
        let (scenario, seed, _) = row[0];
        let cell = |ratio: f64| {
            let mark = if ratio < DELIVERY_FLOOR { "<" } else { " " };
            format!("{mark}{:.1} %", ratio * 100.0)
        };
        let ratios = [pair[0].delivery_ratio(), pair[1].delivery_ratio()];
        under += ratios.iter().filter(|&&r| r < DELIVERY_FLOOR).count();
        println!("{:<14} {:>4} {:>10} {:>10}", scenario.name(), seed, cell(ratios[0]), cell(ratios[1]));
        for out in pair.iter().filter(|out| out.unattributed != 0 || out.unresolved_sends != 0) {
            println!("    unattributed {}, unresolved sends {}", out.unattributed, out.unresolved_sends);
        }
    }
    println!("cells under the floor: {under} of {}", cells.len());
}
