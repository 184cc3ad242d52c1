//! Scale-out smoke for `scripts/verify.sh`: three fixed PSS-only
//! populations gossip for a short simulated window, proving that the
//! engine still completes 100k- and 1M-node runs and that the pooled
//! send path still allocates next to nothing. Takes no flags. Throughput
//! and memory are measured by `perfbench/` (`gossip_scale`,
//! `gossip_scale_mt`), not here.

use std::time::Instant;

use whisper_bench::NetBuilder;
use whisper_net::sim::SimConfig;
use whisper_pss::NylonConfig;

/// One population and its simulated window.
struct Cell {
    nodes: usize,
    shards: usize,
    secs: u64,
    /// Most payload allocations per send the cell may make, if gated.
    max_allocs_per_send: Option<f64>,
}

/// Steady-state allocs/send with the payload pool is at most ≈ 0.1
/// (DESIGN.md §13): 0.2 catches a change that brings back a heap
/// allocation per send without flaking on start-up noise. The two large
/// cells exist to show they complete, so their windows shrink with size
/// to keep the step well under a minute.
const CELLS: [Cell; 3] = [
    Cell { nodes: 10_000, shards: 1, secs: 20, max_allocs_per_send: Some(0.2) },
    Cell { nodes: 100_000, shards: 4, secs: 20, max_allocs_per_send: None },
    Cell { nodes: 1_000_000, shards: 4, secs: 5, max_allocs_per_send: None },
];

const SEED: u64 = 7;

/// Distinct RSA key pairs cycled over a population, so key generation is
/// O(1) in its size.
const KEY_CYCLE: usize = 256;

fn main() {
    for cell in &CELLS {
        let builder = NetBuilder {
            sim: SimConfig::cluster(SEED).with_shards(cell.shards),
            key_cycle: Some(KEY_CYCLE),
            ..NetBuilder::cluster(cell.nodes, SEED)
        };
        let mut sim = builder.build_pss(&NylonConfig::default()).sim;
        let start = Instant::now();
        sim.run_for_secs(cell.secs);
        let wall = start.elapsed().as_secs_f64();

        // Every send classifies its payload's provenance exactly once, so
        // the three provenance counters sum to the sends; a pool miss is a
        // heap allocation the `net.allocs` count does not include.
        let m = sim.metrics();
        let fresh = m.counter("net.allocs");
        let sends = fresh + m.counter("net.payload_cloned") + m.counter("net.payload_pooled");
        let allocs_per_send = (fresh + m.counter("net.pool_misses")) as f64 / sends.max(1) as f64;
        println!(
            "scaling: {} nodes, {} shard(s), {} sim-s in {wall:.1} s, \
             {allocs_per_send:.4} allocs/send",
            cell.nodes, cell.shards, cell.secs,
        );
        if let Some(max) = cell.max_allocs_per_send.filter(|&max| allocs_per_send > max) {
            eprintln!(
                "scaling: ALLOC REGRESSION — {} nodes: {allocs_per_send:.4} allocs/send \
                 exceeds the gate of {max}",
                cell.nodes
            );
            std::process::exit(1);
        }
    }
}
