//! End-to-end chaos suite: every scripted fault scenario must keep the
//! stack's recovery invariants (ISSUE: fault model, DESIGN.md §11):
//!
//! * **Attribution** — every sim-level send is delivered, counted under a
//!   named drop counter, or still in flight: `unattributed == 0`.
//! * **Conservation** — every tracked WCL send has ended in exactly one of
//!   its five outcomes or is still pending: `unresolved_sends == 0`.
//! * **Delivery** — tracked request/response traffic reaches ≥ 90% (full
//!   runs) once the heal window has passed.
//! * **Convergence** — no live node ends with an empty Nylon view.
//!
//! The quick `smoke_*` tests run in debug CI. The `full_*` tests are the
//! acceptance runs (384 nodes) and are `#[ignore]`d here; `scripts/
//! verify.sh` runs them in release mode across a fixed seed matrix, with
//! the seed supplied through `WHISPER_CHAOS_SEED`.

use whisper_bench::chaos::{run_scenario, ChaosOutcome, ChaosParams, Scenario};

/// Seed for the full acceptance runs (verify.sh sets the env var).
fn acceptance_seed() -> u64 {
    std::env::var("WHISPER_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7)
}

fn assert_invariants(scenario: Scenario, out: &ChaosOutcome, min_delivery: f64) {
    assert_eq!(
        out.unattributed, 0,
        "{}: {} message(s) vanished without a named drop counter\ncounters: {:?}",
        scenario.name(),
        out.unattributed,
        out.counters
    );
    assert_eq!(
        out.unresolved_sends, 0,
        "{}: {} tracked send(s) ended in no outcome or in several\ncounters: {:?}",
        scenario.name(),
        out.unresolved_sends,
        out.counters
    );
    assert!(
        out.sent > 0,
        "{}: workload issued no tracked requests",
        scenario.name()
    );
    assert!(
        out.delivery_ratio() >= min_delivery,
        "{}: delivery {:.1}% < {:.0}% ({} acked / {} sent, {} skipped)\ncounters: {:?}",
        scenario.name(),
        out.delivery_ratio() * 100.0,
        min_delivery * 100.0,
        out.acked,
        out.sent,
        out.skipped,
        out.counters
    );
    assert_eq!(
        out.empty_views, 0,
        "{}: {}/{} live node(s) ended with an empty view",
        scenario.name(),
        out.empty_views,
        out.live_nodes
    );
}

// ---------------------------------------------------------------- smoke

fn smoke(scenario: Scenario, min_delivery: f64) {
    let out = run_scenario(scenario, &ChaosParams::smoke(7));
    assert_invariants(scenario, &out, min_delivery);
}

#[test]
fn smoke_partition_heals() {
    smoke(Scenario::Partition, 0.85);
}

#[test]
fn smoke_burst_loss_recovers() {
    smoke(Scenario::BurstLoss, 0.85);
}

#[test]
fn smoke_latency_spike_rides_out() {
    smoke(Scenario::LatencySpike, 0.85);
}

#[test]
fn smoke_crash_restart_rejoins() {
    let scenario = Scenario::CrashRestart;
    let out = run_scenario(scenario, &ChaosParams::smoke(7));
    assert_invariants(scenario, &out, 0.85);
    // Crashes really happened and state-loss recovery really ran.
    let counter = |name: &str| {
        out.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    assert!(counter("net.fault_crash") > 0, "no crash was injected");
    assert_eq!(
        counter("net.fault_crash"),
        counter("net.fault_restart"),
        "every crashed node must restart"
    );
}

#[test]
fn smoke_nat_rebind_recovers() {
    smoke(Scenario::NatRebind, 0.85);
}

// ----------------------------------------------------- acceptance (384)

fn full(scenario: Scenario) {
    let out = run_scenario(scenario, &ChaosParams::full(acceptance_seed()));
    assert_invariants(scenario, &out, 0.90);
}

#[test]
#[ignore = "384-node acceptance run; executed in release mode by scripts/verify.sh"]
fn full_partition_heals() {
    full(Scenario::Partition);
}

#[test]
#[ignore = "384-node acceptance run; executed in release mode by scripts/verify.sh"]
fn full_burst_loss_recovers() {
    full(Scenario::BurstLoss);
}

#[test]
#[ignore = "384-node acceptance run; executed in release mode by scripts/verify.sh"]
fn full_latency_spike_rides_out() {
    full(Scenario::LatencySpike);
}

#[test]
#[ignore = "384-node acceptance run; executed in release mode by scripts/verify.sh"]
fn full_crash_restart_rejoins() {
    full(Scenario::CrashRestart);
}

#[test]
#[ignore = "384-node acceptance run; executed in release mode by scripts/verify.sh"]
fn full_nat_rebind_recovers() {
    full(Scenario::NatRebind);
}

// ------------------------------------------------- scale-out (1k nodes)

/// 1000-node crash/restart chaos on the 4-shard engine: the sharded
/// event loop, shard-local fault application and the tagged metrics
/// merge all hold the same recovery invariants at ~3× the acceptance
/// population (DESIGN.md §12).
#[test]
#[ignore = "1k-node scale-out run; executed in release mode by scripts/verify.sh"]
fn full_crash_restart_1k_nodes_on_4_shards() {
    let scenario = Scenario::CrashRestart;
    let params = ChaosParams {
        nodes: 1000,
        groups: 10,
        shards: 4,
        // A 1k population needs the paper-scale convergence times
        // (Table I uses 250 s of PSS warm-up at 1,000 nodes); the
        // 384-node acceptance timings leave the overlay too thin and
        // delivery lands just under the floor on some seeds.
        warmup: 250,
        settle: 90,
        ..ChaosParams::full(acceptance_seed())
    };
    let out = run_scenario(scenario, &params);
    assert_invariants(scenario, &out, 0.90);
}

// ------------------------------------------- group lifecycle (tentpole)

use whisper_bench::chaos::{run_group_lifecycle, LifecycleOutcome};

fn assert_lifecycle_invariants(out: &LifecycleOutcome, min_delivery: f64, max_prop_p95_s: f64) {
    assert_eq!(
        out.echo.unattributed, 0,
        "lifecycle: message(s) vanished without a named drop counter\ncounters: {:?}",
        out.echo.counters
    );
    assert_eq!(
        out.echo.unresolved_sends, 0,
        "lifecycle: tracked send(s) ended in no outcome or in several\ncounters: {:?}",
        out.echo.counters
    );
    assert_eq!(
        out.resurrections, 0,
        "lifecycle: {} node(s) still hold a deleted group",
        out.resurrections
    );
    assert!(!out.deleted.is_empty(), "lifecycle: no group was deleted");
    assert!(
        out.echo.delivery_ratio() >= min_delivery,
        "lifecycle: delivery {:.1}% < {:.0}% ({} acked / {} sent, {} skipped)",
        out.echo.delivery_ratio() * 100.0,
        min_delivery * 100.0,
        out.echo.acked,
        out.echo.sent,
        out.echo.skipped,
    );
    assert!(
        out.desc_prop_samples > 0,
        "lifecycle: no descriptor propagation latency was sampled"
    );
    assert!(
        out.desc_prop_p95_s <= max_prop_p95_s,
        "lifecycle: descriptor propagation p95 {:.1}s exceeds {:.0}s",
        out.desc_prop_p95_s,
        max_prop_p95_s
    );
    assert!(
        out.late_members >= 3,
        "lifecycle: late group only reached {} members",
        out.late_members
    );
    assert!(out.migrated_ok, "lifecycle: migrated member lost its new group");
    assert!(
        out.journal_replays > 0 && out.journal_restored > 0,
        "lifecycle: no crash-restart replayed the journal (replays={}, restored={})",
        out.journal_replays,
        out.journal_restored
    );
}

#[test]
fn smoke_group_lifecycle() {
    let out = run_group_lifecycle(&ChaosParams::smoke(7));
    eprintln!(
        "lifecycle smoke: delivery={:.3} sent={} prop_samples={} prop_p95={:.1}s late={} replays={} restored={} deleted={}",
        out.echo.delivery_ratio(),
        out.echo.sent,
        out.desc_prop_samples,
        out.desc_prop_p95_s,
        out.late_members,
        out.journal_replays,
        out.journal_restored,
        out.deleted.len(),
    );
    assert_lifecycle_invariants(&out, 0.85, 150.0);
}

/// The tentpole determinism clause: the lifecycle scenario — group
/// creation, joins, migration, deletion tombstones, journal replays,
/// descriptor gossip — produces byte-identical observable traces
/// whether the engine runs 1, 2 or 4 shards.
#[test]
fn group_lifecycle_is_shard_invariant() {
    let base = run_group_lifecycle(&ChaosParams::smoke(7));
    for shards in [2usize, 4] {
        let out = run_group_lifecycle(&ChaosParams { shards, ..ChaosParams::smoke(7) });
        assert!(
            base.trace == out.trace,
            "{shards}-shard lifecycle trace diverged from 1-shard"
        );
    }
}

/// 1000-node group-lifecycle acceptance on the 4-shard engine: groups
/// created, joined, migrated and deleted while a partition and a wave of
/// crash/restarts play out. Run by scripts/verify.sh in release mode
/// across the fixed seed matrix (7, 11, 13).
#[test]
#[ignore = "1k-node acceptance run; executed in release mode by scripts/verify.sh"]
fn full_group_lifecycle_1k_nodes_on_4_shards() {
    let params = ChaosParams {
        nodes: 1000,
        groups: 10,
        shards: 4,
        warmup: 250,
        settle: 90,
        ..ChaosParams::full(acceptance_seed())
    };
    let out = run_group_lifecycle(&params);
    assert_lifecycle_invariants(&out, 0.90, 150.0);
    // Scale-out extras: several groups deleted, several crash-restarts
    // replayed their journals.
    assert!(out.deleted.len() >= 2, "only {} group(s) deleted", out.deleted.len());
    assert!(
        out.journal_restored >= 10,
        "only {} group states restored from journals",
        out.journal_restored
    );
}
