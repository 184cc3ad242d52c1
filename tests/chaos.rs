//! End-to-end chaos suite: every scripted fault scenario must keep the
//! stack's recovery invariants (DESIGN.md §11), which
//! `ChaosOutcome::violations` states once:
//!
//! * **Attribution** — every sim-level send is delivered, counted under a
//!   named drop counter, or still in flight: `unattributed == 0`.
//! * **Conservation** — every tracked WCL send has ended in exactly one of
//!   its five outcomes or is still pending: `unresolved_sends == 0`.
//! * **Workload** — the run issued tracked requests at all.
//! * **Delivery** — tracked request/response traffic reaches the floor
//!   (90 % on acceptance runs, 85 % on smoke runs) once the heal window
//!   has passed.
//! * **Convergence** — no live node ends with an empty Nylon view.
//!
//! The group-lifecycle runs add their own (`LifecycleOutcome::violations`).
//! The quick `smoke_*` tests run in debug CI. The `full_*` tests are the
//! acceptance runs (384 nodes, and 1 000 nodes on 4 shards) and are
//! `#[ignore]`d here; each makes its run on every one of
//! `ACCEPTANCE_SEEDS` and names the seed of any failure. `scripts/
//! verify.sh` runs them once, in release mode.

use whisper_bench::chaos::{
    run_group_lifecycle, run_scenario, ChaosOutcome, ChaosParams, Scenario, ACCEPTANCE_SEEDS,
    DELIVERY_FLOOR, SMOKE_DELIVERY_FLOOR,
};

/// Fails unless `violations` is empty, naming `what`, each invariant it
/// broke and the run's counters.
fn assert_kept(what: &str, violations: Vec<String>, echo: &ChaosOutcome) {
    assert!(
        violations.is_empty(),
        "{what}: {}\ncounters: {:?}",
        violations.join("; "),
        echo.counters
    );
}

/// Makes `run` on every one of [`ACCEPTANCE_SEEDS`], then fails unless
/// each kept every invariant, naming the seed of each run that did not.
/// `run` returns what its run broke and its echo workload.
fn on_every_seed(what: &str, run: impl Fn(u64) -> (Vec<String>, ChaosOutcome)) {
    let failures: Vec<String> = ACCEPTANCE_SEEDS
        .iter()
        .filter_map(|&seed| {
            let (violations, echo) = run(seed);
            (!violations.is_empty()).then(|| {
                format!("{what}, seed {seed}: {}\ncounters: {:?}", violations.join("; "), echo.counters)
            })
        })
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

// ---------------------------------------------------------------- smoke

fn smoke(scenario: Scenario) -> ChaosOutcome {
    let out = run_scenario(scenario, &ChaosParams::smoke(7));
    assert_kept(scenario.name(), out.violations(SMOKE_DELIVERY_FLOOR), &out);
    out
}

#[test]
fn smoke_partition_heals() {
    smoke(Scenario::Partition);
}

#[test]
fn smoke_burst_loss_recovers() {
    smoke(Scenario::BurstLoss);
}

#[test]
fn smoke_latency_spike_rides_out() {
    smoke(Scenario::LatencySpike);
}

#[test]
fn smoke_crash_restart_rejoins() {
    let out = smoke(Scenario::CrashRestart);
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
    smoke(Scenario::NatRebind);
}

// ----------------------------------------------------- acceptance (384)

fn full(scenario: Scenario) {
    on_every_seed(scenario.name(), |seed| {
        let out = run_scenario(scenario, &ChaosParams::full(seed));
        (out.violations(DELIVERY_FLOOR), out)
    });
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
/// event loop, shard-local fault application and the per-shard metric
/// deltas folded into one sink all hold the same recovery invariants at
/// ~3× the acceptance population (DESIGN.md §12).
#[test]
#[ignore = "1k-node scale-out run; executed in release mode by scripts/verify.sh"]
fn full_crash_restart_1k_nodes_on_4_shards() {
    on_every_seed("crash_restart 1k", |seed| {
        let out = run_scenario(Scenario::CrashRestart, &ChaosParams::scale_out(seed));
        (out.violations(DELIVERY_FLOOR), out)
    });
}

// ------------------------------------------------------ group lifecycle

#[test]
fn smoke_group_lifecycle() {
    let out = run_group_lifecycle(&ChaosParams::smoke(7));
    eprintln!(
        "lifecycle smoke: delivery={:.3} sent={} prop_samples={} prop_p95={:.1}s late={} replays={} restored={} deleted={}",
        out.echo.delivery_ratio(),
        out.echo.sent,
        out.deletion_prop_samples,
        out.deletion_prop_p95_s,
        out.late_members,
        out.journal_replays,
        out.journal_restored,
        out.deleted.len(),
    );
    assert_kept("lifecycle", out.violations(SMOKE_DELIVERY_FLOOR), &out.echo);
}

/// The tentpole determinism clause: the lifecycle scenario — group
/// creation, joins, migration, deletion tombstones pushed and answered
/// inside the group, journal replays — produces byte-identical observable traces
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
/// crash/restarts play out, on every acceptance seed.
#[test]
#[ignore = "1k-node acceptance run; executed in release mode by scripts/verify.sh"]
fn full_group_lifecycle_1k_nodes_on_4_shards() {
    on_every_seed("group_lifecycle 1k", |seed| {
        let out = run_group_lifecycle(&ChaosParams::scale_out(seed));
        let mut broken = out.violations(DELIVERY_FLOOR);
        // Scale-out extras: several groups deleted, several crash-restarts
        // restored group state from their journals.
        if out.deleted.len() < 2 {
            broken.push(format!("only {} group(s) deleted", out.deleted.len()));
        }
        if out.journal_restored < 10 {
            broken.push(format!("only {} group states restored from journals", out.journal_restored));
        }
        (broken, out.echo)
    });
}
