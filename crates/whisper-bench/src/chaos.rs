//! Deterministic chaos scenarios over the full WHISPER stack.
//!
//! Each scenario builds a population, converges it, installs a scripted
//! [`FaultPlan`] and drives a tracked request/response workload through
//! the private groups while the fault is active. The outcome reports
//! end-to-end delivery, route-repair latency and the sim-level drop
//! attribution, and [`ChaosOutcome::violations`] is the one statement of
//! the recovery invariants of the fault model (DESIGN.md §11):
//!
//! * every tracked request is either answered or accounted for by a
//!   named drop counter (`unattributed == 0` always), and every tracked
//!   WCL send ended in exactly one outcome (`unresolved_sends == 0`);
//! * the workload issued requests, and after the heal window delivery
//!   stays above the floor the population promises ([`DELIVERY_FLOOR`],
//!   [`SMOKE_DELIVERY_FLOOR`]);
//! * no live node is left with an empty Nylon view (overlay
//!   convergence survives the fault).
//!
//! `tests/chaos.rs` asserts them on every one of [`ACCEPTANCE_SEEDS`];
//! the `chaos_matrix` binary prints them under each cell of its report;
//! `group_lifecycle` panics on them. Everything is driven by seeds: the
//! same `(scenario, params)` pair replays the exact same trace.

use std::collections::HashMap;

use crate::harness::{NetBuilder, WhisperNet};
use whisper_core::node::{GroupApp, WhisperApi, WhisperNode};
use whisper_core::{GroupId, PrivateEntry, Wcl};
use whisper_net::fault::FaultPlan;
use whisper_net::sim::Ctx;
use whisper_net::stats::Cdf;
use whisper_net::{NodeId, SimTime};
use whisper_rand::rngs::StdRng;
use whisper_rand::{Rng, SeedableRng};

/// Request/response application used by the chaos suite.
///
/// Requests are `'Q'` + an 8-byte nonce; the responder answers `'R'` +
/// nonce over the shipped reply entry. The requester resolves the
/// tracked WCL send when the answer returns, so `acked / sent` is the
/// end-to-end delivery ratio as the application experiences it.
#[derive(Debug, Default)]
pub struct EchoApp {
    inflight: HashMap<u64, u64>,
    /// Tracked requests this node issued.
    pub sent: u64,
    /// Requests whose answer came back.
    pub acked: u64,
}

impl EchoApp {
    /// Issues one tracked request to `to` in `group`. Returns `false`
    /// when no route could be built.
    pub fn request(
        &mut self,
        ctx: &mut Ctx<'_>,
        api: &mut WhisperApi<'_>,
        group: GroupId,
        to: NodeId,
        nonce: u64,
    ) -> bool {
        let mut data = Vec::with_capacity(9);
        data.push(b'Q');
        data.extend_from_slice(&nonce.to_le_bytes());
        match api.send_private_tracked(ctx, group, to, data, true) {
            Some(msg_id) => {
                self.inflight.insert(nonce, msg_id);
                self.sent += 1;
                true
            }
            None => false,
        }
    }
}

impl GroupApp for EchoApp {
    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_>,
        api: &mut WhisperApi<'_>,
        group: GroupId,
        _from: NodeId,
        data: &[u8],
        reply_entry: Option<PrivateEntry>,
    ) {
        match data.split_first() {
            Some((&b'Q', nonce)) => {
                // WCL retries re-deliver the same nonce; answering each
                // copy is harmless (the requester acks at most once).
                if let Some(entry) = reply_entry {
                    let mut resp = Vec::with_capacity(9);
                    resp.push(b'R');
                    resp.extend_from_slice(nonce);
                    api.send_private_to_entry(ctx, group, &entry, resp, false);
                }
            }
            Some((&b'R', rest)) if rest.len() == 8 => {
                let nonce = u64::from_le_bytes(rest.try_into().expect("8 bytes"));
                if let Some(msg_id) = self.inflight.remove(&nonce) {
                    api.wcl.notify_response(ctx, msg_id);
                    self.acked += 1;
                }
            }
            _ => {}
        }
    }

    fn on_crash_restart(&mut self, _ctx: &mut Ctx<'_>, _api: &mut WhisperApi<'_>) {
        // Requests in flight at the crash reference WCL message ids that
        // died with the process; an answer arriving after the restart
        // must not be counted as delivered (the app genuinely lost the
        // request context). `sent` stays — those requests are charged
        // against delivery, which is exactly the cost of crashing.
        self.inflight.clear();
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// The scripted fault each chaos scenario injects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scenario {
    /// Bisect the network for the fault window; heal afterwards.
    Partition,
    /// Gilbert–Elliott burst loss on every link for the window.
    BurstLoss,
    /// Multiply all link delays for the window.
    LatencySpike,
    /// Crash a fraction of nodes with full state loss; restart them at
    /// the end of the window.
    CrashRestart,
    /// Rebind the NAT devices of a fraction of NATted nodes (public IP
    /// change: all their bindings vanish).
    NatRebind,
}

impl Scenario {
    /// All scenarios, for matrix runs.
    pub const ALL: [Scenario; 5] = [
        Scenario::Partition,
        Scenario::BurstLoss,
        Scenario::LatencySpike,
        Scenario::CrashRestart,
        Scenario::NatRebind,
    ];

    /// Stable lowercase name (metric / bench ids).
    pub fn name(self) -> &'static str {
        match self {
            Scenario::Partition => "partition",
            Scenario::BurstLoss => "burst_loss",
            Scenario::LatencySpike => "latency_spike",
            Scenario::CrashRestart => "crash_restart",
            Scenario::NatRebind => "nat_rebind",
        }
    }
}

/// The seeds every acceptance run is made on (`tests/chaos.rs` runs each
/// in turn; `chaos_matrix` reports them all).
pub const ACCEPTANCE_SEEDS: [u64; 3] = [7, 11, 13];

/// The delivery an acceptance run — [`ChaosParams::full`], or
/// [`ChaosParams::scale_out`] — keeps once the heal window has passed.
pub const DELIVERY_FLOOR: f64 = 0.90;

/// The delivery a [`ChaosParams::smoke`] run keeps: its 96 nodes leave a
/// thinner overlay to route around a fault.
pub const SMOKE_DELIVERY_FLOOR: f64 = 0.85;

/// The deletion-propagation p95 a group-lifecycle run stays within,
/// seconds.
const DELETION_PROP_P95_MAX_S: f64 = 150.0;

/// Seconds between workload rounds.
const ROUND_PERIOD_S: u64 = 10;

/// The fault window opens after this many rounds...
const FAULT_AFTER_ROUND: u64 = 2;

/// ...and lasts this many seconds: short enough that a request issued as
/// the window opens can still resolve on its last backed-off retry after
/// the heal (the RTO ladder reaches ~2+4+8 s past the send).
pub const FAULT_LEN_S: u64 = 20;

/// Drain time after the last round, seconds (lets retries resolve).
const HEAL_WAIT_S: u64 = 60;

/// Knobs of one chaos run.
#[derive(Clone, Debug)]
pub struct ChaosParams {
    /// Population size.
    pub nodes: usize,
    /// Number of private groups (one P-node leader each).
    pub groups: usize,
    /// PSS convergence time before group formation, seconds.
    pub warmup: u64,
    /// Settling time between group formation and the workload, seconds.
    pub settle: u64,
    /// Number of request rounds.
    pub rounds: u64,
    /// Requests issued per group per round.
    pub pairs_per_round: usize,
    /// Engine seed.
    pub seed: u64,
    /// WCL adaptive-RTO switch (false = the paper's fixed 2 s timer).
    pub adaptive_rto: bool,
    /// Engine shard count (DESIGN.md §12). Purely a performance knob:
    /// the outcome is byte-identical for any value.
    pub shards: usize,
}

impl ChaosParams {
    /// Fast configuration for debug-mode smoke tests.
    pub fn smoke(seed: u64) -> Self {
        ChaosParams {
            nodes: 96,
            groups: 3,
            warmup: 150,
            settle: 60,
            rounds: 9,
            pairs_per_round: 3,
            seed,
            adaptive_rto: true,
            shards: 1,
        }
    }

    /// The acceptance configuration: 384 nodes, default knobs.
    pub fn full(seed: u64) -> Self {
        ChaosParams {
            nodes: 384,
            groups: 8,
            rounds: 12,
            pairs_per_round: 4,
            ..ChaosParams::smoke(seed)
        }
    }

    /// The scale-out acceptance configuration: 1 000 nodes on the 4-shard
    /// engine (DESIGN.md §12). A 1k population needs the paper-scale
    /// convergence times (Table I uses 250 s of PSS warm-up at 1 000
    /// nodes); the 384-node timings leave the overlay too thin and
    /// delivery lands just under the floor on some seeds.
    pub fn scale_out(seed: u64) -> Self {
        ChaosParams {
            nodes: 1000,
            groups: 10,
            shards: 4,
            warmup: 250,
            settle: 90,
            ..ChaosParams::full(seed)
        }
    }
}

/// What one chaos run produced.
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    /// Tracked requests issued.
    pub sent: u64,
    /// Requests answered end-to-end.
    pub acked: u64,
    /// Request slots skipped (source down, empty view, no route).
    pub skipped: u64,
    /// Route-repair latencies observed (`wcl.repair_s`), seconds, in no
    /// particular order.
    pub repair_s: Vec<f64>,
    /// [`Sim::unattributed_msgs`](whisper_net::sim::Sim::unattributed_msgs)
    /// at the end of the run; non-zero means a message vanished without a
    /// named cause.
    pub unattributed: i64,
    /// `wcl.route_attempts − (Σ` [`Wcl::SEND_OUTCOMES`] `+ sends still
    /// pending)`; non-zero means a tracked send ended in no outcome, or in
    /// more than one.
    pub unresolved_sends: i64,
    /// Live nodes whose Nylon view is empty after the heal window.
    pub empty_views: usize,
    /// Live nodes at the end of the run.
    pub live_nodes: usize,
    /// Snapshot of all sim/WCL counters (debugging aid).
    pub counters: Vec<(String, u64)>,
}

impl ChaosOutcome {
    /// Answered fraction of tracked requests.
    pub fn delivery_ratio(&self) -> f64 {
        if self.sent == 0 {
            return 0.0;
        }
        self.acked as f64 / self.sent as f64
    }

    /// Mean route-repair latency in seconds (0.0 when no repair
    /// happened).
    pub fn repair_mean_s(&self) -> f64 {
        if self.repair_s.is_empty() {
            return 0.0;
        }
        self.repair_s.iter().sum::<f64>() / self.repair_s.len() as f64
    }

    /// The recovery invariants this run broke, one message each; empty
    /// when it kept them all. `min_delivery` is the floor the population
    /// promises ([`DELIVERY_FLOOR`] or [`SMOKE_DELIVERY_FLOOR`]); a run
    /// that sent nothing breaks the workload invariant, not that one.
    pub fn violations(&self, min_delivery: f64) -> Vec<String> {
        let delivery = self.delivery_ratio();
        failed_checks([
            (self.unattributed != 0, format!("{} message(s) vanished without a named drop counter", self.unattributed)),
            (self.unresolved_sends != 0, format!("{} tracked send(s) ended in no outcome or in several", self.unresolved_sends)),
            (self.sent == 0, "workload issued no tracked requests".to_string()),
            (
                self.sent > 0 && delivery < min_delivery,
                format!(
                    "delivery {:.1}% < {:.0}% ({} acked / {} sent, {} skipped)",
                    delivery * 100.0,
                    min_delivery * 100.0,
                    self.acked,
                    self.sent,
                    self.skipped
                ),
            ),
            (self.empty_views != 0, format!("{}/{} live node(s) ended with an empty view", self.empty_views, self.live_nodes)),
        ])
    }
}

/// The message of each check that failed (`true`), in order.
fn failed_checks<const N: usize>(checks: [(bool, String); N]) -> Vec<String> {
    checks.into_iter().filter_map(|(broken, message)| broken.then_some(message)).collect()
}

/// Runs one scenario end to end. Deterministic in `(scenario, params)`.
pub fn run_scenario(scenario: Scenario, params: &ChaosParams) -> ChaosOutcome {
    let mut builder = NetBuilder::cluster(params.nodes, params.seed);
    builder.sim = builder.sim.clone().with_shards(params.shards);
    builder.whisper.wcl.adaptive_rto = params.adaptive_rto;
    let mut net = builder.build_whisper(|_| Box::new(EchoApp::default()));
    net.sim.run_for_secs(params.warmup);
    let (leaders, groups, membership) =
        net.form_groups(params.groups, "chaos", params.seed ^ 0x51, params.settle);

    let (from, to) = fault_window(&net);
    let mut rng = StdRng::seed_from_u64(params.seed ^ 0xC4A0_5EED);
    let victims = shuffled_victims(&net, &leaders, &mut rng);
    let plan = build_plan(scenario, &net, &victims, from, to);
    net.sim.install_fault_plan(plan);

    let mut requests = Requests::default();
    for _round in 0..params.rounds {
        for (gi, members) in membership.iter().enumerate() {
            requests.round(&mut net, groups[gi], members, params.pairs_per_round, &mut rng);
        }
        net.sim.run_for_secs(ROUND_PERIOD_S);
    }
    net.sim.run_for_secs(HEAL_WAIT_S);
    collect(&net, requests.skipped)
}

/// The tracked request workload: a nonce per request, and the request
/// slots it had to skip.
#[derive(Default)]
struct Requests {
    nonce: u64,
    skipped: u64,
}

impl Requests {
    /// Issues `count` requests in `group`, each from a random one of
    /// `members`; none when the group has fewer than two members.
    fn round(&mut self, net: &mut WhisperNet, group: GroupId, members: &[NodeId], count: usize, rng: &mut StdRng) {
        if members.len() < 2 {
            return;
        }
        for _ in 0..count {
            let src = members[rng.gen_range(0..members.len())];
            self.nonce += 1;
            if !send_request(net, group, src, self.nonce, rng) {
                self.skipped += 1;
            }
        }
    }
}

/// The fault window, anchored to the request schedule: it opens
/// [`FAULT_AFTER_ROUND`] rounds into the workload, halfway between two send
/// instants — the preceding round's requests (answered within a second on
/// the cluster profile) are the pre-fault baseline, and the requests issued
/// *inside* the window exercise retry and repair.
fn fault_window(net: &WhisperNet) -> (SimTime, SimTime) {
    let t0 = net.sim.now().as_micros();
    let from = SimTime::from_micros(
        t0 + (FAULT_AFTER_ROUND * ROUND_PERIOD_S + ROUND_PERIOD_S / 2) * 1_000_000,
    );
    (from, SimTime::from_micros(from.as_micros() + FAULT_LEN_S * 1_000_000))
}

/// The nodes a fault may hit, shuffled with `rng`. Bootstraps and group
/// leaders stay on the "mainland" / alive, so every scenario has a live
/// core to re-converge around.
fn shuffled_victims(net: &WhisperNet, leaders: &[NodeId], rng: &mut StdRng) -> Vec<NodeId> {
    let mut victims = net.expendable(leaders);
    for i in (1..victims.len()).rev() {
        victims.swap(i, rng.gen_range(0..=i));
    }
    victims
}

/// Builds the scripted fault plan for `scenario` over `[from, to)`.
fn build_plan(
    scenario: Scenario,
    net: &WhisperNet,
    victims: &[NodeId],
    from: SimTime,
    to: SimTime,
) -> FaultPlan {
    match scenario {
        Scenario::Partition => FaultPlan::new().partition(victims[..victims.len() / 4].iter().copied(), from, to),
        Scenario::BurstLoss => FaultPlan::new().burst_loss(from, to),
        Scenario::LatencySpike => FaultPlan::new().latency_spike(from, to),
        Scenario::CrashRestart => staggered_crashes(FaultPlan::new(), &victims[..victims.len() / 10], from, to),
        Scenario::NatRebind => {
            // Recovery is bounded by the PPSS cycle (the member's fresh
            // entry propagates once per cycle, 1 min by default), so the
            // scenario rebinds an eighth of the population rather than a
            // quarter — still a mass address change, but one the view
            // refresh can absorb within the heal window.
            let natted = net.natted();
            let mut plan = FaultPlan::new();
            for &node in victims.iter().filter(|id| natted.contains(id)).take(victims.len() / 8) {
                plan = plan.nat_rebind(node, from);
            }
            plan
        }
    }
}

/// `plan` with each of `nodes` crashed in `[from, to)` and restarted at
/// `to`, the crashes staggered across the window's first half so that
/// failures are not synchronized.
fn staggered_crashes(mut plan: FaultPlan, nodes: &[NodeId], from: SimTime, to: SimTime) -> FaultPlan {
    let span = to.as_micros() - from.as_micros();
    for (i, &node) in nodes.iter().enumerate() {
        let at = SimTime::from_micros(from.as_micros() + span / 2 * i as u64 / nodes.len() as u64);
        plan = plan.crash_restart(node, at, to);
    }
    plan
}

/// Issues one request from `src` to a random private-view member.
fn send_request(
    net: &mut WhisperNet,
    group: GroupId,
    src: NodeId,
    nonce: u64,
    rng: &mut StdRng,
) -> bool {
    if !net.sim.contains(src) || net.sim.is_down(src) {
        return false;
    }
    let mut sent = false;
    net.sim.with_node_ctx::<WhisperNode>(src, |node, ctx| {
        node.with_api(|api, app| {
            let me = api.id();
            let view: Vec<NodeId> = api
                .private_view(group)
                .iter()
                .map(|e| e.node)
                .filter(|n| *n != me)
                .collect();
            if view.is_empty() {
                return;
            }
            let dst = view[rng.gen_range(0..view.len())];
            let echo = app
                .as_any_mut()
                .downcast_mut::<EchoApp>()
                .expect("chaos nets run EchoApp");
            sent = echo.request(ctx, api, group, dst, nonce);
        });
    });
    sent
}

fn collect(net: &WhisperNet, skipped: u64) -> ChaosOutcome {
    let (mut sent, mut acked) = (0u64, 0u64);
    let mut empty_views = 0usize;
    let (mut live_nodes, mut pending) = (0usize, 0u64);
    for &id in &net.ids {
        let Some(node) = net.sim.node::<WhisperNode>(id) else {
            continue;
        };
        live_nodes += 1;
        pending += node.wcl().pending_sends() as u64;
        if let Some(app) = node.app::<EchoApp>() {
            sent += app.sent;
            acked += app.acked;
        }
        if node.nylon().view().is_empty() {
            empty_views += 1;
        }
    }
    let m = net.sim.metrics();
    let resolved: u64 = Wcl::SEND_OUTCOMES.iter().map(|n| m.counter(n)).sum();
    let unresolved_sends = m.counter("wcl.route_attempts") as i64 - (resolved + pending) as i64;
    let counters = m
        .counter_names()
        .map(|n| (n.to_string(), m.counter(n)))
        .collect();
    ChaosOutcome {
        sent,
        acked,
        skipped,
        repair_s: m.samples("wcl.repair_s").to_vec(),
        unattributed: net.sim.unattributed_msgs(),
        unresolved_sends,
        empty_views,
        live_nodes,
        counters,
    }
}

// ---------------------------------------------------------------------
// Group-lifecycle chaos: the durable-group acceptance scenario.
// ---------------------------------------------------------------------

/// What one group-lifecycle run produced (tentpole acceptance: groups
/// created, joined, migrated and deleted while partitions and staggered
/// crash/restarts are active).
#[derive(Clone, Debug)]
pub struct LifecycleOutcome {
    /// The tracked echo workload over the surviving groups.
    pub echo: ChaosOutcome,
    /// Groups deleted mid-run (their leaders sent their members
    /// tombstones).
    pub deleted: Vec<GroupId>,
    /// Live nodes still holding a deleted group at the end. The
    /// tentpole invariant: **zero**, always.
    pub resurrections: usize,
    /// Number of deletion-propagation latency samples observed.
    pub deletion_prop_samples: usize,
    /// 95th percentile of deletion propagation latency, seconds
    /// (tombstone signed → a member applying it, pushed or in answer to
    /// an exchange, across partitions and restarts).
    pub deletion_prop_p95_s: f64,
    /// Live members of the group created *mid-run* (join-under-churn).
    pub late_members: usize,
    /// Whether the migrated member ended the run holding its new group.
    pub migrated_ok: bool,
    /// Journal records replayed across all crash-restarts.
    pub journal_replays: u64,
    /// Groups restored from journal replay across all crash-restarts.
    pub journal_restored: u64,
    /// Serialized deterministic observables (counters minus the
    /// shard-local `net.pool_*` family, samples, per-node traffic, final
    /// clock). Byte-identical across shard counts.
    pub trace: Vec<u8>,
}

impl LifecycleOutcome {
    /// What this run broke: the recovery invariants of its echo workload
    /// ([`ChaosOutcome::violations`]), then the lifecycle's own — no
    /// deleted group held by a live node, a deletion made and its
    /// propagation sampled within 150 s at p95, the
    /// late group grown to three members, the migrant holding its new
    /// group, and a crash-restart that replayed its journal.
    pub fn violations(&self, min_delivery: f64) -> Vec<String> {
        let mut broken = self.echo.violations(min_delivery);
        broken.extend(failed_checks([
            (self.resurrections != 0, format!("deleted group resurrected: {} live node(s) still hold one", self.resurrections)),
            (self.deleted.is_empty(), "no group was deleted".to_string()),
            (self.deletion_prop_samples == 0, "no deletion propagation latency was sampled".to_string()),
            (
                self.deletion_prop_p95_s > DELETION_PROP_P95_MAX_S,
                format!("deletion propagation p95 {:.1}s exceeds {DELETION_PROP_P95_MAX_S:.0}s", self.deletion_prop_p95_s),
            ),
            (self.late_members < 3, format!("late group only reached {} members", self.late_members)),
            (!self.migrated_ok, "migrated member lost its new group".to_string()),
            (
                self.journal_replays == 0 || self.journal_restored == 0,
                format!(
                    "no crash-restart replayed the journal (replays={}, restored={})",
                    self.journal_replays, self.journal_restored
                ),
            ),
        ]));
        broken
    }
}

/// Serializes every deterministic observable of a finished run, for the
/// shard-invariance comparison: the trace the determinism suite compares
/// (host-side metric families exempt), then the final clock.
fn serialize_observables(net: &WhisperNet) -> Vec<u8> {
    let mut out = net.sim.metrics().deterministic_trace();
    out.extend_from_slice(&net.sim.now().as_micros().to_le_bytes());
    out
}

/// Runs the full group-lifecycle scenario. Deterministic in `params`
/// (including `params.shards`: the trace is byte-identical at any shard
/// count).
///
/// Timeline, in workload rounds:
/// * round 1 — a **late group** is created and joined while the system
///   is already under load (create/join under churn);
/// * the scripted fault window (a partition island *plus* staggered
///   crash/restarts) opens after `FAULT_AFTER_ROUND` rounds;
/// * one round into the window, `max(1, groups/4)` groups are
///   **deleted** — tombstones, pushed from member to member and
///   answered to exchange requests, must cross the partition and reach
///   crash-restarted members, and nothing may resurrect;
/// * the round after that, one member **migrates** from the first group
///   to the second (a revocation in one, a passport in the other).
pub fn run_group_lifecycle(params: &ChaosParams) -> LifecycleOutcome {
    let mut builder = NetBuilder::cluster(params.nodes, params.seed);
    builder.sim = builder.sim.clone().with_shards(params.shards);
    builder.whisper.wcl.adaptive_rto = params.adaptive_rto;
    let mut net = builder.build_whisper(|_| Box::new(EchoApp::default()));
    net.sim.run_for_secs(params.warmup);
    let (leaders, groups, mut membership) =
        net.form_groups(params.groups, "life", params.seed ^ 0x51, params.settle);

    // Fault plan: two sequential windows. A partition island first (the
    // deletions happen *inside* it, so tombstones must cross the healed
    // cut), then staggered crash/restarts two rounds after the heal (the
    // migration happens inside that one, and restarted members must
    // rebuild group state from their journals alone).
    let (from, to) = fault_window(&net);
    let crash_from = SimTime::from_micros(to.as_micros() + 2 * ROUND_PERIOD_S * 1_000_000);
    let crash_to = SimTime::from_micros(crash_from.as_micros() + FAULT_LEN_S * 1_000_000);
    let mut rng = StdRng::seed_from_u64(params.seed ^ 0x11FE_C7C1E);
    let victims = shuffled_victims(&net, &leaders, &mut rng);
    let (island, rest) = victims.split_at(victims.len() / 10);
    let crashed = &rest[..(victims.len() / 16).max(1).min(rest.len())];
    let plan = FaultPlan::new().partition(island.iter().copied(), from, to);
    net.sim.install_fault_plan(staggered_crashes(plan, crashed, crash_from, crash_to));

    // Lifecycle schedule: deletions inside the partition window,
    // migration inside the crash window.
    let late_round = 1u64;
    let delete_round = FAULT_AFTER_ROUND + 1;
    let migrate_round = FAULT_AFTER_ROUND + FAULT_LEN_S / ROUND_PERIOD_S + 3;
    let delete_count = (groups.len() / 4).max(1).min(groups.len().saturating_sub(2));
    let doomed: Vec<usize> = (groups.len() - delete_count..groups.len()).collect();

    let mut active: Vec<bool> = vec![true; groups.len()];
    let mut deleted: Vec<GroupId> = Vec::new();
    let mut late: Option<(NodeId, GroupId, Vec<NodeId>)> = None;
    let mut migrant: Option<(NodeId, GroupId)> = None;
    let mut requests = Requests::default();
    for round in 0..params.rounds {
        if round == late_round {
            // Create + join a fresh group while the workload is running.
            let leader = leaders[0];
            let name = "life-late";
            let mut gid = GroupId::from_name(name);
            net.sim.with_node_ctx::<WhisperNode>(leader, |node, ctx| {
                gid = node.create_group(ctx, name);
            });
            let invitees: Vec<NodeId> = membership
                .get(1)
                .map(|m| m.iter().copied().take(6).collect())
                .unwrap_or_default();
            for &m in &invitees {
                net.join(leader, gid, m);
            }
            late = Some((leader, gid, invitees));
        }
        if round == delete_round {
            for &gi in &doomed {
                let leader = leaders[gi];
                let group = groups[gi];
                net.sim.with_node_ctx::<WhisperNode>(leader, |node, ctx| {
                    assert!(node.delete_group(ctx, group), "leader deletes its group");
                });
                active[gi] = false;
                deleted.push(group);
            }
        }
        if round == migrate_round {
            // Move one member from group 0 to group 1: a revocation in
            // one, a passport in the other.
            let candidate = membership.first().and_then(|m| {
                m.iter()
                    .copied()
                    .find(|id| net.sim.contains(*id) && !net.sim.is_down(*id))
            });
            if let (Some(x), true) = (candidate, groups.len() >= 2) {
                net.sim.with_node_ctx::<WhisperNode>(leaders[0], |node, _| {
                    node.remove_member(groups[0], x);
                });
                if net.join(leaders[1], groups[1], x) {
                    migrant = Some((x, groups[1]));
                }
                if let Some(m) = membership.first_mut() {
                    m.retain(|id| *id != x);
                }
            }
        }
        for (gi, members) in membership.iter().enumerate() {
            if active[gi] {
                requests.round(&mut net, groups[gi], members, params.pairs_per_round, &mut rng);
            }
        }
        // The late group joins the workload once formed.
        if let Some((_, gid, invitees)) = &late {
            requests.round(&mut net, *gid, invitees, params.pairs_per_round.min(2), &mut rng);
        }
        net.sim.run_for_secs(ROUND_PERIOD_S);
    }
    net.sim.run_for_secs(HEAL_WAIT_S);

    let echo = collect(&net, requests.skipped);
    let resurrections = net
        .live()
        .into_iter()
        .map(|id| {
            let node = net.sim.node::<WhisperNode>(id).expect("live");
            deleted
                .iter()
                .filter(|g| node.ppss().group(**g).is_some())
                .count()
        })
        .sum();
    let late_members = late
        .as_ref()
        .map(|(_, gid, _)| net.member_count(*gid))
        .unwrap_or(0);
    let migrated_ok = migrant
        .map(|(x, g)| {
            net.sim
                .node::<WhisperNode>(x)
                .is_some_and(|n| n.ppss().group(g).is_some())
        })
        .unwrap_or(false);
    let m = net.sim.metrics();
    let prop = m.samples("ppss.deletion_prop_s");
    LifecycleOutcome {
        deleted,
        resurrections,
        deletion_prop_samples: prop.len(),
        deletion_prop_p95_s: if prop.is_empty() {
            0.0
        } else {
            Cdf::from_samples(prop.iter().copied()).percentile(95.0)
        },
        late_members,
        migrated_ok,
        journal_replays: m.counter("ppss.journal_replayed"),
        journal_restored: m.counter("ppss.journal_groups_restored"),
        trace: serialize_observables(&net),
        echo,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean() -> ChaosOutcome {
        ChaosOutcome {
            sent: 10,
            acked: 9,
            skipped: 1,
            repair_s: vec![0.5],
            unattributed: 0,
            unresolved_sends: 0,
            empty_views: 0,
            live_nodes: 96,
            counters: Vec::new(),
        }
    }

    /// A run that kept every invariant yields nothing; each invariant
    /// broken alone yields exactly its own message.
    #[test]
    fn violations_name_each_broken_invariant_alone() {
        assert_eq!(clean().violations(0.90), Vec::<String>::new(), "9 of 10 meets a 90 % floor");
        let cases = [
            (ChaosOutcome { unattributed: 2, ..clean() }, "2 message(s) vanished without a named drop counter"),
            (ChaosOutcome { unresolved_sends: -1, ..clean() }, "-1 tracked send(s) ended in no outcome or in several"),
            (ChaosOutcome { sent: 0, acked: 0, ..clean() }, "workload issued no tracked requests"),
            (ChaosOutcome { acked: 8, ..clean() }, "delivery 80.0% < 90% (8 acked / 10 sent, 1 skipped)"),
            (ChaosOutcome { empty_views: 3, ..clean() }, "3/96 live node(s) ended with an empty view"),
        ];
        for (out, message) in cases {
            assert_eq!(out.violations(0.90), vec![message.to_string()]);
        }
    }
}
