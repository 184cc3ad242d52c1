//! Deterministic chaos scenarios over the full WHISPER stack.
//!
//! Each scenario builds a population, converges it, installs a scripted
//! [`FaultPlan`] and drives a tracked request/response workload through
//! the private groups while the fault is active. The outcome reports
//! end-to-end delivery, route-repair latency and the sim-level drop
//! attribution, so tests can assert the recovery invariants of the fault
//! model (DESIGN.md §11):
//!
//! * every tracked request is either answered or accounted for by a
//!   named drop counter (`unattributed == 0` always);
//! * after the heal window, delivery stays above the floor the scenario
//!   promises;
//! * no live node is left with an empty Nylon view (overlay
//!   convergence survives the fault).
//!
//! Everything is driven by seeds: the same `(scenario, params)` pair
//! replays the exact same trace.

use std::collections::HashMap;

use crate::harness::{NetBuilder, WhisperNet};
use whisper_core::node::{GroupApp, WhisperApi, WhisperNode};
use whisper_core::{GroupId, PrivateEntry};
use whisper_net::fault::{FaultPlan, GilbertElliott};
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
    /// Requests this node answered.
    pub echoed: u64,
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
                    if api.send_private_to_entry(ctx, group, &entry, resp, false) {
                        self.echoed += 1;
                    }
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
    /// Seconds between rounds.
    pub round_period: u64,
    /// Requests issued per group per round.
    pub pairs_per_round: usize,
    /// The fault window opens after this many rounds...
    pub fault_after_round: u64,
    /// ...and lasts this many seconds.
    pub fault_len: u64,
    /// Drain time after the last round, seconds (lets retries resolve).
    pub heal_wait: u64,
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
            round_period: 10,
            pairs_per_round: 3,
            fault_after_round: 2,
            // Short enough that a request issued as the window opens can
            // still resolve on its last backed-off retry after the heal
            // (the RTO ladder reaches ~2+4+8 s past the send).
            fault_len: 20,
            heal_wait: 60,
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
}

/// What one chaos run produced.
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    /// Tracked requests issued.
    pub sent: u64,
    /// Requests answered end-to-end.
    pub acked: u64,
    /// Requests answered by responders (before the answer travelled back).
    pub echoed: u64,
    /// Request slots skipped (source down, empty view, no route).
    pub skipped: u64,
    /// Route-repair latencies observed (`wcl.repair_s`), seconds.
    pub repair_s: Vec<f64>,
    /// `Σup − (Σdown + Σ drop counters + in-flight)`; non-zero means a
    /// message vanished without a named cause.
    pub unattributed: i64,
    /// `wcl.route_attempts − (Σ the five outcome counters + sends still
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
}

/// Runs one scenario end to end. Deterministic in `(scenario, params)`.
pub fn run_scenario(scenario: Scenario, params: &ChaosParams) -> ChaosOutcome {
    let mut builder = NetBuilder::cluster(params.nodes, params.seed);
    builder.sim = builder.sim.clone().with_shards(params.shards);
    builder.whisper.wcl.adaptive_rto = params.adaptive_rto;
    let mut net = builder.build_whisper(|_| Box::new(EchoApp::default()));
    net.sim.run_for_secs(params.warmup);

    let leaders: Vec<NodeId> = net.publics().into_iter().take(params.groups).collect();
    assert_eq!(leaders.len(), params.groups, "not enough P-nodes for leaders");
    let groups = net.create_groups(&leaders, "chaos");
    let membership = net.subscribe_members(&leaders, &groups, 1, params.seed ^ 0x51);
    net.sim.run_for_secs(params.settle);

    // The fault window is anchored to the request schedule: it opens
    // `fault_after_round` rounds into the workload, halfway between two
    // send instants — the preceding round's requests (answered within a
    // second on the cluster profile) are the pre-fault baseline, and the
    // requests issued *inside* the window exercise retry and repair.
    let t0 = net.sim.now().as_micros();
    let from = SimTime::from_micros(
        t0 + (params.fault_after_round * params.round_period + params.round_period / 2)
            * 1_000_000,
    );
    let to = SimTime::from_micros(from.as_micros() + params.fault_len * 1_000_000);
    let mut rng = StdRng::seed_from_u64(params.seed ^ 0xC4A0_5EED);
    let mut protected: Vec<NodeId> = leaders.clone();
    protected.extend((0..net.builder.bootstraps as u64).map(NodeId));
    let plan = build_plan(scenario, &net, &protected, from, to, &mut rng);
    net.sim.install_fault_plan(plan);

    let mut nonce = 0u64;
    let mut skipped = 0u64;
    for _round in 0..params.rounds {
        for (gi, members) in membership.iter().enumerate() {
            if members.len() < 2 {
                continue;
            }
            for _ in 0..params.pairs_per_round {
                let src = members[rng.gen_range(0..members.len())];
                nonce += 1;
                if !send_request(&mut net, groups[gi], src, nonce, &mut rng) {
                    skipped += 1;
                }
            }
        }
        net.sim.run_for_secs(params.round_period);
    }
    net.sim.run_for_secs(params.heal_wait);
    collect(&net, skipped)
}

/// Builds the scripted fault plan for `scenario` over `[from, to)`.
fn build_plan(
    scenario: Scenario,
    net: &WhisperNet,
    protected: &[NodeId],
    from: SimTime,
    to: SimTime,
    rng: &mut StdRng,
) -> FaultPlan {
    // Bootstraps and group leaders stay on the "mainland" / alive, so
    // every scenario has a live core to re-converge around.
    let mut victims: Vec<NodeId> = net
        .live()
        .into_iter()
        .filter(|id| !protected.contains(id))
        .collect();
    for i in (1..victims.len()).rev() {
        victims.swap(i, rng.gen_range(0..=i));
    }
    match scenario {
        Scenario::Partition => {
            let island: Vec<NodeId> = victims.iter().take(victims.len() / 4).copied().collect();
            FaultPlan::new().partition(island, from, to)
        }
        Scenario::BurstLoss => FaultPlan::new().burst_loss(from, to, GilbertElliott::heavy()),
        Scenario::LatencySpike => FaultPlan::new().latency_spike(from, to, 10),
        Scenario::CrashRestart => {
            let mut plan = FaultPlan::new();
            let crashed = victims.len() / 10;
            for (i, &node) in victims.iter().take(crashed).enumerate() {
                // Stagger crashes across the first half of the window so
                // failures are not synchronized.
                let span = to.as_micros() - from.as_micros();
                let at = SimTime::from_micros(
                    from.as_micros() + span / 2 * i as u64 / crashed.max(1) as u64,
                );
                plan = plan.crash_restart(node, at, to);
            }
            plan
        }
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

/// Drop counters that, together with deliveries and in-flight messages,
/// must account for every send (the attribution identity of DESIGN.md
/// §11).
pub const DROP_COUNTERS: [&str; 7] = [
    "net.lost",
    "net.lost_burst",
    "net.drop_partition",
    "net.drop_crashed",
    "net.drop_dead_target",
    "net.nat_blocked",
    "net.drop_sender_gone",
];

/// The ways a tracked WCL send ends; with the sends still pending they
/// must account for every `wcl.route_attempts`.
pub const SEND_OUTCOMES: [&str; 5] = [
    "wcl.route_first_success",
    "wcl.route_alt_success",
    "wcl.route_no_alt",
    "wcl.route_exhausted",
    "wcl.restart_pending_dropped",
];

fn collect(net: &WhisperNet, skipped: u64) -> ChaosOutcome {
    let (mut sent, mut acked, mut echoed) = (0u64, 0u64, 0u64);
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
            echoed += app.echoed;
        }
        if node.nylon().view().is_empty() {
            empty_views += 1;
        }
    }
    let m = net.sim.metrics();
    let traffic = m.traffic_snapshot();
    let up: u64 = traffic.values().map(|t| t.up_msgs).sum();
    let down: u64 = traffic.values().map(|t| t.down_msgs).sum();
    let drops: u64 = DROP_COUNTERS.iter().map(|n| m.counter(n)).sum();
    let unattributed = up as i64 - (down + drops + net.sim.in_flight_msgs()) as i64;
    let resolved: u64 = SEND_OUTCOMES.iter().map(|n| m.counter(n)).sum();
    let unresolved_sends = m.counter("wcl.route_attempts") as i64 - (resolved + pending) as i64;
    let counters = m
        .counter_names()
        .map(|n| (n.to_string(), m.counter(n)))
        .collect();
    ChaosOutcome {
        sent,
        acked,
        echoed,
        skipped,
        repair_s: m.samples("wcl.repair_s").to_vec(),
        unattributed,
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
    /// Groups deleted mid-run (their leaders published tombstones).
    pub deleted: Vec<GroupId>,
    /// Live nodes still holding a deleted group at the end. The
    /// tentpole invariant: **zero**, always.
    pub resurrections: usize,
    /// Number of descriptor-adoption latency samples observed.
    pub desc_prop_samples: usize,
    /// 95th percentile of descriptor propagation latency, seconds
    /// (publication → adoption by a member, across partitions and
    /// restarts).
    pub desc_prop_p95_s: f64,
    /// Live members of the group created *mid-run* (join-under-churn).
    pub late_members: usize,
    /// Whether the migrated member ended the run holding its new group.
    pub migrated_ok: bool,
    /// Journal records replayed across all crash-restarts.
    pub journal_replays: u64,
    /// Groups restored from journal replay across all crash-restarts.
    pub journal_restored: u64,
    /// Mean wall-clock journal recovery time per restart, microseconds
    /// (host-dependent; never part of the determinism trace).
    pub replay_wall_us_mean: f64,
    /// Serialized deterministic observables (counters minus the
    /// shard-local `net.pool_*` family, samples minus the host-dependent
    /// `*_wall_us` family, per-node traffic, final clock). Byte-identical
    /// across shard counts.
    pub trace: Vec<u8>,
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
///   crash/restarts) opens after `fault_after_round` rounds;
/// * one round into the window, `max(1, groups/4)` groups are
///   **deleted** — tombstones must cross the partition and reach
///   crash-restarted members, and nothing may resurrect;
/// * the round after that, one member **migrates** from the first group
///   to the second (removal dot in one, fresh admission in the other).
pub fn run_group_lifecycle(params: &ChaosParams) -> LifecycleOutcome {
    let mut builder = NetBuilder::cluster(params.nodes, params.seed);
    builder.sim = builder.sim.clone().with_shards(params.shards);
    builder.whisper.wcl.adaptive_rto = params.adaptive_rto;
    let mut net = builder.build_whisper(|_| Box::new(EchoApp::default()));
    net.sim.run_for_secs(params.warmup);

    let leaders: Vec<NodeId> = net.publics().into_iter().take(params.groups).collect();
    assert_eq!(leaders.len(), params.groups, "not enough P-nodes for leaders");
    let groups = net.create_groups(&leaders, "life");
    let mut membership = net.subscribe_members(&leaders, &groups, 1, params.seed ^ 0x51);
    net.sim.run_for_secs(params.settle);

    // Fault plan: two sequential windows. A partition island first (the
    // deletions happen *inside* it, so tombstones must cross the healed
    // cut), then staggered crash/restarts two rounds after the heal (the
    // migration happens inside that one, and restarted members must
    // rebuild group state from their journals alone).
    let t0 = net.sim.now().as_micros();
    let from = SimTime::from_micros(
        t0 + (params.fault_after_round * params.round_period + params.round_period / 2)
            * 1_000_000,
    );
    let to = SimTime::from_micros(from.as_micros() + params.fault_len * 1_000_000);
    let crash_from =
        SimTime::from_micros(to.as_micros() + 2 * params.round_period * 1_000_000);
    let crash_to =
        SimTime::from_micros(crash_from.as_micros() + params.fault_len * 1_000_000);
    let mut rng = StdRng::seed_from_u64(params.seed ^ 0x11FE_C7C1E);
    let mut protected: Vec<NodeId> = leaders.clone();
    protected.extend((0..net.builder.bootstraps as u64).map(NodeId));
    let mut victims: Vec<NodeId> = net
        .live()
        .into_iter()
        .filter(|id| !protected.contains(id))
        .collect();
    for i in (1..victims.len()).rev() {
        victims.swap(i, rng.gen_range(0..=i));
    }
    let island: Vec<NodeId> = victims.iter().take(victims.len() / 10).copied().collect();
    let mut plan = FaultPlan::new().partition(island, from, to);
    let crashed = (victims.len() / 16).max(1);
    for (i, &node) in victims.iter().skip(victims.len() / 10).take(crashed).enumerate() {
        let span = crash_to.as_micros() - crash_from.as_micros();
        let at = SimTime::from_micros(
            crash_from.as_micros() + span / 2 * i as u64 / crashed as u64,
        );
        plan = plan.crash_restart(node, at, crash_to);
    }
    net.sim.install_fault_plan(plan);

    // Lifecycle schedule: deletions inside the partition window,
    // migration inside the crash window.
    let late_round = 1u64;
    let delete_round = params.fault_after_round + 1;
    let migrate_round =
        params.fault_after_round + params.fault_len / params.round_period + 3;
    let delete_count = (groups.len() / 4).max(1).min(groups.len().saturating_sub(2));
    let doomed: Vec<usize> = (groups.len() - delete_count..groups.len()).collect();

    let mut active: Vec<bool> = vec![true; groups.len()];
    let mut deleted: Vec<GroupId> = Vec::new();
    let mut late: Option<(NodeId, GroupId, Vec<NodeId>)> = None;
    let mut migrant: Option<(NodeId, GroupId)> = None;
    let mut nonce = 0u64;
    let mut skipped = 0u64;
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
            // Move one member from group 0 to group 1: a removal dot in
            // one OR-set, a fresh admission dot in the other.
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
            if !active[gi] || members.len() < 2 {
                continue;
            }
            for _ in 0..params.pairs_per_round {
                let src = members[rng.gen_range(0..members.len())];
                nonce += 1;
                if !send_request(&mut net, groups[gi], src, nonce, &mut rng) {
                    skipped += 1;
                }
            }
        }
        // The late group joins the workload once formed.
        if let Some((_, gid, invitees)) = &late {
            if invitees.len() >= 2 {
                for _ in 0..params.pairs_per_round.min(2) {
                    let src = invitees[rng.gen_range(0..invitees.len())];
                    nonce += 1;
                    if !send_request(&mut net, *gid, src, nonce, &mut rng) {
                        skipped += 1;
                    }
                }
            }
        }
        net.sim.run_for_secs(params.round_period);
    }
    net.sim.run_for_secs(params.heal_wait);

    let echo = collect(&net, skipped);
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
    let prop = m.samples("ppss.desc_prop_s");
    LifecycleOutcome {
        deleted,
        resurrections,
        desc_prop_samples: prop.len(),
        desc_prop_p95_s: if prop.is_empty() {
            0.0
        } else {
            Cdf::from_samples(prop.iter().copied()).percentile(95.0)
        },
        late_members,
        migrated_ok,
        journal_replays: m.counter("ppss.journal_replayed"),
        journal_restored: m.counter("ppss.journal_groups_restored"),
        replay_wall_us_mean: {
            let s = m.samples("ppss.journal_replay_wall_us");
            if s.is_empty() { 0.0 } else { s.iter().sum::<f64>() / s.len() as f64 }
        },
        trace: serialize_observables(&net),
        echo,
    }
}
