//! Determinism regression: the simulator is a pure function of its seed.
//!
//! WHISPER's evaluation (paper §V) is reproduced by replaying seeded
//! simulator runs, so two runs with the same seed must produce
//! **byte-identical** event traces — across processes, machines and
//! rebuilds. This test serializes everything observable about a run (every
//! message receipt with its timestamp and payload, every timer firing,
//! final metrics counters and per-node traffic) and compares the raw
//! bytes. If it ever breaks, something snuck a nondeterministic input into
//! the engine: OS entropy, hash-map iteration order, wall-clock time…
//! See `DESIGN.md` § "Determinism & randomness".

use whisper_net::nat::NatType;
use whisper_net::sched::Scheduler;
use whisper_net::sim::{Ctx, Protocol, Sim, SimConfig};
use whisper_net::{Endpoint, NodeId, Payload, SimDuration};
use whisper_rand::{Rng, RngCore};

/// A protocol that exercises every randomness source a real protocol
/// uses — random partner selection, random payload bytes, random timer
/// jitter — and appends every event it observes to a byte trace.
struct Chatter {
    peers: Vec<NodeId>,
    trace: Vec<u8>,
}

impl Chatter {
    fn log(&mut self, tag: u8, now_us: u64, detail: &[u8]) {
        self.trace.push(tag);
        self.trace.extend_from_slice(&now_us.to_le_bytes());
        self.trace.extend_from_slice(detail);
    }
}

impl Protocol for Chatter {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let jitter = ctx.rng().gen_range(0..20_000u64);
        ctx.set_timer(SimDuration::from_micros(10_000 + jitter), 0);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, _ep: Endpoint, data: &Payload) {
        let now = ctx.now().as_micros();
        let mut detail = from.0.to_le_bytes().to_vec();
        detail.extend_from_slice(data);
        self.log(b'M', now, &detail);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let now = ctx.now().as_micros();
        self.log(b'T', now, &token.to_le_bytes());
        // Fire a random-length payload of random bytes at a random peer.
        let target = self.peers[ctx.rng().gen_range(0..self.peers.len())];
        let len = ctx.rng().gen_range(8..64usize);
        let mut payload = vec![0u8; len];
        ctx.rng().fill_bytes(&mut payload);
        ctx.send_to(Endpoint::public(target), payload);
        let jitter = ctx.rng().gen_range(0..30_000u64);
        ctx.set_timer(SimDuration::from_micros(20_000 + jitter), token + 1);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Runs a 16-node, 30-simulated-second chatter mesh on the PlanetLab
/// profile (latency jitter + loss, so engine randomness shapes delivery)
/// and returns the full serialized observable state.
fn run_trace(seed: u64) -> Vec<u8> {
    run_trace_sharded(seed, 1, false)
}

/// [`run_trace`] with an explicit shard count and thread policy, for the
/// shard-invariance matrix.
fn run_trace_sharded(seed: u64, shards: usize, threaded: bool) -> Vec<u8> {
    run_trace_configured(seed, shards, threaded, true)
}

/// [`run_trace_sharded`] with an explicit payload-pooling switch: like the
/// shard count, buffer recycling is a performance knob the trace must not
/// see (DESIGN.md §13).
fn run_trace_configured(seed: u64, shards: usize, threaded: bool, pooling: bool) -> Vec<u8> {
    run_trace_scheduled(seed, shards, threaded, pooling, Scheduler::Wheel)
}

/// [`run_trace_configured`] with an explicit event-queue scheduler: the
/// calendar queue and the reference heap must pop in identical canonical
/// key order, so the scheduler choice is a pure wall-clock knob
/// (DESIGN.md §14).
fn run_trace_scheduled(
    seed: u64,
    shards: usize,
    threaded: bool,
    pooling: bool,
    sched: Scheduler,
) -> Vec<u8> {
    run_trace_in_runs(seed, shards, threaded, pooling, sched, 1)
}

/// [`run_trace_scheduled`] with the 30 simulated seconds cut into `runs`
/// `run_for` calls of equal length.
fn run_trace_in_runs(
    seed: u64,
    shards: usize,
    threaded: bool,
    pooling: bool,
    sched: Scheduler,
    runs: u64,
) -> Vec<u8> {
    // Profiling stays ON for the whole matrix: the wall-clock buckets it
    // gathers land only in the exempt `prof.*` counters, so the trace must
    // not change with the profiler running (DESIGN.md §16).
    let mut sim = Sim::new(
        SimConfig::planetlab(seed)
            .with_shards(shards)
            .with_threads(threaded)
            .with_pooling(pooling)
            .with_scheduler(sched)
            .with_profiling(true),
    );
    let peers: Vec<NodeId> = (0..16).map(NodeId).collect();
    for _ in 0..16u64 {
        // All nodes public so the chatter mesh is fully connected; the NAT
        // machinery has its own tests.
        sim.add_node(
            Box::new(Chatter { peers: peers.clone(), trace: Vec::new() }),
            NatType::Public,
        );
    }
    for _ in 0..runs {
        sim.run_for(SimDuration::from_micros(30_000_000 / runs));
    }

    let mut out = Vec::new();
    for id in sim.node_ids() {
        let chatter = sim.node::<Chatter>(id).expect("chatter node");
        out.extend_from_slice(&id.0.to_le_bytes());
        out.extend_from_slice(&(chatter.trace.len() as u64).to_le_bytes());
        out.extend_from_slice(&chatter.trace);
    }
    // Engine-side observables: counters and per-node traffic (BTreeMap:
    // iteration order is defined).
    let metrics = sim.metrics();
    for (node, traffic) in metrics.traffic_snapshot() {
        out.extend_from_slice(&node.0.to_le_bytes());
        out.extend_from_slice(&traffic.up_msgs.to_le_bytes());
        out.extend_from_slice(&traffic.down_msgs.to_le_bytes());
        out.extend_from_slice(&traffic.up_bytes.to_le_bytes());
        out.extend_from_slice(&traffic.down_bytes.to_le_bytes());
    }
    out.extend_from_slice(&sim.now().as_micros().to_le_bytes());
    out
}

/// Two runs with the same seed are byte-identical.
#[test]
fn same_seed_is_byte_identical() {
    let a = run_trace(0x5748_5350); // "WHSP"
    let b = run_trace(0x5748_5350);
    assert_eq!(a.len(), b.len(), "trace lengths diverged");
    assert!(a == b, "same-seed traces are not byte-identical");
    assert!(!a.is_empty(), "trace must actually contain events");
}

/// A different seed produces a different trace (the engine actually uses
/// the seed).
#[test]
fn different_seed_differs() {
    assert_ne!(run_trace(1), run_trace(2), "seed does not influence the trace");
}

/// The determinism contract's strongest clause (DESIGN.md §12): the shard
/// count and thread policy are *performance knobs*, invisible to the
/// trace. For every seed in the matrix, the 2- and 4-shard runs —
/// sequential and threaded — must be byte-identical to the 1-shard run,
/// including every counter and per-node traffic figure.
#[test]
fn shard_count_is_invisible_to_the_trace() {
    for seed in [7u64, 11, 13] {
        let base = run_trace_sharded(seed, 1, false);
        assert!(!base.is_empty(), "seed {seed}: empty trace proves nothing");
        for shards in [2usize, 4] {
            let sharded = run_trace_sharded(seed, shards, false);
            assert!(
                base == sharded,
                "seed {seed}: {shards}-shard sequential trace diverged from 1-shard"
            );
        }
        let threaded = run_trace_sharded(seed, 4, true);
        assert!(
            base == threaded,
            "seed {seed}: 4-shard threaded trace diverged from 1-shard"
        );
    }
}

/// Payload pooling is a pure performance knob (DESIGN.md §13): recycling
/// buffers between events must never be observable. Pool-on and pool-off
/// runs — at one shard and at four — are byte-identical, including every
/// delivered payload byte captured in the chatter traces.
#[test]
fn pooling_is_invisible_to_the_trace() {
    for seed in [7u64, 11, 13] {
        let pooled = run_trace_configured(seed, 1, false, true);
        let unpooled = run_trace_configured(seed, 1, false, false);
        assert!(!pooled.is_empty(), "seed {seed}: empty trace proves nothing");
        assert!(
            pooled == unpooled,
            "seed {seed}: pool-off trace diverged from pool-on (buffer reuse leaked)"
        );
        let sharded_unpooled = run_trace_configured(seed, 4, true, false);
        assert!(
            pooled == sharded_unpooled,
            "seed {seed}: 4-shard pool-off trace diverged from 1-shard pool-on"
        );
    }
}

/// The tentpole clause of DESIGN.md §14: the hierarchical calendar queue
/// and the reference binary heap produce **byte-identical** traces for
/// every seed in the matrix, at 1, 2 and 4 shards, sequential and
/// threaded. Ties at the same instant, crash-deferral re-keys and
/// far-future timers must all pop in the same canonical key order from
/// either structure.
#[test]
fn scheduler_is_invisible_to_the_trace() {
    for seed in [7u64, 11, 13] {
        let base = run_trace_scheduled(seed, 1, false, true, Scheduler::Wheel);
        assert!(!base.is_empty(), "seed {seed}: empty trace proves nothing");
        for shards in [1usize, 2, 4] {
            assert!(
                base == run_trace_scheduled(seed, shards, false, true, Scheduler::Heap),
                "seed {seed}: heap {shards}-shard sequential trace diverged from wheel"
            );
            if shards > 1 {
                assert!(
                    base == run_trace_scheduled(seed, shards, false, true, Scheduler::Wheel),
                    "seed {seed}: wheel {shards}-shard sequential trace diverged"
                );
                assert!(
                    base == run_trace_scheduled(seed, shards, true, true, Scheduler::Heap),
                    "seed {seed}: heap {shards}-shard threaded trace diverged from wheel"
                );
                assert!(
                    base == run_trace_scheduled(seed, shards, true, true, Scheduler::Wheel),
                    "seed {seed}: wheel {shards}-shard threaded trace diverged"
                );
            }
        }
    }
}

/// Run boundaries are invisible: a deadline cuts a lookahead window short
/// wherever it falls, the shards' threads end with every run and the next
/// run starts new ones, and none of it may show. 3 000 runs of 10 ms —
/// windows are 6 ms from the earliest pending event, so deadlines keep
/// landing inside one, with cross-shard deliveries in flight — replay
/// one run of 30 s byte for byte, on every driver.
#[test]
fn run_boundaries_are_invisible_to_the_trace() {
    let base = run_trace(7);
    for (shards, threaded) in [(1, false), (4, false), (4, true)] {
        assert!(
            base == run_trace_in_runs(7, shards, threaded, true, Scheduler::Wheel, 3_000),
            "{shards} shards, threaded {threaded}: 3000 runs of 10 ms diverged from one of 30 s"
        );
    }
}

/// Answers every application message it is shipped an entry with, as a
/// request/response application does.
struct Answerer;

impl whisper_core::GroupApp for Answerer {
    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_>,
        api: &mut whisper_core::WhisperApi<'_>,
        group: whisper_core::GroupId,
        _from: NodeId,
        data: &[u8],
        reply_entry: Option<whisper_core::PrivateEntry>,
    ) {
        if let Some(entry) = reply_entry {
            api.send_private_to_entry(ctx, group, &entry, data.to_vec(), false);
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Runs the full WHISPER stack — PSS warm-up, a join, then a conversation
/// that establishes a circuit and rides it both ways, stating who talks
/// once in each direction — and serializes every
/// deterministic observable: all counters, all sample series *except* the
/// wall-clock `*_wall_us` secondaries (the one sanctioned
/// host-dependent output; see DESIGN.md § "Deterministic crypto
/// accounting"), per-node traffic, and the final clock.
fn run_stack_trace(seed: u64) -> Vec<u8> {
    run_stack_trace_sharded(seed, 1)
}

/// [`run_stack_trace`] with an explicit shard count (auto thread policy),
/// proving the full crypto stack rides the contract too.
fn run_stack_trace_sharded(seed: u64, shards: usize) -> Vec<u8> {
    use whisper_core::{WhisperConfig, WhisperNode};
    use whisper_crypto::rsa::KeyPair;
    use whisper_rand::rngs::StdRng;
    use whisper_rand::SeedableRng;

    let cfg = WhisperConfig::default();
    let mut keyrng = StdRng::seed_from_u64(seed);
    let mut sim = Sim::new(SimConfig::cluster(seed).with_shards(shards).with_profiling(true));
    let mk = |boot: bool, keyrng: &mut StdRng| {
        let key = KeyPair::generate(cfg.nylon.rsa, keyrng);
        let mut node = WhisperNode::with_app(cfg.clone(), key, Box::new(Answerer));
        if !boot {
            node.nylon_mut().set_bootstrap(vec![NodeId(0), NodeId(1)]);
        }
        node
    };
    let b0 = sim.add_node(Box::new(mk(true, &mut keyrng)), NatType::Public);
    let b1 = sim.add_node(Box::new(mk(true, &mut keyrng)), NatType::Public);
    sim.with_node_ctx::<WhisperNode>(b0, |n, _| n.nylon_mut().set_bootstrap(vec![b1]));
    sim.with_node_ctx::<WhisperNode>(b1, |n, _| n.nylon_mut().set_bootstrap(vec![b0]));
    for _ in 0..6 {
        sim.add_node(Box::new(mk(false, &mut keyrng)), NatType::Public);
    }
    let source = sim.add_node(Box::new(mk(false, &mut keyrng)), NatType::RestrictedCone);
    let dest = sim.add_node(Box::new(mk(false, &mut keyrng)), NatType::PortRestrictedCone);
    sim.run_for_secs(250);

    let mut invitation = None;
    sim.with_node_ctx::<WhisperNode>(dest, |node, ctx| {
        let group = node.create_group(ctx, "traced");
        invitation = node.invite(group, source);
    });
    let invitation = invitation.expect("the creator leads");
    let group = invitation.group;
    sim.with_node_ctx::<WhisperNode>(source, |node, ctx| node.join_group(ctx, invitation));
    sim.run_for_secs(3);
    // The join built the RSA onion and installed the circuit its ack came
    // back on; the messages ride it out and their echoes ride it back, so
    // the trace covers every packet format and both forms of a message.
    for i in 0..4u8 {
        sim.with_node_ctx::<WhisperNode>(source, |node, ctx| {
            node.with_api(|api, _| assert!(api.send_private(ctx, group, dest, vec![b'p', i], true)));
        });
        sim.run_for_secs(3);
    }

    let count = |name: &str| sim.metrics().counter(name);
    assert!(count("wcl.circuit_forwarded") >= 8, "steady-state path exercised, both ways");
    assert!(count("wcl.return_delivered") >= 5, "the ack and the four echoes rode back");
    assert_eq!(count("wcl.short_sent"), 3 + 3, "who talks was said once each way");
    assert_eq!(count("ppss.context_miss"), 0);
    stack_observables(&sim)
}

/// Every deterministic observable of a full-stack run, serialized: all
/// counters and sample series but the host-dependent families, per-node
/// traffic, and the final clock.
fn stack_observables(sim: &Sim) -> Vec<u8> {
    // Which families are host-dependent is `Metrics`' to say (DESIGN.md
    // §13, §16); the chaos harness compares runs with the same function.
    let mut out = sim.metrics().deterministic_trace();
    out.extend_from_slice(&sim.now().as_micros().to_le_bytes());
    out
}

/// One node with two pinned peers and two join handshakes that never
/// complete: every PCP refresh writes to both peers and every PPSS cycle
/// retries both joins, and each of those sends draws from the node's RNG.
/// The PPSS keeps both sets in `HashMap`s, whose iteration order differs
/// from one map instance to the next even within a process — so this
/// trace repeats only if the PPSS walks them in a canonical order.
///
/// What the scenario needs, in the order it sets it up: both pinned peers
/// refreshed at least once while nothing can drop them (every node still
/// alive), then both orphaned joins retried over at least four cycles
/// (their leaders gone).
fn run_pending_joins_and_pins_trace(seed: u64) -> Vec<u8> {
    use whisper_core::ppss::{CYCLE, PCP_REFRESH};
    use whisper_core::{WhisperConfig, WhisperNode};
    use whisper_crypto::rsa::KeyPair;
    use whisper_rand::rngs::StdRng;
    use whisper_rand::SeedableRng;

    let cfg = WhisperConfig::default();
    let mut keyrng = StdRng::seed_from_u64(seed);
    let mut sim = Sim::new(SimConfig::cluster(seed));
    let mut ids = Vec::new();
    for i in 0..10u64 {
        let mut node =
            WhisperNode::new(cfg.clone(), KeyPair::generate(cfg.nylon.rsa, &mut keyrng));
        let boot: Vec<NodeId> = [NodeId(0), NodeId(1)].into_iter().filter(|b| b.0 != i).collect();
        node.nylon_mut().set_bootstrap(boot);
        ids.push(sim.add_node(Box::new(node), NatType::Public));
    }
    sim.run_for_secs(250);

    let (joiner, leader, gone_a, gone_b) = (ids[9], ids[2], ids[7], ids[8]);
    let mut invitations = Vec::new();
    for (leader, name) in [(leader, "alive"), (gone_a, "orphan-a"), (gone_b, "orphan-b")] {
        sim.with_node_ctx::<WhisperNode>(leader, |node, ctx| {
            let group = node.create_group(ctx, name);
            invitations.push(node.invite(group, joiner).expect("leaders invite"));
        });
    }
    // The live group: the joiner and two more members, so it has peers to
    // pin once its view has filled.
    let mut invitations = invitations.into_iter();
    let alive = invitations.next().expect("three invitations");
    let live_group = alive.group;
    sim.with_node_ctx::<WhisperNode>(joiner, |node, ctx| node.join_group(ctx, alive));
    for &member in &ids[3..5] {
        let inv = sim.node::<WhisperNode>(leader).unwrap().invite(live_group, member).unwrap();
        sim.with_node_ctx::<WhisperNode>(member, |node, ctx| node.join_group(ctx, inv));
    }
    sim.run_for(CYCLE * 5);
    let mut pinned = 0;
    sim.with_node_ctx::<WhisperNode>(joiner, |node, _| {
        node.with_api(|api, _| {
            let peers: Vec<NodeId> =
                api.private_view(live_group).iter().map(|e| e.node).take(2).collect();
            pinned = peers.into_iter().filter(|&p| api.make_persistent(live_group, p)).count();
        });
    });
    assert_eq!(pinned, 2, "the joiner pinned two peers of the live group");
    sim.run_for(PCP_REFRESH);
    let refreshes = sim.metrics().counter("ppss.pcp_refreshes");
    assert_eq!(refreshes, 2, "one refresh period wrote to both pinned peers");

    // Only now do the other two leaders leave, and the joins towards them
    // start failing: once when asked for, then once per cycle.
    sim.remove_node(gone_a);
    sim.remove_node(gone_b);
    let attempts = sim.metrics().counter("ppss.join_attempts");
    for inv in invitations {
        sim.with_node_ctx::<WhisperNode>(joiner, |node, ctx| node.join_group(ctx, inv));
    }
    sim.run_for(CYCLE * 5);

    let m = sim.metrics();
    let retried = m.counter("ppss.join_attempts") - attempts;
    assert!(retried >= 2 * (1 + 4), "both orphaned joins were retried for four cycles: {retried}");
    assert_eq!(m.counter("ppss.joins_completed"), 3, "the live group's joins, no orphaned one");
    stack_observables(&sim)
}

#[test]
fn pending_joins_and_pinned_peers_replay_identically() {
    let base = run_pending_joins_and_pins_trace(7);
    // Two unordered pairs, so an order-dependent run matches the first
    // one time in four; three repeats leave a bug a 1-in-64 chance.
    for repeat in 1..=3 {
        assert!(
            base == run_pending_joins_and_pins_trace(7),
            "repeat {repeat}: same seed, same process, different trace"
        );
    }
}

/// Two same-seed full-stack runs with circuits enabled are byte-identical
/// — the circuit tables, eviction order, nonce chains and crypto-cost
/// model all feed only from the seed.
#[test]
fn full_stack_with_circuits_is_byte_identical() {
    let a = run_stack_trace(0xC1AC_0137);
    let b = run_stack_trace(0xC1AC_0137);
    assert_eq!(a.len(), b.len(), "stack trace lengths diverged");
    assert!(a == b, "same-seed circuit-enabled runs are not byte-identical");
}

/// The full stack — PSS, Nylon, WCL circuits, the crypto cost model —
/// produces the same bytes whether the engine runs 1 shard or 4.
#[test]
fn full_stack_is_shard_invariant() {
    let a = run_stack_trace_sharded(0xC1AC_0137, 1);
    let b = run_stack_trace_sharded(0xC1AC_0137, 4);
    assert!(a == b, "4-shard full-stack trace diverged from 1-shard");
}

/// Runs the chatter mesh under a scripted [`FaultPlan`] covering every
/// fault type — partition, Gilbert–Elliott burst loss, latency spike,
/// crash-and-restart, NAT rebinding — and serializes the observable
/// state. Fault decisions (burst-chain transitions, drop attribution,
/// deferred-timer ordering across a restart) all draw from the engine
/// RNG, so they must replay byte-for-byte.
fn run_fault_trace(seed: u64) -> Vec<u8> {
    run_fault_trace_sharded(seed, 1)
}

/// [`run_fault_trace`] with an explicit shard count (auto thread policy):
/// crash/restart deferral, burst chains and drop attribution are applied
/// shard-locally and must not leak the partitioning.
fn run_fault_trace_sharded(seed: u64, shards: usize) -> Vec<u8> {
    use whisper_net::fault::{FaultPlan, GilbertElliott};
    use whisper_net::SimTime;

    let mut sim = Sim::new(SimConfig::planetlab(seed).with_shards(shards));
    let peers: Vec<NodeId> = (0..16).map(NodeId).collect();
    for _ in 0..16u64 {
        sim.add_node(
            Box::new(Chatter { peers: peers.clone(), trace: Vec::new() }),
            NatType::Public,
        );
    }
    // One NATted talker (in nobody's peer list, so all its traffic is
    // outbound) to give the rebind fault a binding table to clear.
    let natted = sim.add_node(
        Box::new(Chatter { peers: peers.clone(), trace: Vec::new() }),
        NatType::RestrictedCone,
    );

    let at = |s: u64| SimTime::from_micros(s * 1_000_000);
    let plan = FaultPlan::new()
        .partition([NodeId(2), NodeId(3)], at(4), at(9))
        .burst_loss(at(10), at(15), GilbertElliott::heavy())
        .latency_spike(at(16), at(20), 10)
        .crash_restart(NodeId(5), at(21), at(25))
        .nat_rebind(natted, at(26));
    sim.install_fault_plan(plan);
    sim.run_for_secs(30);

    for fired in [
        "net.drop_partition",
        "net.lost_burst",
        "net.fault_crash",
        "net.fault_restart",
        "net.fault_nat_rebind",
    ] {
        assert!(sim.metrics().counter(fired) > 0, "{fired} never fired");
    }

    let mut out = Vec::new();
    for id in sim.node_ids() {
        let chatter = sim.node::<Chatter>(id).expect("chatter node");
        out.extend_from_slice(&id.0.to_le_bytes());
        out.extend_from_slice(&(chatter.trace.len() as u64).to_le_bytes());
        out.extend_from_slice(&chatter.trace);
    }
    out.extend_from_slice(&sim.metrics().deterministic_trace());
    out.extend_from_slice(&sim.now().as_micros().to_le_bytes());
    out
}

/// Two same-seed runs under a full fault plan are byte-identical, and
/// every scripted fault actually fired (otherwise the trace proves
/// nothing about the fault paths).
#[test]
fn fault_plan_run_is_byte_identical() {
    let a = run_fault_trace(0xFA_017);
    let b = run_fault_trace(0xFA_017);
    assert_eq!(a.len(), b.len(), "fault-plan trace lengths diverged");
    assert!(a == b, "same-seed fault-plan runs are not byte-identical");
    assert_ne!(
        run_fault_trace(0xFA_017),
        run_fault_trace(0xFA_018),
        "seed does not influence the fault-plan trace"
    );
}

/// Every fault type fires identically whether the victims share a shard
/// or are spread across four.
#[test]
fn fault_plan_is_shard_invariant() {
    for seed in [7u64, 11, 13] {
        let base = run_fault_trace_sharded(seed, 1);
        for shards in [2usize, 4] {
            assert!(
                base == run_fault_trace_sharded(seed, shards),
                "seed {seed}: {shards}-shard fault-plan trace diverged from 1-shard"
            );
        }
    }
}
