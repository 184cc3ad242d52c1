use super::*;
use crate::id::Endpoint;
use crate::nat::NatType;
use crate::payload::Payload;
use std::any::Any;

/// Test protocol: pings a target on start, echoes everything back,
/// counts deliveries, re-arms a periodic timer.
struct Pinger {
    target: Option<Endpoint>,
    received: Vec<(NodeId, Vec<u8>)>,
    timer_fires: u32,
    periodic: bool,
}

impl Pinger {
    fn new() -> Self {
        Pinger { target: None, received: Vec::new(), timer_fires: 0, periodic: false }
    }
}

impl Protocol for Pinger {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(t) = self.target {
            ctx.send_to(t, b"ping".to_vec());
        }
        if self.periodic {
            ctx.set_timer(SimDuration::from_secs(1), 1);
        }
    }
    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: NodeId,
        from_ep: Endpoint,
        data: &Payload,
    ) {
        self.received.push((from, data.to_vec()));
        if data.as_slice() == b"ping" {
            ctx.send_to(from_ep, b"pong".to_vec());
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.timer_fires += 1;
        if self.periodic && self.timer_fires < 5 {
            ctx.set_timer(SimDuration::from_secs(1), token);
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn ping_pong_between_public_nodes() {
    let mut sim = Sim::new(SimConfig::ideal(1));
    let b = sim.add_node(Box::new(Pinger::new()), NatType::Public);
    let mut a_proto = Pinger::new();
    a_proto.target = Some(Endpoint::public(b));
    let a = sim.add_node(Box::new(a_proto), NatType::Public);
    sim.run_for_secs(1);
    let a_state: &Pinger = sim.node(a).unwrap();
    assert_eq!(a_state.received.len(), 1);
    assert_eq!(a_state.received[0].1, b"pong");
    let b_state: &Pinger = sim.node(b).unwrap();
    assert_eq!(b_state.received[0].0, a);
}

#[test]
fn reply_to_natted_sender_via_observed_endpoint() {
    // A is behind a port-restricted NAT; B replies to A's observed
    // endpoint and the reply passes the filter.
    let mut sim = Sim::new(SimConfig::ideal(2));
    let b = sim.add_node(Box::new(Pinger::new()), NatType::Public);
    let mut a_proto = Pinger::new();
    a_proto.target = Some(Endpoint::public(b));
    let a = sim.add_node(Box::new(a_proto), NatType::PortRestrictedCone);
    sim.run_for_secs(1);
    let a_state: &Pinger = sim.node(a).unwrap();
    assert_eq!(a_state.received.len(), 1, "pong must traverse A's NAT");
}

#[test]
fn unsolicited_message_to_natted_node_blocked() {
    let mut sim = Sim::new(SimConfig::ideal(3));
    let victim = sim.add_node(Box::new(Pinger::new()), NatType::RestrictedCone);
    let mut a_proto = Pinger::new();
    // Guess an endpoint; nothing was opened, so it must be dropped.
    a_proto.target = Some(Endpoint { node: victim, port: 1 });
    sim.add_node(Box::new(a_proto), NatType::Public);
    sim.run_for_secs(1);
    let v: &Pinger = sim.node(victim).unwrap();
    assert!(v.received.is_empty());
    assert_eq!(sim.metrics().counter("net.nat_blocked"), 1);
}

#[test]
fn timers_fire_and_rearm() {
    let mut sim = Sim::new(SimConfig::ideal(4));
    let mut p = Pinger::new();
    p.periodic = true;
    let id = sim.add_node(Box::new(p), NatType::Public);
    sim.run_for_secs(10);
    let state: &Pinger = sim.node(id).unwrap();
    assert_eq!(state.timer_fires, 5);
}

#[test]
fn dead_node_receives_nothing() {
    let mut sim = Sim::new(SimConfig::ideal(5));
    let b = sim.add_node(Box::new(Pinger::new()), NatType::Public);
    let mut a_proto = Pinger::new();
    a_proto.target = Some(Endpoint::public(b));
    sim.add_node(Box::new(a_proto), NatType::Public);
    sim.remove_node(b);
    sim.run_for_secs(1);
    assert_eq!(sim.metrics().counter("net.drop_dead_target"), 1);
    assert!(!sim.contains(b));
}

#[test]
fn bandwidth_is_accounted() {
    let mut sim = Sim::new(SimConfig::ideal(6));
    let b = sim.add_node(Box::new(Pinger::new()), NatType::Public);
    let mut a_proto = Pinger::new();
    a_proto.target = Some(Endpoint::public(b));
    let a = sim.add_node(Box::new(a_proto), NatType::Public);
    sim.run_for_secs(1);
    let ta = sim.metrics().traffic(a);
    let tb = sim.metrics().traffic(b);
    assert_eq!(ta.up_msgs, 1);
    assert_eq!(ta.down_msgs, 1);
    assert_eq!(tb.up_msgs, 1);
    assert!(ta.up_bytes > 4, "headers counted");
}

#[test]
fn determinism_same_seed_same_trace() {
    fn run(seed: u64) -> (u64, u64) {
        let mut sim = Sim::new(SimConfig::cluster(seed));
        let b = sim.add_node(Box::new(Pinger::new()), NatType::Public);
        for _ in 0..20 {
            let mut p = Pinger::new();
            p.target = Some(Endpoint::public(b));
            p.periodic = true;
            sim.add_node(Box::new(p), NatType::RestrictedCone);
        }
        sim.run_for_secs(30);
        let t = sim.metrics().traffic(b);
        (t.down_bytes, t.up_bytes)
    }
    assert_eq!(run(7), run(7));
    assert_eq!(run(8), run(8));
}

#[test]
fn with_node_ctx_injects_commands() {
    let mut sim = Sim::new(SimConfig::ideal(8));
    let b = sim.add_node(Box::new(Pinger::new()), NatType::Public);
    let a = sim.add_node(Box::new(Pinger::new()), NatType::Public);
    let ok = sim.with_node_ctx::<Pinger>(a, |_p, ctx| {
        ctx.send_to(Endpoint::public(b), b"ping".to_vec());
    });
    assert!(ok);
    sim.run_for_secs(1);
    let b_state: &Pinger = sim.node(b).unwrap();
    assert_eq!(b_state.received.len(), 1);
}

#[test]
fn run_until_lands_exactly_on_deadline() {
    let mut sim = Sim::new(SimConfig::ideal(9));
    sim.run_until(SimTime::from_micros(123_456));
    assert_eq!(sim.now().as_micros(), 123_456);
}

/// The heart of the sharding contract: the same seed produces the
/// same trace for 1, 2 and 4 shards, sequential or threaded.
#[test]
fn sharded_run_matches_single_shard() {
    fn run(shards: usize, threads: bool) -> Vec<u8> {
        let cfg = SimConfig::cluster(21)
            .with_shards(shards)
            .with_threads(threads)
            .with_profiling(true);
        let mut sim = Sim::new(cfg);
        let hub = sim.add_node(Box::new(Pinger::new()), NatType::Public);
        for _ in 0..7 {
            let mut p = Pinger::new();
            p.target = Some(Endpoint::public(hub));
            p.periodic = true;
            sim.add_node(Box::new(p), NatType::RestrictedCone);
        }
        sim.run_for_secs(10);
        // Everything but the host-side families: pool statistics are
        // shard-local by design, and profiling is ON here to prove
        // that all else stays byte-identical under it.
        sim.metrics().deterministic_trace()
    }
    let base = run(1, false);
    assert_eq!(base, run(2, false), "2 shards, sequential");
    assert_eq!(base, run(2, true), "2 shards, threaded");
    assert_eq!(base, run(4, false), "4 shards, sequential");
    assert_eq!(base, run(4, true), "4 shards, threaded");
}

/// Profiling populates the `prof.*` buckets; leaving it off (the
/// default) emits none of them.
#[test]
fn profiler_buckets_accumulate_only_when_enabled() {
    fn run(profiling: bool) -> Vec<(&'static str, u64)> {
        let mut sim = Sim::new(SimConfig::cluster(33).with_profiling(profiling));
        let hub = sim.add_node(Box::new(Pinger::new()), NatType::Public);
        let mut p = Pinger::new();
        p.target = Some(Endpoint::public(hub));
        p.periodic = true;
        sim.add_node(Box::new(p), NatType::Public);
        sim.run_for_secs(5);
        sim.metrics()
            .counter_names()
            .filter(|n| n.starts_with("prof."))
            .map(|n| (n, sim.metrics().counter(n)))
            .collect()
    }
    assert!(run(false).is_empty(), "profiler off must emit no prof.* counters");
    let on = run(true);
    let get = |name: &str| on.iter().find(|(n, _)| *n == name).map_or(0, |(_, v)| *v);
    assert!(get("prof.events") > 0, "events dispatched under the profiler");
    assert!(get("prof.sched_ns") > 0, "scheduler bucket populated");
    // dispatch time contains the callback time, so the derived
    // engine bucket plus callbacks can never exceed dispatch totals.
    assert!(get("prof.callback_ns") > 0, "callback bucket populated");
}
