//! The rendezvous-chain invariant, checked on a running overlay: every
//! chain a view holds can be walked hop by hop, so on a network that loses
//! nothing no gossip exchange is lost either (DESIGN.md §7).
//!
//! 2 000 nodes, 30 % of them public, cluster profile; six cycles to warm
//! up, twelve measured; seeds 7 and 13.

use whisper_crypto::rsa::KeyPair;
use whisper_net::nat::{NatDistribution, NatType};
use whisper_net::sim::{Ctx, Protocol, Sim, SimConfig};
use whisper_net::wire::WireDecode;
use whisper_net::{Endpoint, NodeId, Payload};
use whisper_pss::messages::{ChainBody, NylonMsg};
use whisper_pss::nylon::CYCLE;
use whisper_pss::view::ROUTE_CAP;
use whisper_pss::{NylonConfig, NylonCore};
use whisper_rand::rngs::StdRng;
use whisper_rand::SeedableRng;

const NODES: usize = 2_000;
const BOOTSTRAPS: usize = 2;
const WARM_CYCLES: u64 = 6;
const MEASURED_CYCLES: u64 = 12;

/// A PSS node that also reads the gossip it is sent, as sent.
struct Watcher {
    core: NylonCore,
    /// Of every shipped chain that its sender put itself in front of, the
    /// hop behind the sender — which the sender took for a NATted node.
    covered: Vec<NodeId>,
    /// Shipped entries with a chain for a public target or none for a
    /// NATted one.
    malformed: Vec<String>,
}

impl Watcher {
    fn watch(&mut self, wire: &[u8]) {
        let relayed;
        let wire = match NylonMsg::from_wire(wire) {
            Ok(NylonMsg::Chain { remaining, body: ChainBody::Relayed(inner) | ChainBody::Contact(_, inner), .. })
                if remaining.is_empty() =>
            {
                relayed = inner;
                &relayed[..]
            }
            _ => wire,
        };
        let Some(gossip) = NylonMsg::gossip_view(wire) else {
            return;
        };
        for entry in gossip.entries() {
            let route = entry.route();
            // Only the sender vouches for a NATted node without a chain:
            // itself.
            let bare = route.is_empty() && entry.node != gossip.sender;
            if entry.is_public() != route.is_empty() && (entry.is_public() || bare) {
                self.malformed.push(format!("{entry:?} from {}", gossip.sender));
            }
            if route.len() >= 2 && route[0] == gossip.sender {
                self.covered.push(route[1]);
            }
        }
    }
}

impl Protocol for Watcher {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.core.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, from_ep: Endpoint, data: &Payload) {
        self.watch(data);
        drop(self.core.on_message(ctx, from, from_ep, data));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.core.on_timer(ctx, token);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn overlay(seed: u64) -> (Sim, Vec<NodeId>) {
    let cfg = NylonConfig::default();
    // One key pair serves all: nothing here looks at whose key is whose.
    let keypair = KeyPair::generate(cfg.rsa, &mut StdRng::seed_from_u64(seed));
    let mut sim = Sim::new(SimConfig::cluster(seed).with_expected_nodes(NODES));
    let dist = NatDistribution::with_public_ratio(0.30);
    let mut ids: Vec<NodeId> = Vec::with_capacity(NODES);
    for i in 0..NODES {
        let mut core = NylonCore::new(cfg.clone(), keypair.clone());
        let nat = if i < BOOTSTRAPS { NatType::Public } else { dist.sample(sim.rng()) };
        // The bootstrap nodes know each other, everyone else knows them.
        let known = (0..BOOTSTRAPS as u64).map(NodeId).filter(|b| b.0 != i as u64);
        core.set_bootstrap(known.collect());
        let node = Watcher { core, covered: Vec::new(), malformed: Vec::new() };
        ids.push(sim.add_node(Box::new(node), nat));
    }
    (sim, ids)
}

fn is_public(sim: &Sim, node: NodeId) -> bool {
    sim.nat_type(node).is_some_and(NatType::is_public)
}

/// (a) and the stored half of (c), for every entry of every view: the
/// holder reaches the first hop directly, each hop the next, the last the
/// target; no chain for a public target; no chain over the cap. Returns
/// how many entries hold a chain of 0, 1, … hops.
fn check_views(sim: &Sim, ids: &[NodeId]) -> [usize; ROUTE_CAP + 1] {
    let now = sim.now();
    let core = |id: NodeId| &sim.node::<Watcher>(id).expect("a watcher").core;
    let mut by_hops = [0; ROUTE_CAP + 1];
    let mut broken = Vec::new();
    for &holder in ids {
        for entry in core(holder).view().entries() {
            let route = entry.route();
            assert!(route.len() <= ROUTE_CAP, "{holder}: {entry:?}");
            assert_eq!(Some(entry.nat), sim.nat_type(entry.node), "{holder}: {entry:?}: its NAT type");
            assert!(!entry.is_public() || route.is_empty(), "{holder}: {entry:?}: public, with a chain");
            by_hops[route.len()] += 1;
            let mut at = holder;
            for &next in route.iter().chain([&entry.node]) {
                if !core(at).can_reach_directly(next, is_public(sim, next), now) {
                    broken.push(format!("{holder} holds {entry:?}: {at} cannot reach {next}"));
                    break;
                }
                at = next;
            }
        }
    }
    let entries: usize = by_hops.iter().sum();
    assert!(
        broken.is_empty(),
        "{} of {entries} chains cannot be walked, e.g. {:#?}",
        broken.len(),
        &broken[..broken.len().min(5)]
    );
    by_hops
}

fn chains_hold(seed: u64) {
    let (mut sim, ids) = overlay(seed);
    sim.run_for_secs(WARM_CYCLES * CYCLE.as_secs());
    check_views(&sim, &ids);
    let warm: Vec<u64> = COUNTERS.iter().map(|c| sim.metrics().counter(c)).collect();
    for _ in 0..MEASURED_CYCLES / 4 {
        sim.run_for_secs(4 * CYCLE.as_secs());
        let by_hops = check_views(&sim, &ids);
        assert!(by_hops[1] > 0 && by_hops[2] > 0, "chains in use: {by_hops:?}");
    }

    // (b) Over the measured cycles no exchange was lost: what was not
    // completed is still in flight.
    let m = sim.metrics();
    let measured: Vec<u64> =
        COUNTERS.iter().zip(&warm).map(|(c, before)| m.counter(c) - before).collect();
    let [initiated, completed, timeouts, unpunchable, punched, sendfail] = measured[..] else {
        unreachable!("six counters");
    };
    assert_eq!(initiated, NODES as u64 * MEASURED_CYCLES);
    assert_eq!((timeouts, sendfail), (0, 0), "time-outs, failed sends");
    assert!(completed.abs_diff(initiated) <= NODES as u64 / 100, "{completed} of {initiated}");
    assert!(unpunchable > 0 && punched > 0, "the handshake ran both ways: {measured:?}");
    assert_eq!(m.counter("pss.malformed"), 0, "nothing was shipped that a decoder refuses");

    // (c) What was shipped: no forwarder covered a P-node, and every
    // receiver found the entries well-formed.
    let mut covered = 0;
    for &id in &ids {
        let watcher = sim.node::<Watcher>(id).expect("a watcher");
        assert!(watcher.malformed.is_empty(), "{id} was sent {:#?}", watcher.malformed);
        for &hop in &watcher.covered {
            assert!(!is_public(&sim, hop), "{id} was sent a chain whose sender covers P-node {hop}");
        }
        covered += watcher.covered.len();
    }
    assert!(covered > 0, "two-hop chains were shipped");
}

const COUNTERS: [&str; 6] = [
    "pss.gossip_initiated",
    "pss.gossip_completed",
    "pss.gossip_timeout",
    "pss.open_unpunchable",
    "pss.open_punch_ok",
    "pss.send_failed",
];

#[test]
fn every_chain_can_be_walked_and_no_exchange_is_lost_seed_7() {
    chains_hold(7);
}

#[test]
fn every_chain_can_be_walked_and_no_exchange_is_lost_seed_13() {
    chains_hold(13);
}
