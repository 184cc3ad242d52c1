//! Validates that hole punching *emerges* correctly from the packet-level
//! NAT emulation: for every pair of NAT types, the Nylon open handshake
//! must establish a direct channel exactly when the theoretical matrix
//! (`can_hole_punch`) says it can — and must deliver the payload over the
//! rendezvous chain when it cannot: at once when the handshake says so,
//! after the time-out when the handshake's own messages are lost.

use whisper_crypto::rsa::KeyPair;
use whisper_net::fault::FaultPlan;
use whisper_net::nat::{can_hole_punch, NatType};
use whisper_net::sim::{Sim, SimConfig};
use whisper_net::{NodeId, SimDuration};
use whisper_pss::transport::OPEN_TIMEOUT;
use whisper_pss::{NylonConfig, NylonCore, NylonNode};
use whisper_rand::rngs::StdRng;
use whisper_rand::SeedableRng;

/// One public rendezvous/bootstrap node plus nodes A and B behind the
/// given NAT types, after `warm_s` seconds of gossip: everyone has talked
/// to the RV, A and B have open associations towards it and the RV has
/// contacts for both, so it can relay and coordinate. Returns the sim, A
/// and B.
fn trio(nat_a: NatType, nat_b: NatType, seed: u64, warm_s: u64) -> (Sim, NodeId, NodeId) {
    let cfg = NylonConfig::default();
    let mut keyrng = StdRng::seed_from_u64(seed);
    let mut sim = Sim::new(SimConfig::cluster(seed));

    let mk = |rng: &mut StdRng| NylonCore::new(cfg.clone(), KeyPair::generate(cfg.rsa, rng));
    let rv = sim.add_node(Box::new(NylonNode::new(mk(&mut keyrng))), NatType::Public);
    let mut core_a = mk(&mut keyrng);
    core_a.set_bootstrap(vec![rv]);
    let a = sim.add_node(Box::new(NylonNode::new(core_a)), nat_a);
    let mut core_b = mk(&mut keyrng);
    core_b.set_bootstrap(vec![rv]);
    let b = sim.add_node(Box::new(NylonNode::new(core_b)), nat_b);
    sim.run_for_secs(warm_s);
    (sim, a, b)
}

/// A [`trio`] in which A and B have each gossiped with the RV and not yet
/// with one another — one cycle and a second's grace; a seed under which
/// an early riser's second cycle already went to the other is refused —
/// so that what A sends B next has the chain and nothing else to go by.
fn strangers(nat_a: NatType, nat_b: NatType, seed: u64) -> (Sim, NodeId, NodeId) {
    let (sim, a, b) = trio(nat_a, nat_b, seed, 11);
    let m = sim.metrics();
    assert_eq!(m.counter("pss.gossip_served"), m.counter("pss.gossip_completed"));
    assert!(m.counter("pss.gossip_completed") >= 2, "seed {seed}: A and B have met the RV");
    assert_eq!(
        m.counter("pss.open_started") + m.counter("pss.relayed_sent"),
        0,
        "seed {seed}: A and B have met already, pick another"
    );
    (sim, a, b)
}

/// A sends an app payload to B through the rendezvous chain [rv] — node
/// 0, the first added.
fn send_over_rv(sim: &mut Sim, a: NodeId, b: NodeId, payload: &[u8]) {
    sim.with_node_ctx::<NylonNode>(a, |node, ctx| {
        node.core_mut().send_app(ctx, b, false, &[NodeId(0)], payload.to_vec());
    });
}

fn payloads_received(sim: &Sim, node: NodeId) -> u64 {
    sim.node::<NylonNode>(node).map_or(0, |n| n.payloads_received())
}

/// Has A of a [`trio`] send to B over the RV. Returns (payload delivered,
/// direct channel established at A).
fn try_pair(nat_a: NatType, nat_b: NatType, seed: u64) -> (bool, bool) {
    // A few gossip cycles, in which A and B may well meet: the outcome
    // is the same from whichever exchange the first handshake starts.
    let (mut sim, a, b) = trio(nat_a, nat_b, seed, 45);
    send_over_rv(&mut sim, a, b, b"punch me");
    sim.run_for_secs(10);

    let delivered = sim
        .node::<NylonNode>(b)
        .map(|n| n.payloads_received() > 0)
        .unwrap_or(false);
    // Direct channel: after the handshake, A holds a working contact for
    // B that did not come from the relay path.
    let punched = sim.metrics().counter("pss.open_punch_ok") > 0;
    (delivered, punched)
}

#[test]
fn punching_outcomes_match_theory_for_all_nat_pairs() {
    let natted = NatType::NATTED;
    for (i, &nat_a) in natted.iter().enumerate() {
        for (j, &nat_b) in natted.iter().enumerate() {
            let seed = 1000 + (i * 4 + j) as u64;
            let (delivered, punched) = try_pair(nat_a, nat_b, seed);
            let expected = can_hole_punch(nat_a, nat_b);
            assert!(
                delivered,
                "{nat_a:?} → {nat_b:?}: payload must arrive (punch or relay)"
            );
            assert_eq!(
                punched, expected,
                "{nat_a:?} → {nat_b:?}: emergent punching disagrees with theory"
            );
        }
    }
}

#[test]
fn public_targets_never_need_punching() {
    for (i, &nat_a) in NatType::NATTED.iter().enumerate() {
        let (delivered, _) = try_pair(nat_a, NatType::Public, 2000 + i as u64);
        assert!(delivered, "{nat_a:?} → Public must deliver");
    }
}

#[test]
fn relay_fallback_carries_traffic_for_symmetric_pairs() {
    // Symmetric ↔ symmetric cannot punch, and the handshake says so: the
    // RV relays the payload the moment B's acknowledgement reaches A, no
    // punch is sent and no time-out is waited for.
    let (mut sim, a, b) = strangers(NatType::Symmetric, NatType::Symmetric, 7777);
    let blocked_before = sim.metrics().counter("net.nat_blocked");
    send_over_rv(&mut sim, a, b, b"via relay");
    sim.run_for(SimDuration::from_micros(OPEN_TIMEOUT.as_micros() / 4));

    assert_eq!(payloads_received(&sim, b), 1, "relayed well before the time-out");
    let m = sim.metrics();
    assert_eq!(m.counter("pss.open_unpunchable"), 1, "ended by the NAT types");
    assert_eq!(m.counter("pss.open_relay_fallback"), 0);
    assert_eq!(m.counter("pss.open_punch_ok"), 0);
    assert!(m.counter("pss.relayed_forwarded") >= 1, "the RV actually forwarded content");
    assert_eq!(m.counter("net.nat_blocked"), blocked_before, "no punch thrown at a closed NAT");
    // The time-out that was armed finds nothing left to do.
    sim.run_for_secs(10);
    assert_eq!(payloads_received(&sim, b), 1);
    assert_eq!(sim.metrics().counter("pss.open_relay_fallback"), 0);
}

/// The time-out is for real loss. Cut A off while the handshake's answer
/// travels, so that no acknowledgement (symmetric pair) or no punch and
/// no acknowledgement (punchable pair) reaches it: [`OPEN_TIMEOUT`] after
/// the send A gives up and the chain delivers.
#[test]
fn the_timeout_still_relays_when_the_handshake_is_lost() {
    for (nat_b, seed) in [(NatType::Symmetric, 7778), (NatType::FullCone, 7779)] {
        let (mut sim, a, b) = strangers(NatType::Symmetric, nat_b, seed);
        let sent_at = sim.now();
        sim.install_fault_plan(FaultPlan::new().partition(
            [a],
            sent_at + SimDuration::from_micros(1),
            sent_at + SimDuration::from_micros(OPEN_TIMEOUT.as_micros() / 2),
        ));
        send_over_rv(&mut sim, a, b, b"late, not lost");
        sim.run_for(OPEN_TIMEOUT - SimDuration::from_millis(1));
        assert!(sim.metrics().counter("net.drop_partition") >= 1, "{nat_b:?}: the answer was lost");
        assert_eq!(payloads_received(&sim, b), 0, "{nat_b:?}: held while the handshake may yet end");
        sim.run_for_secs(1);
        assert_eq!(payloads_received(&sim, b), 1, "{nat_b:?}: relayed on the time-out");
        let m = sim.metrics();
        assert_eq!(m.counter("pss.open_relay_fallback"), 1, "{nat_b:?}");
        assert_eq!(m.counter("pss.open_unpunchable"), 0, "{nat_b:?}");
        assert_eq!(m.counter("pss.open_punch_ok"), 0, "{nat_b:?}");
    }
}
